package ops

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"genmapper/internal/gam"
	"genmapper/internal/sqldb"
)

// refCompose is Compose from its definitions, over mappings read as sets
// of (Object1, Object2, evidence) and with nested loops only. Two
// associations that meet in a middle object derive the pair of their ends.
// A derivation's evidence is the product of its two evidences, where an
// unset evidence (0, a curated fact) is the identity and a product of two
// scores that underflows to 0 is the smallest nonzero float64 of its sign.
// The derived pairs collapse as refDedup says.
func refCompose(as1, as2 []gam.Assoc) []gam.Assoc {
	var derived []gam.Assoc
	for _, a1 := range as1 {
		for _, a2 := range as2 {
			if a1.Object2 != a2.Object1 {
				continue
			}
			ev := a1.Evidence * a2.Evidence
			switch {
			case a1.Evidence == 0:
				ev = a2.Evidence
			case a2.Evidence == 0:
				ev = a1.Evidence
			case ev == 0:
				ev = math.Copysign(math.SmallestNonzeroFloat64, ev)
			}
			derived = append(derived, gam.Assoc{Object1: a1.Object1, Object2: a2.Object2, Evidence: ev})
		}
	}
	return refDedup(derived)
}

// refDedup is Dedup from its definition: each distinct pair once, a fact
// (unset evidence) when any of its associations is one and otherwise with
// the highest evidence, sorted by (Object1, Object2).
func refDedup(assocs []gam.Assoc) []gam.Assoc {
	samePair := func(a, b gam.Assoc) bool { return a.Object1 == b.Object1 && a.Object2 == b.Object2 }
	var out []gam.Assoc
	for _, d := range assocs {
		if slices.ContainsFunc(out, func(o gam.Assoc) bool { return samePair(o, d) }) {
			continue
		}
		fact, best := false, math.Inf(-1)
		for _, e := range assocs {
			if !samePair(e, d) {
				continue
			}
			if e.Evidence == 0 {
				fact = true
			} else if e.Evidence > best {
				best = e.Evidence
			}
		}
		if fact {
			best = 0
		}
		out = append(out, gam.Assoc{Object1: d.Object1, Object2: d.Object2, Evidence: best})
	}
	refSort(out)
	return out
}

func refSort(assocs []gam.Assoc) {
	slices.SortFunc(assocs, func(a, b gam.Assoc) int {
		if c := cmp.Compare(a.Object1, b.Object1); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Object2, b.Object2); c != 0 {
			return c
		}
		return cmp.Compare(a.Evidence, b.Evidence)
	})
}

// refComposePath composes a chain of association lists with refCompose,
// in the order ComposePath's planner picks for it (see planOf).
func refComposePath(chain [][]gam.Assoc) []gam.Assoc {
	return refComposeTree(chain, planOf(chain), 0, len(chain)-1)
}

// refComposeTree composes chain[i..j] with refCompose as split brackets it
// (see composeScratch.plan).
func refComposeTree(chain [][]gam.Assoc, split []int32, i, j int) []gam.Assoc {
	if i == j {
		return chain[i]
	}
	k := int(split[i*len(chain)+j])
	return refCompose(refComposeTree(chain, split, i, k), refComposeTree(chain, split, k+1, j))
}

// planOf returns the bracketing ComposePath joins chain's mappings in, as
// composeScratch.plan writes it.
func planOf(chain [][]gam.Assoc) []int32 {
	maps := make([]*Mapping, len(chain))
	for i, as := range chain {
		maps[i] = operand(as, gam.SourceID(i+1), "loaded")
	}
	s := new(composeScratch)
	s.group(maps)
	return slices.Clone(s.plan())
}

// composeAlong composes maps as split brackets them, through the same
// evaluator composePath runs, and returns a copy of the result.
func composeAlong(maps []*Mapping, split []int32) []gam.Assoc {
	s := new(composeScratch)
	s.group(maps)
	return slices.Clone(s.eval(split, 0, len(maps)-1, 0).assocs)
}

// bracketings returns every bracketing of a chain of n operands, each as
// the split table composeScratch.plan writes: Catalan(n-1) of them.
func bracketings(n int) [][]int32 {
	var sub func(i, j int) [][]int32
	sub = func(i, j int) [][]int32 {
		if i == j {
			return [][]int32{make([]int32, n*n)}
		}
		var out [][]int32
		for k := i; k < j; k++ {
			for _, l := range sub(i, k) {
				for _, r := range sub(k+1, j) {
					t := slices.Clone(l)
					for a := k + 1; a <= j; a++ {
						copy(t[a*n+a:a*n+j+1], r[a*n+a:a*n+j+1])
					}
					t[i*n+j] = int32(k)
					out = append(out, t)
				}
			}
		}
		return out
	}
	return sub(0, n-1)
}

// leftFold is the split table of the left-deep bracketing of n operands.
func leftFold(n int) []int32 {
	t := make([]int32, n*n)
	for j := 1; j < n; j++ {
		t[j] = int32(j - 1)
	}
	return t
}

// brackets renders operands i..j of a split table as nested parentheses.
func brackets(split []int32, n, i, j int) string {
	if i == j {
		return fmt.Sprint(i)
	}
	k := int(split[i*n+j])
	return "(" + brackets(split, n, i, k) + " " + brackets(split, n, k+1, j) + ")"
}

// refEvidence mixes unset (0), asserted 1.0, scores in (0, 1) and values
// outside [0, 1]. The scores are multiples of 1/8, so the product of a
// few is exact and every grouping of a composition gives the same
// evidence.
var refEvidence = []float64{0, 0, 1.0, 1.0, 0.25, 0.5, 0.625, 0.875, 2.0, -0.5}

// refAssocs draws up to n associations from domain objects
// [from, from+nFrom) to range objects [to, to+nTo), in no order, with
// repeated pairs under other evidence.
func refAssocs(rng *rand.Rand, from, nFrom, to, nTo gam.ObjectID, n int) []gam.Assoc {
	var out []gam.Assoc
	for i, k := 0, rng.Intn(n+1); i < k; i++ {
		a := gam.Assoc{
			Object1:  from + gam.ObjectID(rng.Int63n(int64(nFrom))),
			Object2:  to + gam.ObjectID(rng.Int63n(int64(nTo))),
			Evidence: refEvidence[rng.Intn(len(refEvidence))],
		}
		out = append(out, a)
		for rng.Intn(3) == 0 {
			a.Evidence = refEvidence[rng.Intn(len(refEvidence))]
			out = append(out, a)
		}
	}
	return out
}

// refChain draws the association lists of a chain of hops mappings over
// sources of a few objects each; source i's objects are 100*i+[0, n).
func refChain(rng *rand.Rand, hops int) [][]gam.Assoc {
	chain := make([][]gam.Assoc, hops)
	for i := range chain {
		chain[i] = refAssocs(rng, gam.ObjectID(100*i), gam.ObjectID(3+rng.Intn(8)),
			gam.ObjectID(100*(i+1)), gam.ObjectID(3+rng.Intn(8)), 30)
	}
	return chain
}

// operand wraps assocs as the mapping from source from to from+1, in one of
// the three forms Compose meets: in load order, sorted, or shared by an
// executor cache.
func operand(assocs []gam.Assoc, from gam.SourceID, form string) *Mapping {
	m := &Mapping{From: from, To: from + 1, Type: gam.RelFact, Assocs: slices.Clone(assocs)}
	switch form {
	case "sorted":
		sortAssocs(m.Assocs, true)
	case "shared":
		NewExecutor(nil).putEdge(edgeKey{rel: gam.SourceRelID(from)}, 0, m)
	}
	return m
}

var operandForms = []string{"loaded", "sorted", "shared"}

func TestComposeMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		chain := refChain(rng, 2)
		want := refCompose(chain[0], chain[1])
		for _, f1 := range operandForms {
			for _, f2 := range operandForms {
				m1, m2 := operand(chain[0], 1, f1), operand(chain[1], 2, f2)
				in1, in2 := slices.Clone(m1.Assocs), slices.Clone(m2.Assocs)
				got, err := Compose(m1, m2)
				if err != nil {
					t.Fatal(err)
				}
				if got.From != 1 || got.To != 3 || got.Type != gam.RelComposed || got.Rel != 0 {
					t.Fatalf("seed %d (%s, %s): got %d->%d %s rel %d", seed, f1, f2, got.From, got.To, got.Type, got.Rel)
				}
				if !slices.Equal(got.Assocs, want) {
					t.Fatalf("seed %d (%s, %s):\n got %v\nwant %v", seed, f1, f2, got.Assocs, want)
				}
				if !slices.Equal(m1.Assocs, in1) || !slices.Equal(m2.Assocs, in2) {
					t.Fatalf("seed %d (%s, %s): Compose wrote to an operand", seed, f1, f2)
				}
			}
		}
	}
}

// TestDedupAndInvertMatchReference checks Dedup against refDedup and
// Invert against swapping each association, duplicates kept; Dedup keeps
// first-appearance order and Invert the input order, so both are compared
// sorted.
func TestDedupAndInvertMatchReference(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		as := refChain(rand.New(rand.NewSource(seed)), 1)[0]
		m := &Mapping{From: 1, To: 2, Type: gam.RelFact, Assocs: as}
		got := slices.Clone(Dedup(m).Assocs)
		refSort(got)
		if want := refDedup(as); !slices.Equal(got, want) {
			t.Fatalf("seed %d: Dedup\n got %v\nwant %v", seed, got, want)
		}
		inv := Invert(m)
		if inv.From != 2 || inv.To != 1 {
			t.Fatalf("seed %d: Invert leads %d->%d", seed, inv.From, inv.To)
		}
		want := make([]gam.Assoc, len(as))
		for i, a := range as {
			want[i] = gam.Assoc{Object1: a.Object2, Object2: a.Object1, Evidence: a.Evidence}
		}
		got = slices.Clone(inv.Assocs)
		refSort(got)
		refSort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: Invert\n got %v\nwant %v", seed, got, want)
		}
		if back := Invert(inv); !slices.Equal(back.Assocs, as) {
			t.Fatalf("seed %d: Invert is not an involution", seed)
		}
	}
}

// TestComposeKeepsOperandDuplicates is the case that forbids collapsing an
// operand's duplicate pairs before the join: evidence 0.5 composed with a
// duplicate pair of evidence 0 (a fact) and 2.0 derives 0.5 and 1.0, so
// the derived pair is 1.0. Collapsing the operand first keeps only the
// fact and derives 0.5.
func TestComposeKeepsOperandDuplicates(t *testing.T) {
	left := []gam.Assoc{{Object1: 1, Object2: 10, Evidence: 0.5}}
	want := []gam.Assoc{{Object1: 1, Object2: 20, Evidence: 1.0}}
	for _, right := range [][]gam.Assoc{
		{{Object1: 10, Object2: 20}, {Object1: 10, Object2: 20, Evidence: 2}},
		{{Object1: 10, Object2: 20, Evidence: 2}, {Object1: 10, Object2: 20}},
	} {
		if ref := refCompose(left, right); !slices.Equal(ref, want) {
			t.Fatalf("reference %v, want %v", ref, want)
		}
		for _, form := range operandForms {
			got, err := Compose(operand(left, 1, "loaded"), operand(right, 2, form))
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.Assocs, want) {
				t.Fatalf("right %v (%s): got %v, want %v", right, form, got.Assocs, want)
			}
		}
		collapsed, err := Compose(operand(left, 1, "loaded"), Dedup(operand(right, 2, "loaded")))
		if err != nil {
			t.Fatal(err)
		}
		if got := collapsed.Assocs[0].Evidence; got != 0.5 {
			t.Fatalf("pre-collapsed right operand derives %v, want 0.5", got)
		}
	}
}

func TestComposePathMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		hops := 2 + rng.Intn(4)
		chain := refChain(rng, hops)
		want := refComposePath(chain)
		maps := make([]*Mapping, hops)
		for i, as := range chain {
			maps[i] = operand(as, gam.SourceID(i+1), operandForms[rng.Intn(len(operandForms))])
		}
		got, err := ComposePath(maps...)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Assocs, want) {
			t.Fatalf("seed %d, %d hops:\n got %v\nwant %v", seed, hops, got.Assocs, want)
		}
	}
}

// TestExecutorMapPathMatchesReference stores generated chains, some
// mappings in the opposite direction, and checks Executor.MapPath cold,
// warm and after ReplaceMapping, and ops.MapPath, against the reference
// composed in the planner's order: the two derive the same evidence even
// outside [0, 1]. gam rejects such evidence at its write boundary, so a
// mapping that carries some is stored in two steps: ReplaceMapping writes
// its valid associations, and the others are inserted around gam.
func TestExecutorMapPathMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		hops := 2 + rng.Intn(5)
		repo, err := gam.Open(sqldb.NewDB())
		if err != nil {
			t.Fatal(err)
		}
		path := make([]gam.SourceID, hops+1)
		objs := make([][]gam.ObjectID, hops+1)
		for i := range path {
			src, _, err := repo.EnsureSource(gam.Source{Name: fmt.Sprintf("S%d", i)})
			if err != nil {
				t.Fatal(err)
			}
			specs := make([]gam.ObjectSpec, 3+rng.Intn(8))
			for j := range specs {
				specs[j] = gam.ObjectSpec{Accession: fmt.Sprintf("s%d-%d", i, j)}
			}
			if objs[i], _, err = repo.EnsureObjects(src.ID, specs); err != nil {
				t.Fatal(err)
			}
			path[i] = src.ID
		}
		draw := func(i int) []gam.Assoc {
			as := refAssocs(rng, 0, gam.ObjectID(len(objs[i])), 0, gam.ObjectID(len(objs[i+1])), 30)
			for k := range as {
				as[k].Object1, as[k].Object2 = objs[i][as[k].Object1], objs[i+1][as[k].Object2]
			}
			return as
		}
		reversed := make([]bool, hops)
		store := func(i int, as []gam.Assoc) {
			s, t2, stored := path[i], path[i+1], as
			if reversed[i] {
				s, t2, stored = t2, s, flip(as)
			}
			var valid, invalid []gam.Assoc
			for _, a := range stored {
				if a.Evidence >= 0 && a.Evidence <= 1 {
					valid = append(valid, a)
				} else {
					invalid = append(invalid, a)
				}
			}
			var evErr *gam.EvidenceError
			if _, err := repo.ReplaceMapping(s, t2, gam.RelFact, stored); len(invalid) > 0 && !errors.As(err, &evErr) {
				t.Fatalf("ReplaceMapping of %v = %v, want an EvidenceError", invalid, err)
			}
			rel, err := repo.ReplaceMapping(s, t2, gam.RelFact, valid)
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range invalid {
				if _, err := repo.DB().Exec("INSERT INTO object_rel (source_rel_id, object1_id, object2_id, evidence) VALUES (?, ?, ?, ?)",
					int64(rel), int64(a.Object1), int64(a.Object2), a.Evidence); err != nil {
					t.Fatal(err)
				}
			}
		}
		chain := make([][]gam.Assoc, hops)
		for i := range chain {
			reversed[i] = rng.Intn(3) == 0
			chain[i] = draw(i)
			store(i, chain[i])
		}
		e := NewExecutor(repo)
		check := func(when string) {
			t.Helper()
			want := refComposePath(chain)
			got, err := e.MapPath(path)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := MapPath(repo, path)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.Assocs, want) {
				t.Fatalf("seed %d, %d hops, %s:\n got %v\nwant %v", seed, hops, when, got.Assocs, want)
			}
			if !slices.Equal(plain.Assocs, want) {
				t.Fatalf("seed %d, %d hops, %s: ops.MapPath\n got %v\nwant %v", seed, hops, when, plain.Assocs, want)
			}
		}
		check("cold")
		hits := e.Stats().Hits
		check("warm")
		if e.Stats().Hits != hits+1 {
			t.Fatalf("seed %d: the warm MapPath missed the path cache", seed)
		}
		i := rng.Intn(hops)
		chain[i] = draw(i)
		store(i, chain[i])
		check("after ReplaceMapping")
	}
}

// checkGrouped fails unless m is a composed path as the executor caches
// it: its grouping is that of its own associations, and its associations,
// domains and offsets are exactly sized.
func checkGrouped(t *testing.T, m *Mapping) {
	t.Helper()
	if m.index == nil {
		t.Fatal("composed path carries no grouping")
	}
	g, want := m.index.groups, groupAssocs(m.Assocs)
	if !slices.Equal(g.assocs, m.Assocs) || !slices.Equal(g.domains, want.domains) || !slices.Equal(g.offs, want.offs) {
		t.Fatalf("grouping %v %v, want %v %v", g.domains, g.offs, want.domains, want.offs)
	}
	if cap(m.Assocs) != len(m.Assocs) || cap(g.assocs) != len(g.assocs) || cap(g.domains) != len(g.domains) || cap(g.offs) != len(g.offs) {
		t.Fatalf("slack: assocs %d/%d, grouped assocs %d/%d, domains %d/%d, offsets %d/%d",
			len(m.Assocs), cap(m.Assocs), len(g.assocs), cap(g.assocs), len(g.domains), cap(g.domains), len(g.offs), cap(g.offs))
	}
}

// TestComposeScratchNeverAliasesResults composes path A, then longer paths
// through the same pooled scratch, and checks A's result, plain and grouped,
// slice for slice against the reference: reused scratch must never be
// memory a returned mapping points into.
func TestComposeScratchNeverAliasesResults(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		chainA := refChain(rng, 3)
		wantA := refComposePath(chainA)
		mapsA := make([]*Mapping, len(chainA))
		for i, as := range chainA {
			mapsA[i] = operand(as, gam.SourceID(i+1), operandForms[rng.Intn(len(operandForms))])
		}
		plainA, err := ComposePath(mapsA...)
		if err != nil {
			t.Fatal(err)
		}
		groupedA, err := composePath(mapsA, true)
		if err != nil {
			t.Fatal(err)
		}
		for b := 0; b < 4; b++ {
			chainB := refChain(rng, 2+rng.Intn(4))
			mapsB := make([]*Mapping, len(chainB))
			for i, as := range chainB {
				mapsB[i] = operand(as, gam.SourceID(i+1), operandForms[rng.Intn(len(operandForms))])
			}
			got, err := composePath(mapsB, b%2 == 0)
			if err != nil {
				t.Fatal(err)
			}
			if want := refComposePath(chainB); !slices.Equal(got.Assocs, want) {
				t.Fatalf("seed %d, path B %d:\n got %v\nwant %v", seed, b, got.Assocs, want)
			}
		}
		if !slices.Equal(plainA.Assocs, wantA) || !slices.Equal(groupedA.Assocs, wantA) {
			t.Fatalf("seed %d: path A changed after later compositions:\n got %v\n and %v\nwant %v",
				seed, plainA.Assocs, groupedA.Assocs, wantA)
		}
		checkGrouped(t, groupedA)
		if cap(plainA.Assocs) != len(plainA.Assocs) || plainA.index != nil {
			t.Fatalf("seed %d: ComposePath result has %d/%d assocs, index %v", seed, len(plainA.Assocs), cap(plainA.Assocs), plainA.index)
		}
	}
}

// TestComposeNeverTrustsStalePositions runs joins through one scratch, so
// each finds the slots of pos as earlier joins left them: first a wide
// join that fills thousands of slots, then narrower ones whose left
// operands name, among others, middle IDs that are no domain of the right
// operand but whose slots hold positions inside it, and the two kinds of
// join that search instead: one whose right operand has an outlying ID,
// and one whose left operand looks up too few middle objects to pay for
// filling pos. Every result must match the reference, grouping included.
func TestComposeNeverTrustsStalePositions(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ids := func(from, step gam.ObjectID, n int) []gam.ObjectID {
		out := make([]gam.ObjectID, n)
		for i := range out {
			out[i] = from + step*gam.ObjectID(i)
		}
		return out
	}
	ev := func() float64 { return refEvidence[rng.Intn(len(refEvidence))] }
	cases := []struct {
		name   string
		mids   []gam.ObjectID // the right operand's domains
		lo, hi gam.ObjectID   // the left operand names every middle ID in [lo, hi)
		search bool           // the join searches instead of addressing by position
	}{
		{"wide", ids(0, 3, 2000), 0, 6000, false},
		{"narrow", ids(1000, 10, 20), 1000, 1200, false},
		{"narrow, below its base", ids(5000, 7, 40), 4990, 5300, false},
		{"outlier", append(ids(0, 1, 100), 1<<40), 0, 120, true},
		{"few lookups over many domains", ids(0, 1, 3000), 1500, 1502, true},
		{"narrow after the search", ids(2, 3, 30), 0, 100, false},
	}
	s := new(composeScratch)
	for _, c := range cases {
		var left, right []gam.Assoc
		for x := c.lo; x < c.hi; x++ {
			for k := rng.Intn(3); k >= 0; k-- {
				left = append(left, gam.Assoc{Object1: gam.ObjectID(rng.Intn(40)), Object2: x, Evidence: ev()})
			}
		}
		left = append(left, gam.Assoc{Object1: 7, Object2: 1 << 40, Evidence: ev()})
		for _, m := range c.mids {
			for k := rng.Intn(3); k >= 0; k-- {
				right = append(right, gam.Assoc{Object1: m, Object2: 1<<20 + gam.ObjectID(rng.Intn(60)), Evidence: ev()})
			}
		}
		third := refAssocs(rng, 1<<20, 60, 1<<21, 20, 200)
		for _, chain := range [][][]gam.Assoc{{left, right}, {left, right, third}} {
			maps := make([]*Mapping, len(chain))
			for i, as := range chain {
				maps[i] = operand(as, gam.SourceID(i+1), operandForms[rng.Intn(len(operandForms))])
			}
			g := s.compose(maps)
			want := refComposePath(chain)
			if !slices.Equal(g.assocs, want) {
				t.Fatalf("%s, %d hops:\n got %v\nwant %v", c.name, len(chain), g.assocs, want)
			}
			if wg := groupAssocs(want); !slices.Equal(g.domains, wg.domains) || !slices.Equal(g.offs, wg.offs) {
				t.Fatalf("%s, %d hops: grouping %v %v, want %v %v", c.name, len(chain), g.domains, g.offs, wg.domains, wg.offs)
			}
		}
		l, r := groupAssocs(sortAssocs(left, false)), groupAssocs(sortAssocs(right, false))
		if searched := s.positions(l, r) == nil; searched != c.search {
			t.Fatalf("%s: right operand searched = %v, want %v", c.name, searched, c.search)
		}
	}
}

// TestComposePathEmptyIntermediate composes paths whose first or a middle
// hop derives nothing: the result is empty wherever later hops would join,
// and a grouped empty result is still a well-formed grouping.
func TestComposePathEmptyIntermediate(t *testing.T) {
	full := []gam.Assoc{{Object1: 1, Object2: 2}, {Object1: 1, Object2: 3, Evidence: 0.5}, {Object1: 2, Object2: 3}}
	miss := []gam.Assoc{{Object1: 7, Object2: 8}} // meets nothing in full
	for _, chain := range [][][]gam.Assoc{
		{full, miss},
		{miss, full, full},
		{full, full, miss, full},
		{full, miss, full, full, full},
	} {
		want := refComposePath(chain)
		if len(want) != 0 {
			t.Fatalf("chain %v derives %v", chain, want)
		}
		for _, form := range operandForms {
			maps := make([]*Mapping, len(chain))
			for i, as := range chain {
				maps[i] = operand(as, gam.SourceID(i+1), form)
			}
			for _, grouped := range []bool{false, true} {
				got, err := composePath(maps, grouped)
				if err != nil {
					t.Fatal(err)
				}
				if len(got.Assocs) != 0 || got.From != 1 || got.To != gam.SourceID(len(chain)+1) {
					t.Fatalf("%s chain %v: got %d->%d %v", form, chain, got.From, got.To, got.Assocs)
				}
				if grouped {
					checkGrouped(t, got)
				}
			}
		}
	}
}

// TestComposePathTakesOneMappingTwice composes a path that takes the same
// Mapping value twice in a row (a mapping within one source), in every
// form, against the reference.
func TestComposePathTakesOneMappingTwice(t *testing.T) {
	for seed := int64(1); seed <= 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		as := refAssocs(rng, 0, 6, 0, 6, 20)
		want := refComposePath([][]gam.Assoc{as, as, as})
		for _, form := range operandForms {
			m := operand(as, 1, form)
			m.To = m.From
			got, err := ComposePath(m, m, m)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.Assocs, want) {
				t.Fatalf("seed %d (%s):\n got %v\nwant %v", seed, form, got.Assocs, want)
			}
		}
	}
}

// TestComposeConcurrentPaths composes paths from many goroutines at once,
// through ComposePath and the executor's grouped fold, so pooled scratch
// moves between goroutines; each result must match its reference.
func TestComposeConcurrentPaths(t *testing.T) {
	const workers, rounds = 8, 40
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w + 1)))
			for r := 0; r < rounds; r++ {
				chain := refChain(rng, 2+rng.Intn(4))
				want := refComposePath(chain)
				maps := make([]*Mapping, len(chain))
				for i, as := range chain {
					maps[i] = operand(as, gam.SourceID(i+1), operandForms[rng.Intn(len(operandForms))])
				}
				got, err := composePath(maps, r%2 == 0)
				if err != nil {
					errc <- err
					return
				}
				if !slices.Equal(got.Assocs, want) {
					errc <- fmt.Errorf("worker %d, round %d:\n got %v\nwant %v", w, r, got.Assocs, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// composeFuzzEvidence is the evidence a fuzz record's selector byte picks:
// a fixed value, or the float64 in the record's next 8 bytes.
var composeFuzzEvidence = []float64{0, 1.0, 0.5, 2.0, -0.5, math.MaxFloat64, -math.MaxFloat64,
	math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1)}

// fuzzAssocs decodes a fuzz operand: records of a domain byte, a range
// byte and an evidence selector, the selector followed by 8 bytes of a
// float64 when it is past the fixed values. IDs are signed bytes (see
// fuzzID), so records meet often and negative IDs occur. Records past the
// 48th are ignored, which keeps the quadratic reference fast.
func fuzzAssocs(data []byte) ([]gam.Assoc, bool) {
	var out []gam.Assoc
	for len(data) >= 3 && len(out) < 48 {
		a := gam.Assoc{Object1: fuzzID(data[0]), Object2: fuzzID(data[1])}
		sel := int(data[2])
		data = data[3:]
		if sel < len(composeFuzzEvidence) {
			a.Evidence = composeFuzzEvidence[sel]
		} else if len(data) >= 8 {
			a.Evidence = math.Float64frombits(binary.LittleEndian.Uint64(data))
			data = data[8:]
		}
		if math.IsNaN(a.Evidence) {
			return nil, false
		}
		out = append(out, a)
	}
	return out, true
}

// fuzzID reads an ID byte as a signed byte. -100…100 stand for
// themselves, so records meet often and spans stay small; the rest stand
// for IDs spread over the whole int64 range, its two ends included, so
// that a right operand holding one is too sparse to address by position
// and is searched, and the span of its domains may overflow.
func fuzzID(b byte) gam.ObjectID {
	switch v := int64(int8(b)); {
	case v == math.MinInt8:
		return math.MinInt64
	case v == math.MaxInt8:
		return math.MaxInt64
	case v < -100:
		return gam.ObjectID((v + 100) << 56)
	case v > 100:
		return gam.ObjectID((v - 100) << 56)
	default:
		return gam.ObjectID(v)
	}
}

// FuzzCompose checks Compose against refCompose on arbitrary operands; the
// three-mapping path left ∘ right ∘ left, whose second join reads the
// first one's result out of the scratch, against refComposePath; and the
// four-mapping path left ∘ right ∘ left ∘ right, joined in the bracketing
// shape picks, against refComposeTree along the same bracketing.
// NaN evidence is skipped: evidence is ranked with <, under which NaN has
// no place, so no strongest evidence is defined for it.
func FuzzCompose(f *testing.F) {
	f.Add([]byte{}, []byte{}, byte(0))
	f.Add([]byte{1, 10, 0}, []byte{}, byte(1))
	f.Add([]byte{1, 10, 2}, []byte{10, 20, 0, 10, 20, 3}, byte(2)) // 0.5 against a fact and 2.0
	f.Add([]byte{1, 10, 1, 1, 10, 0, 2, 10, 1}, []byte{10, 20, 1, 10, 21, 0, 11, 20, 1}, byte(3))
	f.Add([]byte{1, 10, 5, 1, 11, 7, 255, 10, 6}, []byte{10, 20, 5, 11, 20, 7, 10, 20, 8, 10, 255, 9}, byte(4))
	f.Add([]byte{1, 10, 99, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f}, []byte{10, 20, 99, 1, 0, 0, 0, 0, 0, 0, 0}, byte(2))
	f.Add([]byte{1, 10, 0, 2, 127, 2}, []byte{10, 20, 2, 127, 21, 0, 128, 20, 1}, byte(0)) // right spans the int64 range
	f.Add([]byte{1, 10, 0, 2, 110, 2, 3, 11, 1}, []byte{10, 20, 2, 110, 21, 0, 11, 22, 1}, byte(1))
	shapes := bracketings(4)
	f.Fuzz(func(t *testing.T, left, right []byte, shape byte) {
		as1, ok1 := fuzzAssocs(left)
		as2, ok2 := fuzzAssocs(right)
		if !ok1 || !ok2 {
			t.Skip("NaN evidence")
		}
		want := refCompose(as1, as2)
		for _, f1 := range operandForms {
			for _, f2 := range operandForms {
				got, err := Compose(operand(as1, 1, f1), operand(as2, 2, f2))
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got.Assocs, want) {
					t.Fatalf("(%s, %s) %v ∘ %v:\n got %v\nwant %v", f1, f2, as1, as2, got.Assocs, want)
				}
			}
		}
		want3 := refComposePath([][]gam.Assoc{as1, as2, as1})
		for _, form := range operandForms {
			got, err := ComposePath(operand(as1, 1, form), operand(as2, 2, form), operand(as1, 3, form))
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.Assocs, want3) {
				t.Fatalf("(%s) %v ∘ %v ∘ %v:\n got %v\nwant %v", form, as1, as2, as1, got.Assocs, want3)
			}
		}
		chain := [][]gam.Assoc{as1, as2, as1, as2}
		split := shapes[int(shape)%len(shapes)]
		want4 := refComposeTree(chain, split, 0, 3)
		for _, form := range operandForms {
			maps := make([]*Mapping, len(chain))
			for i, as := range chain {
				maps[i] = operand(as, gam.SourceID(i+1), form)
			}
			if got := composeAlong(maps, split); !slices.Equal(got, want4) {
				t.Fatalf("(%s) %s of %v ∘ %v ∘ %v ∘ %v:\n got %v\nwant %v", form, brackets(split, 4, 0, 3), as1, as2, as1, as2, got, want4)
			}
		}
	})
}

// TestComposeUnderflowIsNotAFact composes chains of 1e-200 scores, whose
// products underflow, in every bracketing: each derives a score, the
// smallest nonzero float64, never 0 (a fact), and MinEvidence drops it.
func TestComposeUnderflowIsNotAFact(t *testing.T) {
	for hops := 2; hops <= 5; hops++ {
		chain := make([][]gam.Assoc, hops)
		for i := range chain {
			chain[i] = []gam.Assoc{{Object1: gam.ObjectID(i), Object2: gam.ObjectID(i + 1), Evidence: 1e-200}}
		}
		want := []gam.Assoc{{Object1: 0, Object2: gam.ObjectID(hops), Evidence: math.SmallestNonzeroFloat64}}
		for _, split := range bracketings(hops) {
			maps := make([]*Mapping, hops)
			for i, as := range chain {
				maps[i] = operand(as, gam.SourceID(i+1), "shared")
			}
			if got := composeAlong(maps, split); !slices.Equal(got, want) {
				t.Fatalf("%s: got %v, want %v", brackets(split, hops, 0, hops-1), got, want)
			}
			if ref := refComposeTree(chain, split, 0, hops-1); !slices.Equal(ref, want) {
				t.Fatalf("%s: reference %v, want %v", brackets(split, hops, 0, hops-1), ref, want)
			}
		}
		maps := make([]*Mapping, hops)
		for i, as := range chain {
			maps[i] = operand(as, gam.SourceID(i+1), "loaded")
		}
		m, err := ComposePath(maps...)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(m.Assocs, want) {
			t.Fatalf("%d hops: ComposePath = %v, want %v", hops, m.Assocs, want)
		}
		if kept := MinEvidence(m, 1e-300).Assocs; len(kept) != 0 {
			t.Fatalf("%d hops: MinEvidence(1e-300) keeps %v", hops, kept)
		}
	}
}

// fanChain is a four-mapping chain on which the left fold derives the most
// pairs: n domain objects meet 4 middle objects, each of which fans out to
// n/4 objects of the next source, and these fan back in, 4 ways, and on
// to 4 last objects. A join that takes the fan-out before the fan-in has
// collapsed it derives n²/4 pairs where the planned order derives about
// 5n.
func fanChain(n int) [][]gam.Assoc {
	chain := make([][]gam.Assoc, 4)
	for i := 0; i < n; i++ {
		chain[0] = append(chain[0], gam.Assoc{Object1: gam.ObjectID(i), Object2: 1000 + gam.ObjectID(i%4), Evidence: 0.5})
		chain[1] = append(chain[1], gam.Assoc{Object1: 1000 + gam.ObjectID(i/(n/4)), Object2: 2000 + gam.ObjectID(i), Evidence: 0.25})
		chain[2] = append(chain[2], gam.Assoc{Object1: 2000 + gam.ObjectID(i), Object2: 3000 + gam.ObjectID(i%4)})
	}
	for d := 0; d < 4; d++ {
		chain[3] = append(chain[3], gam.Assoc{Object1: 3000 + gam.ObjectID(d), Object2: 4000 + gam.ObjectID(d), Evidence: 0.75})
	}
	return chain
}

// derivedPairs composes maps[i..j] as split brackets them and returns the
// result with the number of pairs its joins derived before collapsing:
// for each join, the sum over the left operand's associations of the size
// of the right operand's group they meet.
func derivedPairs(t *testing.T, maps []*Mapping, split []int32, i, j int) (*Mapping, int) {
	t.Helper()
	if i == j {
		return maps[i], 0
	}
	k := int(split[i*len(maps)+j])
	l, nl := derivedPairs(t, maps, split, i, k)
	r, nr := derivedPairs(t, maps, split, k+1, j)
	group := make(map[gam.ObjectID]int)
	for _, a := range r.Assocs {
		group[a.Object1]++
	}
	n := nl + nr
	for _, a := range l.Assocs {
		n += group[a.Object2]
	}
	m, err := Compose(l, r)
	if err != nil {
		t.Fatal(err)
	}
	return m, n
}

// TestPlannerPicksFewestDerivedPairs counts, on fanChain, the pairs every
// bracketing derives: the left fold derives the most, and the planner
// picks a bracketing that derives the fewest.
func TestPlannerPicksFewestDerivedPairs(t *testing.T) {
	chain := fanChain(200)
	maps := make([]*Mapping, len(chain))
	for i, as := range chain {
		maps[i] = operand(as, gam.SourceID(i+1), "shared")
	}
	n := len(maps)
	count := func(split []int32) int {
		_, c := derivedPairs(t, maps, split, 0, n-1)
		return c
	}
	fewest, most := math.MaxInt, 0
	for _, split := range bracketings(n) {
		c := count(split)
		fewest, most = min(fewest, c), max(most, c)
	}
	plan := planOf(chain)
	if got, left := count(plan), count(leftFold(n)); got != fewest || left != most {
		t.Fatalf("planned %s derives %d pairs, left fold %d; fewest %d, most %d",
			brackets(plan, n, 0, n-1), got, left, fewest, most)
	}
}

var composeSink *Mapping

// BenchmarkCompose times ComposePath over generated chains of 2 to 4
// mappings, 2 000 objects a source and about 3 associations an object,
// with scored and unset evidence. "shared" operands are cached by an
// executor, as its MapPath meets them; "private" ones are in the order
// their caller built them. "fan" is fanChain of 2 000 objects, shared,
// composed in the planned order and, for comparison, left folded.
func BenchmarkCompose(b *testing.B) {
	for _, hops := range []int{2, 3, 4} {
		for _, form := range []string{"shared", "private"} {
			rng := rand.New(rand.NewSource(int64(hops)))
			const n = 2000
			maps := make([]*Mapping, hops)
			for i := range maps {
				as := make([]gam.Assoc, 0, 3*n)
				for j := 0; j < 3*n; j++ {
					as = append(as, gam.Assoc{
						Object1:  gam.ObjectID(n*i + rng.Intn(n)),
						Object2:  gam.ObjectID(n*(i+1) + rng.Intn(n)),
						Evidence: viewEvidence[rng.Intn(len(viewEvidence))],
					})
				}
				maps[i] = &Mapping{From: gam.SourceID(i + 1), To: gam.SourceID(i + 2), Type: gam.RelFact, Assocs: as}
				if form == "shared" {
					NewExecutor(nil).putEdge(edgeKey{rel: gam.SourceRelID(i)}, 0, maps[i])
				}
			}
			b.Run(fmt.Sprintf("hops=%d/%s", hops, form), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					m, err := ComposePath(maps...)
					if err != nil {
						b.Fatal(err)
					}
					composeSink = m
				}
			})
		}
	}
	chain := fanChain(2000)
	maps := make([]*Mapping, len(chain))
	for i, as := range chain {
		maps[i] = operand(as, gam.SourceID(i+1), "shared")
	}
	b.Run("fan/planned", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m, err := ComposePath(maps...)
			if err != nil {
				b.Fatal(err)
			}
			composeSink = m
		}
	})
	b.Run("fan/left-fold", func(b *testing.B) {
		b.ReportAllocs()
		s, split := new(composeScratch), leftFold(len(maps))
		for i := 0; i < b.N; i++ {
			s.group(maps)
			composeSink = &Mapping{Assocs: exact(s.eval(split, 0, len(maps)-1, 0).assocs)}
		}
	})
}
