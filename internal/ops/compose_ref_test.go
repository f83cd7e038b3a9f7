package ops

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"genmapper/internal/gam"
	"genmapper/internal/sqldb"
)

// refCompose is Compose from its definitions, over mappings read as sets
// of (Object1, Object2, evidence) and with nested loops only. Two
// associations that meet in a middle object derive the pair of their ends.
// A derivation's evidence is the product of its two evidences, where an
// unset evidence (0, a curated fact) is the identity. The derived pairs
// collapse as refDedup says.
func refCompose(as1, as2 []gam.Assoc) []gam.Assoc {
	var derived []gam.Assoc
	for _, a1 := range as1 {
		for _, a2 := range as2 {
			if a1.Object2 != a2.Object1 {
				continue
			}
			ev := a1.Evidence * a2.Evidence
			if a1.Evidence == 0 {
				ev = a2.Evidence
			} else if a2.Evidence == 0 {
				ev = a1.Evidence
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

// refComposePath folds refCompose over a chain of association lists.
func refComposePath(chain [][]gam.Assoc) []gam.Assoc {
	acc := chain[0]
	for _, next := range chain[1:] {
		acc = refCompose(acc, next)
	}
	return acc
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
		NewExecutor(nil).put(fmt.Sprint(from), 0, m)
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
// left fold: the two derive the same evidence even outside [0, 1].
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
			if _, err := repo.ReplaceMapping(s, t2, gam.RelFact, stored); err != nil {
				t.Fatal(err)
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

// composeFuzzEvidence is the evidence a fuzz record's selector byte picks:
// a fixed value, or the float64 in the record's next 8 bytes.
var composeFuzzEvidence = []float64{0, 1.0, 0.5, 2.0, -0.5, math.MaxFloat64, -math.MaxFloat64,
	math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1)}

// fuzzAssocs decodes a fuzz operand: records of a domain byte, a range
// byte and an evidence selector, the selector followed by 8 bytes of a
// float64 when it is past the fixed values. IDs are signed bytes, so
// records meet often and negative IDs occur. Records past the 48th are
// ignored, which keeps the quadratic reference fast.
func fuzzAssocs(data []byte) ([]gam.Assoc, bool) {
	var out []gam.Assoc
	for len(data) >= 3 && len(out) < 48 {
		a := gam.Assoc{Object1: gam.ObjectID(int8(data[0])), Object2: gam.ObjectID(int8(data[1]))}
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

// FuzzCompose checks Compose against refCompose on arbitrary operands. NaN
// evidence is skipped: evidence is ranked with <, under which NaN has no
// place, so no strongest evidence is defined for it.
func FuzzCompose(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{1, 10, 0}, []byte{})
	f.Add([]byte{1, 10, 2}, []byte{10, 20, 0, 10, 20, 3}) // 0.5 against a fact and 2.0
	f.Add([]byte{1, 10, 1, 1, 10, 0, 2, 10, 1}, []byte{10, 20, 1, 10, 21, 0, 11, 20, 1})
	f.Add([]byte{1, 10, 5, 1, 11, 7, 255, 10, 6}, []byte{10, 20, 5, 11, 20, 7, 10, 20, 8, 10, 255, 9})
	f.Add([]byte{1, 10, 99, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f}, []byte{10, 20, 99, 1, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, left, right []byte) {
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
	})
}

var composeSink *Mapping

// BenchmarkCompose times ComposePath's left fold of Compose over generated
// chains of 2 to 4 mappings, 2 000 objects a source and about 3
// associations an object, with scored and unset evidence. "shared"
// operands are cached by an executor, as its MapPath meets them;
// "private" ones are in the order their caller built them.
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
					NewExecutor(nil).put(fmt.Sprint(i), 0, maps[i])
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
}
