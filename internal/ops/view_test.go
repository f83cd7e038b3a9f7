package ops

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"genmapper/internal/gam"
	"genmapper/internal/sqldb"
)

// viewUniverse is a small random repository for GenerateView: a view
// source S and four targets reached in four ways.
//   - T1: a mapping stored S -> T1.
//   - T2: a mapping stored T2 -> S, so every load flips it.
//   - T3: no direct mapping; the path S -> M -> T3 composes one.
//   - T4: a mapping S -> T4 with no associations.
//
// About a third of S's objects have no associations. Mappings repeat
// (Object1, Object2) pairs with mixed unset, scored and asserted-1.0
// evidence.
type viewUniverse struct {
	repo           *gam.Repo
	s, m           gam.SourceID
	t1, t2, t3, t4 gam.SourceID
	objs           map[gam.SourceID][]gam.ObjectID
	rng            *rand.Rand
}

var viewEvidence = []float64{0, 0, 0.3, 0.5, 0.8, 1.0, 1.0}

func newViewUniverse(t testing.TB, seed int64) *viewUniverse {
	t.Helper()
	repo, err := gam.Open(sqldb.NewDB())
	if err != nil {
		t.Fatal(err)
	}
	u := &viewUniverse{repo: repo, objs: make(map[gam.SourceID][]gam.ObjectID), rng: rand.New(rand.NewSource(seed))}
	source := func(name string, n int) gam.SourceID {
		src, _, err := repo.EnsureSource(gam.Source{Name: name})
		if err != nil {
			t.Fatal(err)
		}
		specs := make([]gam.ObjectSpec, n)
		for i := range specs {
			specs[i] = gam.ObjectSpec{Accession: fmt.Sprintf("%s-%d", name, i)}
		}
		ids, _, err := repo.EnsureObjects(src.ID, specs)
		if err != nil {
			t.Fatal(err)
		}
		u.objs[src.ID] = ids
		return src.ID
	}
	u.s = source("S", 12+u.rng.Intn(14))
	u.m = source("M", 5+u.rng.Intn(8))
	u.t1 = source("T1", 4+u.rng.Intn(10))
	u.t2 = source("T2", 4+u.rng.Intn(10))
	u.t3 = source("T3", 4+u.rng.Intn(10))
	u.t4 = source("T4", 3)
	store := func(from, to gam.SourceID, assocs []gam.Assoc) {
		rel, _, err := repo.EnsureSourceRel(from, to, gam.RelFact)
		if err != nil {
			t.Fatal(err)
		}
		if len(assocs) == 0 {
			return
		}
		if _, err := repo.AddAssociations(rel, assocs, false); err != nil {
			t.Fatal(err)
		}
	}
	store(u.s, u.t1, u.assocs(u.s, u.t1))
	store(u.t2, u.s, flip(u.assocs(u.s, u.t2)))
	store(u.s, u.m, u.assocs(u.s, u.m))
	store(u.m, u.t3, u.assocs(u.m, u.t3))
	store(u.s, u.t4, nil)
	return u
}

// assocs draws a random association set from the first two thirds of
// from's objects to to's objects, with repeated pairs.
func (u *viewUniverse) assocs(from, to gam.SourceID) []gam.Assoc {
	fo, tobj := u.objs[from], u.objs[to]
	domain := fo[:max(1, 2*len(fo)/3)]
	var out []gam.Assoc
	for i, n := 0, u.rng.Intn(3*len(fo)); i < n; i++ {
		a := gam.Assoc{
			Object1:  domain[u.rng.Intn(len(domain))],
			Object2:  tobj[u.rng.Intn(len(tobj))],
			Evidence: viewEvidence[u.rng.Intn(len(viewEvidence))],
		}
		out = append(out, a)
		for u.rng.Intn(3) == 0 { // the same pair again, other evidence
			a.Evidence = viewEvidence[u.rng.Intn(len(viewEvidence))]
			out = append(out, a)
		}
	}
	return out
}

func flip(assocs []gam.Assoc) []gam.Assoc {
	out := make([]gam.Assoc, len(assocs))
	for i, a := range assocs {
		out[i] = gam.Assoc{Object1: a.Object2, Object2: a.Object1, Evidence: a.Evidence}
	}
	return out
}

func (u *viewUniverse) path3() []gam.SourceID { return []gam.SourceID{u.s, u.m, u.t3} }

// pathFind is the path search an Executor.Resolver falls back on.
func (u *viewUniverse) pathFind(from, to gam.SourceID) []gam.SourceID {
	if from == u.s && to == u.t3 {
		return u.path3()
	}
	return nil
}

// plainResolver resolves like Executor.Resolver with plain ops and no cache.
func (u *viewUniverse) plainResolver() Resolver {
	return func(s, t gam.SourceID) (*Mapping, error) {
		m, err := Map(u.repo, s, t)
		if errors.Is(err, ErrNoMapping) {
			if p := u.pathFind(s, t); p != nil {
				return MapPath(u.repo, p)
			}
		}
		return m, err
	}
}

// subset draws a random subset of ids; it may be empty.
func (u *viewUniverse) subset(ids []gam.ObjectID) ObjectSet {
	set := make(ObjectSet)
	for _, id := range ids {
		if u.rng.Intn(2) == 0 {
			set[id] = true
		}
	}
	return set
}

// viewQuery is one random GenerateView call.
type viewQuery struct {
	sSet    ObjectSet
	targets []TargetSpec
	mode    Combine
	via     []bool // target i takes an explicit path
}

func (u *viewUniverse) query() viewQuery {
	var q viewQuery
	switch u.rng.Intn(6) {
	case 0, 1:
		// nil: the whole source
	case 2:
		q.sSet = ObjectSet{} // no source objects at all
	default:
		q.sSet = u.subset(u.objs[u.s])
	}
	q.mode = Combine(u.rng.Intn(2))
	tgts := []gam.SourceID{u.t1, u.t2, u.t3, u.t4}
	for i, n := 0, 1+u.rng.Intn(3); i < n; i++ {
		spec := TargetSpec{
			Source:      tgts[u.rng.Intn(len(tgts))],
			Negate:      u.rng.Intn(3) == 0,
			MinEvidence: []float64{0, 0.5, 1.0, 1.5}[u.rng.Intn(4)],
		}
		if u.rng.Intn(2) == 0 {
			spec.Restrict = u.subset(u.objs[spec.Source])
		}
		q.targets = append(q.targets, spec)
		q.via = append(q.via, spec.Source == u.t3 && u.rng.Intn(2) == 0)
	}
	return q
}

// specs returns q's targets with explicit paths taken by via: the plain
// way (ops.MapPath, through TargetSpec.Path) or the executor's
// (MapPathShared, through TargetSpec.Mapping). The direct resolver needs
// a path for T3 whatever via says.
func (u *viewUniverse) specs(t testing.TB, q viewQuery, e *Executor, direct bool) []TargetSpec {
	out := slices.Clone(q.targets)
	for i := range out {
		if out[i].Source != u.t3 || !(q.via[i] || direct) {
			continue
		}
		if e == nil {
			out[i].Path = u.path3()
			continue
		}
		m, err := e.MapPathShared(u.path3())
		if err != nil {
			t.Fatal(err)
		}
		out[i].Mapping = m
	}
	return out
}

func describe(q viewQuery) string {
	var sb strings.Builder
	sSet := "all"
	if q.sSet != nil {
		sSet = fmt.Sprint(q.sSet.Sorted())
	}
	fmt.Fprintf(&sb, "mode=%v sSet=%s", q.mode, sSet)
	for i, t := range q.targets {
		restrict := "all"
		if t.Restrict != nil {
			restrict = fmt.Sprint(t.Restrict.Sorted())
		}
		fmt.Fprintf(&sb, "\n  target %d: source=%d negate=%v restrict=%s min=%v via=%v",
			i, t.Source, t.Negate, restrict, t.MinEvidence, q.via[i])
	}
	return sb.String()
}

// TestGenerateViewMatchesPrior checks GenerateView against the
// implementation it replaced (generateViewPrior) on random repositories:
// the same rows in the same order, through the direct resolver, a cold
// executor, a warm one, and a warm one after ReplaceMapping.
func TestGenerateViewMatchesPrior(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		u := newViewUniverse(t, seed)
		e := NewExecutor(u.repo)
		check := func(stage string, q viewQuery) {
			t.Helper()
			want, err := generateViewPrior(u.repo, u.s, q.sSet, u.specs(t, q, nil, true), q.mode, u.plainResolver())
			if err != nil {
				t.Fatalf("seed %d %s: prior: %v", seed, stage, err)
			}
			var got *View
			if stage == "direct" {
				got, err = GenerateView(u.repo, u.s, q.sSet, u.specs(t, q, nil, true), q.mode, nil)
			} else {
				got, err = GenerateView(u.repo, u.s, q.sSet, u.specs(t, q, e, false), q.mode, e.Resolver(u.pathFind))
			}
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, stage, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d %s: %s\n got %v\nwant %v", seed, stage, describe(q), got.Rows, want.Rows)
			}
		}
		for i := 0; i < 4; i++ {
			q := u.query()
			check("direct", q)
			e.Reset()
			check("cold", q)
			check("warm", q)
		}
		if _, err := u.repo.ReplaceMapping(u.s, u.t1, gam.RelFact, u.assocs(u.s, u.t1)); err != nil {
			t.Fatal(err)
		}
		if _, err := u.repo.ReplaceMapping(u.s, u.m, gam.RelFact, u.assocs(u.s, u.m)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			q := u.query()
			check("replaced", q)
			check("replaced-warm", q)
		}
	}
}

// TestDomainIndexKeepsFactsApart pins the evidence rule the index keeps
// per pair: an unset evidence (a curated fact) outranks any score, so a
// fact with a weaker duplicate passes every MinEvidence, while an
// asserted 1.0 drops out above 1.0.
func TestDomainIndexKeepsFactsApart(t *testing.T) {
	m := &Mapping{From: 1, To: 2, Assocs: []gam.Assoc{
		{Object1: 10, Object2: 21, Evidence: 0.4},
		{Object1: 10, Object2: 20, Evidence: 0.5},
		{Object1: 10, Object2: 20}, // the fact outranks 0.5
		{Object1: 10, Object2: 20, Evidence: 0.9},
		{Object1: 11, Object2: 20, Evidence: 1.0},
		{Object1: 11, Object2: 20, Evidence: 0.6},
	}}
	ix := m.domainIndex(nil)
	want := &domainIndex{
		domains: []gam.ObjectID{10, 11},
		offs:    []int32{0, 2, 3},
		targets: []indexTarget{{20, 0}, {21, 0.4}, {20, 1.0}},
	}
	if !reflect.DeepEqual(ix, want) {
		t.Fatalf("index = %+v, want %+v", ix, want)
	}
	v, err := GenerateView(nil, 1, NewObjectSet(10, 11, 12),
		[]TargetSpec{{Source: 2, Mapping: m, MinEvidence: 1.5}}, CombineOR, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(v.Rows), "[[10 20] [11 0] [12 0]]"; got != want {
		t.Fatalf("rows = %s, want %s", got, want)
	}
}

// cachedMappings snapshots every mapping in the executor's edge table and
// path LRU, keyed "edge <rel>/<reversed>" and "path <signature>".
func cachedMappings(e *Executor) map[string]*Mapping {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[string]*Mapping)
	for k, m := range e.edges {
		out[fmt.Sprintf("edge %d/%v", k.rel, k.reversed)] = m
	}
	e.paths.Range(func(k string, ent *cacheEntry) bool {
		out["path "+k] = ent.m
		return true
	})
	return out
}

func sortedAssocs(as []gam.Assoc) []gam.Assoc {
	out := slices.Clone(as)
	slices.SortFunc(out, func(a, b gam.Assoc) int {
		switch {
		case a.Object1 != b.Object1:
			return int(a.Object1 - b.Object1)
		case a.Object2 != b.Object2:
			return int(a.Object2 - b.Object2)
		case a.Evidence < b.Evidence:
			return -1
		case a.Evidence > b.Evidence:
			return 1
		}
		return 0
	})
	return out
}

// TestSharedMappingsStayPristine runs warm views with negation, Restrict
// and MinEvidence over the executor's shared mappings, then checks that
// every cached edge and path is exactly what it was when cached, and holds
// the associations a fresh load returns.
func TestSharedMappingsStayPristine(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		u := newViewUniverse(t, seed)
		e := NewExecutor(u.repo)
		queries := make([]viewQuery, 8)
		for i := range queries {
			queries[i] = u.query()
		}
		// queries[0] takes every target, negated and restricted, so every
		// edge and path is cached and indexed.
		queries[0].mode = CombineOR
		queries[0].targets = nil
		for _, src := range []gam.SourceID{u.t1, u.t2, u.t3, u.t4} {
			queries[0].targets = append(queries[0].targets, TargetSpec{Source: src, Negate: true,
				Restrict: u.subset(u.objs[src]), MinEvidence: 1.5})
		}
		queries[0].via = []bool{false, false, true, false}
		run := func() {
			for _, q := range queries {
				if _, err := GenerateView(u.repo, u.s, q.sSet, u.specs(t, q, e, false), q.mode, e.Resolver(u.pathFind)); err != nil {
					t.Fatal(err)
				}
			}
		}
		run()
		cached := cachedMappings(e)
		before := make(map[string]Mapping, len(cached))
		for k, m := range cached {
			before[k] = Mapping{Rel: m.Rel, From: m.From, To: m.To, Type: m.Type, Assocs: slices.Clone(m.Assocs)}
		}
		run()
		run()
		for k, m := range cachedMappings(e) {
			if m != cached[k] {
				t.Fatalf("seed %d: %s was re-cached without a write", seed, k)
			}
			if m.index == nil {
				t.Fatalf("seed %d: cached %s has no index slot", seed, k)
			}
			b := before[k]
			if m.Rel != b.Rel || m.From != b.From || m.To != b.To || m.Type != b.Type || !slices.Equal(m.Assocs, b.Assocs) {
				t.Fatalf("seed %d: cached %s changed under GenerateView", seed, k)
			}
			var fresh *Mapping
			var err error
			if strings.HasPrefix(k, "path ") {
				fresh, err = MapPath(u.repo, u.path3())
			} else {
				fresh, err = Map(u.repo, m.From, m.To)
			}
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(sortedAssocs(m.Assocs), sortedAssocs(fresh.Assocs)) {
				t.Fatalf("seed %d: cached %s differs from a fresh load", seed, k)
			}
		}
		if len(cached) < 6 {
			t.Fatalf("seed %d: %d cached mappings, want every edge and the path", seed, len(cached))
		}
	}
}

// TestSharedIndexBesideReplaceMapping runs GenerateView from many
// goroutines over one just-cached path, while a writer replaces the
// mappings it was composed from. Every caller sees the same index and the
// same rows; the writer changes the repository, never the shared value.
func TestSharedIndexBesideReplaceMapping(t *testing.T) {
	u := newViewUniverse(t, 3)
	e := NewExecutor(u.repo)
	shared, err := e.MapPathShared(u.path3())
	if err != nil {
		t.Fatal(err)
	}
	plain, err := MapPath(u.repo, u.path3())
	if err != nil {
		t.Fatal(err)
	}
	spec := TargetSpec{Source: u.t3, MinEvidence: 0.5}
	spec.Mapping = plain
	want, err := generateViewPrior(u.repo, u.s, nil, []TargetSpec{spec}, CombineOR, nil)
	if err != nil {
		t.Fatal(err)
	}
	spec.Mapping = shared
	before := slices.Clone(shared.Assocs)

	const readers, rounds = 8, 20
	seen := make([][]*domainIndex, readers)
	errs := make(chan error, readers+1)
	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		rng := rand.New(rand.NewSource(9))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			assocs := []gam.Assoc{{Object1: u.objs[u.s][rng.Intn(3)], Object2: u.objs[u.m][i%len(u.objs[u.m])]}}
			if _, err := u.repo.ReplaceMapping(u.s, u.m, gam.RelFact, assocs); err != nil {
				errs <- err
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				v, err := GenerateView(u.repo, u.s, nil, []TargetSpec{spec}, CombineOR, nil)
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(v.Rows, want.Rows) {
					errs <- fmt.Errorf("reader %d round %d: rows changed under the writer", r, i)
					return
				}
				seen[r] = append(seen[r], shared.domainIndex(nil))
				// The resolver path re-resolves the edge the writer replaces.
				if _, err := GenerateView(u.repo, u.s, nil, []TargetSpec{{Source: u.t3}}, CombineAND, e.Resolver(u.pathFind)); err != nil {
					errs <- err
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(stop)
	writer.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	first := seen[0][0]
	for r := range seen {
		for _, ix := range seen[r] {
			if ix != first {
				t.Fatalf("reader %d saw index %p, want %p", r, ix, first)
			}
		}
	}
	if !slices.Equal(shared.Assocs, before) {
		t.Fatal("the shared path changed under the writer")
	}
}

// A whole-source view sorts the IDs its scan yields when they do not
// ascend: an object written around gam under an ID below the source's
// others comes last in storage order. The view equals the one over the
// same IDs passed as an explicit set.
func TestGenerateViewWholeSourceSortsScan(t *testing.T) {
	db := sqldb.NewDB()
	t.Cleanup(func() { db.Close() })
	repo, err := gam.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	a, _, _ := repo.EnsureSource(gam.Source{Name: "A"})
	b, _, _ := repo.EnsureSource(gam.Source{Name: "B"})
	insert := func(id gam.ObjectID, src gam.SourceID, acc string) {
		t.Helper()
		if _, err := db.Exec("INSERT INTO object (object_id, source_id, accession) VALUES (?, ?, ?)",
			int64(id), int64(src), acc); err != nil {
			t.Fatal(err)
		}
	}
	// B's object at 100 moves the AUTOINCREMENT counter past 50.
	insert(100, b.ID, "b0")
	ids, _, err := repo.EnsureObjects(a.ID, []gam.ObjectSpec{{Accession: "a1"}, {Accession: "a2"}, {Accession: "a3"}})
	if err != nil || ids[0] <= 50 {
		t.Fatalf("EnsureObjects = %v, %v; want IDs above 50", ids, err)
	}
	insert(50, a.ID, "early")
	if err := repo.Reload(); err != nil {
		t.Fatal(err)
	}
	bIDs, _, err := repo.EnsureObjects(b.ID, []gam.ObjectSpec{{Accession: "b0"}, {Accession: "b1"}})
	if err != nil || bIDs[0] != 100 {
		t.Fatalf("B's objects = %v, %v", bIDs, err)
	}
	rel, _, err := repo.EnsureSourceRel(a.ID, b.ID, gam.RelFact)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := repo.AddAssociations(rel, []gam.Assoc{
		{Object1: 50, Object2: bIDs[1]}, {Object1: 50, Object2: bIDs[0]},
		{Object1: ids[0], Object2: bIDs[0]}, {Object1: ids[2], Object2: bIDs[1]},
	}, false); err != nil {
		t.Fatal(err)
	}

	var scanned []gam.ObjectID
	if err := repo.ObjectsScanEach(a.ID, func(o *gam.Object) error {
		scanned = append(scanned, o.ID)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if slices.IsSorted(scanned) {
		t.Fatalf("the scan yields %v, ascending: nothing to sort", scanned)
	}
	targets := []TargetSpec{{Source: b.ID}}
	for _, mode := range []Combine{CombineOR, CombineAND} {
		whole, err := GenerateView(repo, a.ID, nil, targets, mode, nil)
		if err != nil {
			t.Fatal(err)
		}
		explicit, err := GenerateView(repo, a.ID, NewObjectSet(scanned...), targets, mode, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.IsSortedFunc(whole.Rows, func(x, y ViewRow) int { return slices.Compare(x, y) }) {
			t.Fatalf("%v: whole-source rows %v are not sorted", mode, whole.Rows)
		}
		if !reflect.DeepEqual(whole, explicit) {
			t.Fatalf("%v: whole-source view %v, explicit-set view %v", mode, whole.Rows, explicit.Rows)
		}
		if mode == CombineOR && whole.Rows[0][0] != 50 {
			t.Fatalf("OR view starts with %v, want object 50", whole.Rows[0])
		}
	}
}
