package ops

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"genmapper/internal/gam"
	"genmapper/internal/sqldb"
)

// chainFixture builds a linear chain of n sources S0 -> S1 -> ... -> Sn-1
// with objPer objects each and a Fact mapping between neighbours. Object i
// of a source maps to objects i and (i+3)%objPer of the next, with a mix
// of unset and fractional evidence.
type chainFixture struct {
	repo    *gam.Repo
	sources []*gam.Source
	objs    [][]gam.ObjectID
}

func newChainFixture(t testing.TB, n, objPer int) *chainFixture {
	t.Helper()
	repo, err := gam.Open(sqldb.NewDB())
	if err != nil {
		t.Fatal(err)
	}
	f := &chainFixture{repo: repo}
	for i := 0; i < n; i++ {
		src, _, err := repo.EnsureSource(gam.Source{Name: fmt.Sprintf("S%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		specs := make([]gam.ObjectSpec, objPer)
		for j := range specs {
			specs[j] = gam.ObjectSpec{Accession: fmt.Sprintf("s%d-o%d", i, j)}
		}
		ids, _, err := repo.EnsureObjects(src.ID, specs)
		if err != nil {
			t.Fatal(err)
		}
		f.sources = append(f.sources, src)
		f.objs = append(f.objs, ids)
	}
	for i := 0; i+1 < n; i++ {
		rel, _, err := repo.EnsureSourceRel(f.sources[i].ID, f.sources[i+1].ID, gam.RelFact)
		if err != nil {
			t.Fatal(err)
		}
		var assocs []gam.Assoc
		for j := 0; j < objPer; j++ {
			ev := 0.0
			if j%2 == 1 {
				ev = 0.5 + float64(j%5)/10
			}
			assocs = append(assocs,
				gam.Assoc{Object1: f.objs[i][j], Object2: f.objs[i+1][j], Evidence: ev},
				gam.Assoc{Object1: f.objs[i][j], Object2: f.objs[i+1][(j+3)%objPer]})
		}
		if _, err := repo.AddAssociations(rel, assocs, false); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

func (f *chainFixture) path() []gam.SourceID {
	out := make([]gam.SourceID, len(f.sources))
	for i, s := range f.sources {
		out[i] = s.ID
	}
	return out
}

// assocSet reduces a mapping to its set of (Object1, Object2) pairs.
func assocSet(m *Mapping) map[[2]gam.ObjectID]float64 {
	out := make(map[[2]gam.ObjectID]float64, len(m.Assocs))
	for _, a := range m.Assocs {
		out[[2]gam.ObjectID{a.Object1, a.Object2}] = a.Evidence
	}
	return out
}

func TestExecutorMapMatchesOps(t *testing.T) {
	f := newChainFixture(t, 3, 10)
	e := NewExecutor(f.repo)
	for _, dir := range [][2]int{{0, 1}, {1, 0}} { // stored and reversed
		want, err := Map(f.repo, f.sources[dir[0]].ID, f.sources[dir[1]].ID)
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.Map(f.sources[dir[0]].ID, f.sources[dir[1]].ID)
		if err != nil {
			t.Fatal(err)
		}
		if got.From != want.From || got.To != want.To || len(got.Assocs) != len(want.Assocs) {
			t.Fatalf("executor Map %v = %+v, want %+v", dir, got, want)
		}
		ws, gs := assocSet(want), assocSet(got)
		for k, v := range ws {
			if gs[k] != v {
				t.Fatalf("executor Map %v: pair %v evidence %v, want %v", dir, k, gs[k], v)
			}
		}
	}
}

func TestExecutorMapPathMatchesSequential(t *testing.T) {
	for _, hops := range []int{2, 3, 4, 6} {
		f := newChainFixture(t, hops+1, 12)
		e := NewExecutor(f.repo)
		want, err := MapPath(f.repo, f.path())
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.MapPath(f.path())
		if err != nil {
			t.Fatal(err)
		}
		if got.From != want.From || got.To != want.To {
			t.Fatalf("%d hops: endpoints %d->%d, want %d->%d", hops, got.From, got.To, want.From, want.To)
		}
		// Both come out sorted, so they match slice for slice.
		if !slices.Equal(got.Assocs, want.Assocs) {
			t.Fatalf("%d hops: %v, want %v", hops, got.Assocs, want.Assocs)
		}
		// A second run must be answered from the path cache.
		st := e.Stats()
		if _, err := e.MapPath(f.path()); err != nil {
			t.Fatal(err)
		}
		st2 := e.Stats()
		if st2.Hits != st.Hits+1 || st2.Misses != st.Misses {
			t.Fatalf("%d hops: warm run stats %+v -> %+v, want one new hit", hops, st, st2)
		}
	}
}

// A path that takes one mapping twice in the same direction loads it once
// and composes as ops.MapPath does.
func TestExecutorPathTakesOneMappingTwice(t *testing.T) {
	f := newChainFixture(t, 2, 9)
	e := NewExecutor(f.repo)
	a, b := f.sources[0].ID, f.sources[1].ID
	path := []gam.SourceID{a, b, a, b}
	want, err := MapPath(f.repo, path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.MapPathShared(path)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Assocs, want.Assocs) {
		t.Fatalf("%v, want %v", got.Assocs, want.Assocs)
	}
	if n := len(e.edges); n != 2 {
		t.Fatalf("edge table holds %d edges, want 2 (one mapping, both directions)", n)
	}
	if st := e.Stats(); st.Misses != 4 {
		t.Fatalf("stats %+v, want 4 misses (the path and its three steps)", st)
	}
}

func TestExecutorCacheCounters(t *testing.T) {
	f := newChainFixture(t, 4, 8)
	e := NewExecutor(f.repo)
	if _, err := e.MapPath(f.path()); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	// Cold: one path miss + three edge misses, zero hits.
	if st.Hits != 0 || st.Misses != 4 {
		t.Fatalf("cold stats = %+v, want 0 hits / 4 misses", st)
	}
	if st.Entries != 4 {
		t.Fatalf("cold entries = %d, want 4 (3 edges + 1 path)", st.Entries)
	}
	if edges, paths := len(e.edges), e.paths.Len(); edges != 3 || paths != 1 {
		t.Fatalf("cold tables hold %d edges and %d paths, want 3 and 1", edges, paths)
	}
	// An edge of the cached path is also served warm.
	if _, err := e.Map(f.sources[0].ID, f.sources[1].ID); err != nil {
		t.Fatal(err)
	}
	st = e.Stats()
	if st.Hits != 1 || st.Misses != 4 {
		t.Fatalf("edge reuse stats = %+v, want 1 hit / 4 misses", st)
	}
}

func TestExecutorCacheInvalidationOnMaterialize(t *testing.T) {
	f := newChainFixture(t, 3, 6)
	e := NewExecutor(f.repo)
	path := f.path()
	before, err := e.MapPath(path)
	if err != nil {
		t.Fatal(err)
	}
	// Materialize a different composed mapping: a repo write that must
	// invalidate every cached entry (the composed S0->S2 mapping now
	// resolves directly and could differ from the cached composition).
	derived := &Mapping{From: f.sources[0].ID, To: f.sources[2].ID, Assocs: []gam.Assoc{
		{Object1: f.objs[0][0], Object2: f.objs[2][5]},
	}}
	if _, err := Materialize(f.repo, derived); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	after, err := e.MapPath(path)
	if err != nil {
		t.Fatal(err)
	}
	if e.Stats().Hits != st.Hits {
		t.Fatal("MapPath after Materialize served from stale cache")
	}
	if len(after.Assocs) != len(before.Assocs) {
		t.Fatalf("recomputed path changed size: %d -> %d", len(before.Assocs), len(after.Assocs))
	}
	// The direct S0->S2 lookup must see the freshly materialized mapping,
	// not any stale entry.
	m, err := e.Map(f.sources[0].ID, f.sources[2].ID)
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != gam.RelComposed || len(m.Assocs) != 1 || m.Assocs[0].Object2 != f.objs[2][5] {
		t.Fatalf("direct lookup after Materialize = %+v, want the materialized mapping", m)
	}
}

func TestExecutorCacheInvalidationOnDelete(t *testing.T) {
	f := newChainFixture(t, 3, 6)
	e := NewExecutor(f.repo)
	derived, err := e.MapPath(f.path())
	if err != nil {
		t.Fatal(err)
	}
	rel, err := Materialize(f.repo, derived)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the direct-edge cache with the materialized mapping...
	if _, err := e.Map(f.sources[0].ID, f.sources[2].ID); err != nil {
		t.Fatal(err)
	}
	// ...then delete it. The executor must not serve the deleted mapping.
	if err := f.repo.DeleteMapping(rel); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Map(f.sources[0].ID, f.sources[2].ID); err == nil {
		t.Fatal("executor served a deleted mapping from cache")
	}
	// The path composition still works, recomputed at the new generation.
	if _, err := e.MapPath(f.path()); err != nil {
		t.Fatal(err)
	}
}

// TestExecutorLRUBound checks the executor's two bounds: composed paths
// stay within the LRU's capacity, and loaded edges stay at one per stored
// mapping and direction at the current generation, however many paths
// pass through them.
func TestExecutorLRUBound(t *testing.T) {
	f := newChainFixture(t, 6, 4)
	e := newExecutor(f.repo, 2)
	path := f.path()
	for i := 0; i+1 < len(path); i++ {
		if _, err := e.Map(path[i], path[i+1]); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Map(path[i+1], path[i]); err != nil {
			t.Fatal(err)
		}
		for j := i + 2; j < len(path); j++ {
			if _, err := e.MapPathShared(path[i : j+1]); err != nil {
				t.Fatal(err)
			}
		}
	}
	rels := len(path) - 1
	if n := e.paths.Len(); n > 2 {
		t.Fatalf("path LRU grew to %d entries with capacity 2", n)
	}
	if n := len(e.edges); n != 2*rels {
		t.Fatalf("edge table holds %d edges, want %d (%d mappings, both directions)", n, 2*rels, rels)
	}
	if e.edgeGen != f.repo.Generation() {
		t.Fatalf("edge table at generation %d, repository at %d", e.edgeGen, f.repo.Generation())
	}
}

// TestPathsDoNotEvictEdges composes more distinct paths than a capacity-2
// executor keeps, all over the same four edges. After the first round no
// edge is loaded again: every later lookup misses only on its path, and
// every edge of it is the mapping loaded in the first round.
func TestPathsDoNotEvictEdges(t *testing.T) {
	f := newChainFixture(t, 5, 6)
	e := newExecutor(f.repo, 2)
	all := f.path()
	var paths [][]gam.SourceID
	for i := 0; i+2 < len(all); i++ {
		for j := i + 2; j < len(all); j++ {
			paths = append(paths, all[i:j+1])
		}
	}
	edges := 0
	for _, p := range paths {
		edges += len(p) - 1
	}
	round := func() {
		for _, p := range paths {
			if _, err := e.MapPathShared(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	round()
	first := make([]*Mapping, len(all)-1)
	for i := range first {
		m, err := e.mapShared(all[i], all[i+1])
		if err != nil {
			t.Fatal(err)
		}
		first[i] = m
	}
	for r := 0; r < 3; r++ {
		st := e.Stats()
		round()
		st2 := e.Stats()
		// Six paths cycle through an LRU of two, so every path misses; its
		// edges must all hit.
		if misses, hits := st2.Misses-st.Misses, st2.Hits-st.Hits; misses != uint64(len(paths)) || hits != uint64(edges) {
			t.Fatalf("round %d: %d misses and %d hits, want %d path misses and %d edge hits",
				r, misses, hits, len(paths), edges)
		}
	}
	for i := range first {
		m, err := e.mapShared(all[i], all[i+1])
		if err != nil {
			t.Fatal(err)
		}
		if m != first[i] {
			t.Fatalf("edge %d was loaded again", i)
		}
	}
}

// TestEdgeTableFollowsGeneration checks that the edge table belongs to
// one repository generation: a write makes the next lookup load the new
// rows, the table then holds only entries loaded at the current
// generation, many writes leave at most one entry per stored mapping and
// direction, and a load begun before a write installs nothing.
func TestEdgeTableFollowsGeneration(t *testing.T) {
	f := newChainFixture(t, 4, 6)
	e := NewExecutor(f.repo)
	path := f.path()
	reversed := slices.Clone(path)
	slices.Reverse(reversed)
	if _, err := e.MapPathShared(path); err != nil {
		t.Fatal(err)
	}
	if _, err := e.MapPathShared(reversed); err != nil {
		t.Fatal(err)
	}
	matches := func(stage string, s, t2 gam.SourceID) {
		t.Helper()
		got, err := e.mapShared(s, t2)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Map(f.repo, s, t2)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Assocs, want.Assocs) {
			t.Fatalf("%s: edge %d->%d = %v, want %v", stage, s, t2, got.Assocs, want.Assocs)
		}
	}
	current := func(stage string) {
		t.Helper()
		gen := f.repo.Generation()
		if e.edgeGen != gen {
			t.Fatalf("%s: edge table at generation %d, repository at %d", stage, e.edgeGen, gen)
		}
		rels, err := f.repo.SourceRels()
		if err != nil {
			t.Fatal(err)
		}
		if len(e.edges) > 2*len(rels) {
			t.Fatalf("%s: edge table holds %d edges for %d mappings", stage, len(e.edges), len(rels))
		}
		for k := range e.edges {
			if !slices.ContainsFunc(rels, func(r *gam.SourceRel) bool { return r.ID == k.rel }) {
				t.Fatalf("%s: edge table holds mapping %d, which is gone", stage, k.rel)
			}
		}
	}

	// AddAssociations keeps the mapping's ID: only the generation tells
	// the cached edge from the new rows.
	r01, _, err := f.repo.FindMapping(path[0], path[1])
	if err != nil {
		t.Fatal(err)
	}
	extra := []gam.Assoc{{Object1: f.objs[0][0], Object2: f.objs[1][5], Evidence: 0.7}}
	if _, err := f.repo.AddAssociations(r01.ID, extra, false); err != nil {
		t.Fatal(err)
	}
	matches("after AddAssociations", path[0], path[1])
	matches("after AddAssociations, reversed", path[1], path[0])
	current("after AddAssociations")

	for i := 0; i < 20; i++ {
		k := i % (len(path) - 1)
		assocs := []gam.Assoc{{Object1: f.objs[k][i%6], Object2: f.objs[k+1][(i+1)%6]}}
		if _, err := f.repo.ReplaceMapping(path[k], path[k+1], gam.RelFact, assocs); err != nil {
			t.Fatal(err)
		}
		matches("after ReplaceMapping", path[k], path[k+1])
		if _, err := e.MapPathShared(path); err != nil {
			t.Fatal(err)
		}
		if _, err := e.MapPathShared(reversed); err != nil {
			t.Fatal(err)
		}
		current(fmt.Sprintf("write %d", i))
	}

	// A load that began before a write is not installed after it.
	old := f.repo.Generation()
	r12, rev, err := f.repo.FindMapping(path[1], path[2])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.repo.ReplaceMapping(path[0], path[1], gam.RelFact, extra); err != nil {
		t.Fatal(err)
	}
	matches("before the late load", path[0], path[1])
	key := edgeKey{rel: r12.ID, reversed: rev}
	late := &Mapping{Rel: r12.ID, From: path[1], To: path[2], Type: gam.RelFact}
	e.putEdge(key, old, late)
	if e.edges[key] == late {
		t.Fatal("a load stamped with an older generation was installed")
	}
	current("after the late load")
}

func TestExecutorConcurrentMapPath(t *testing.T) {
	f := newChainFixture(t, 5, 10)
	e := NewExecutor(f.repo)
	want, err := MapPath(f.repo, f.path())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errc := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m, err := e.MapPath(f.path())
			if err != nil {
				errc <- err
				return
			}
			if len(m.Assocs) != len(want.Assocs) {
				errc <- fmt.Errorf("concurrent MapPath: %d assocs, want %d", len(m.Assocs), len(want.Assocs))
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestExecutorEdgesBesideReplaceMapping runs MapPathShared and Resolver
// calls beside a writer that flips the middle mapping of a chain between
// two association sets with ReplaceMapping. Every result must equal what
// ops.MapPath or ops.Map returns at one of the two committed states, and
// once the writer stops, the executor must serve the last state.
//
// An empty result is counted apart: a reader that resolves the mapping's
// ID just before a replace commits and loads its rows after reads none
// (the resolve-then-load race, ROADMAP item 3). It is logged, not failed.
func TestExecutorEdgesBesideReplaceMapping(t *testing.T) {
	const objPer = 8
	f := newChainFixture(t, 4, objPer)
	e := NewExecutor(f.repo)
	path := f.path()
	back := slices.Clone(path)
	slices.Reverse(back)
	pathFind := func(from, to gam.SourceID) []gam.SourceID {
		switch {
		case from == path[0] && to == path[3]:
			return path
		case from == path[3] && to == path[0]:
			return back
		}
		return nil
	}
	resolve := e.Resolver(pathFind)
	states := make([][]gam.Assoc, 2)
	for k := range states {
		for j := 0; j < objPer; j++ {
			states[k] = append(states[k], gam.Assoc{Object1: f.objs[1][j], Object2: f.objs[2][(j+k)%objPer]})
		}
	}
	replace := func(k int) error {
		_, err := f.repo.ReplaceMapping(path[1], path[2], gam.RelFact, states[k])
		return err
	}
	type query struct {
		name  string
		exec  func() (*Mapping, error)
		plain func() (*Mapping, error)
	}
	queries := []query{
		{"path", func() (*Mapping, error) { return e.MapPathShared(path) },
			func() (*Mapping, error) { return MapPath(f.repo, path) }},
		{"reversed path", func() (*Mapping, error) { return e.MapPathShared(back) },
			func() (*Mapping, error) { return MapPath(f.repo, back) }},
		{"resolved edge", func() (*Mapping, error) { return resolve(path[1], path[2]) },
			func() (*Mapping, error) { return Map(f.repo, path[1], path[2]) }},
		{"resolved reversed edge", func() (*Mapping, error) { return resolve(path[2], path[1]) },
			func() (*Mapping, error) { return Map(f.repo, path[2], path[1]) }},
		{"resolved path", func() (*Mapping, error) { return resolve(path[3], path[0]) },
			func() (*Mapping, error) { return MapPath(f.repo, back) }},
	}
	// want[k][q] is query q's associations at state k.
	want := make([][][]gam.Assoc, len(states))
	for k := range states {
		if err := replace(k); err != nil {
			t.Fatal(err)
		}
		for _, q := range queries {
			m, err := q.plain()
			if err != nil {
				t.Fatal(err)
			}
			if len(m.Assocs) == 0 {
				t.Fatalf("state %d: %s is empty", k, q.name)
			}
			want[k] = append(want[k], m.Assocs)
		}
	}

	const readers, rounds = 4, 40
	var empty atomic.Int64
	errs := make(chan error, readers+1)
	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := replace(i % 2); err != nil {
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
				for qi, q := range queries {
					m, err := q.exec()
					if err != nil {
						errs <- fmt.Errorf("reader %d round %d %s: %w", r, i, q.name, err)
						return
					}
					switch {
					case slices.Equal(m.Assocs, want[0][qi]), slices.Equal(m.Assocs, want[1][qi]):
					case len(m.Assocs) == 0:
						empty.Add(1)
					default:
						errs <- fmt.Errorf("reader %d round %d %s: %v matches no committed state", r, i, q.name, m.Assocs)
						return
					}
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
	if n := empty.Load(); n > 0 {
		t.Logf("%d of %d results read the replaced mapping between its resolution and its load", n, readers*rounds*len(queries))
	}
	for _, q := range queries {
		got, err := q.exec()
		if err != nil {
			t.Fatal(err)
		}
		plain, err := q.plain()
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Assocs, plain.Assocs) {
			t.Fatalf("after the writer: %s = %v, want %v", q.name, got.Assocs, plain.Assocs)
		}
	}
}

func TestAssociationsBatchMatchesPerRel(t *testing.T) {
	f := newChainFixture(t, 4, 9)
	rels, err := f.repo.SourceRels()
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]gam.SourceRelID, len(rels))
	for i, r := range rels {
		ids[i] = r.ID
	}
	// Duplicate an ID and add a nonexistent one: duplicates fetch once,
	// unknown IDs come back empty.
	ids = append(ids, ids[0], gam.SourceRelID(99999))
	batch, err := f.repo.AssociationsBatch(ids)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rels {
		want, err := f.repo.Associations(r.ID)
		if err != nil {
			t.Fatal(err)
		}
		got := batch[r.ID]
		if len(got) != len(want) {
			t.Fatalf("rel %d: batch returned %d assocs, want %d", r.ID, len(got), len(want))
		}
		ws := make(map[[2]gam.ObjectID]float64, len(want))
		for _, a := range want {
			ws[[2]gam.ObjectID{a.Object1, a.Object2}] = a.Evidence
		}
		for _, a := range got {
			if ws[[2]gam.ObjectID{a.Object1, a.Object2}] != a.Evidence {
				t.Fatalf("rel %d: batch pair %v mismatch", r.ID, a)
			}
		}
	}
	if got := batch[gam.SourceRelID(99999)]; len(got) != 0 {
		t.Fatalf("unknown rel returned %d assocs", len(got))
	}
}

func TestExecutorCachedMappingIsIsolated(t *testing.T) {
	f := newChainFixture(t, 3, 5)
	e := NewExecutor(f.repo)
	m1, err := e.MapPath(f.path())
	if err != nil {
		t.Fatal(err)
	}
	// Mutating a returned mapping must not corrupt the cached copy.
	for i := range m1.Assocs {
		m1.Assocs[i].Object1 = 0
	}
	m2, err := e.MapPath(f.path())
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range m2.Assocs {
		if a.Object1 == 0 {
			t.Fatal("caller mutation leaked into the executor cache")
		}
	}
}

// A path MapPathShared caches is the fold's exact copy: its associations,
// domains and offsets carry no spare capacity, and its grouping is that of
// its associations, so put neither sorts nor regroups it.
func TestExecutorCachedPathIsExactlySized(t *testing.T) {
	for _, hops := range []int{2, 3, 5} {
		f := newChainFixture(t, hops+1, 37)
		e := NewExecutor(f.repo)
		m, err := e.MapPathShared(f.path())
		if err != nil {
			t.Fatal(err)
		}
		if len(m.Assocs) == 0 {
			t.Fatalf("%d hops: empty path", hops)
		}
		checkGrouped(t, m)
	}
}

// TestExecutorColdPathAllocs bounds what composing a cold 3-edge path
// allocates when its edges are cached: the path key, the result and its
// cache entry, and no buffer that grows with the path (an edge lookup
// allocates nothing: its key is a struct, and FindMapping hands out the
// catalog's own mapping). Two fixture
// sizes must allocate the same number of times.
func TestExecutorColdPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop scratch at random")
	}
	var counts []float64
	for _, objPer := range []int{20, 600} {
		f := newChainFixture(t, 4, objPer)
		e := NewExecutor(f.repo)
		path := f.path()
		for i := 0; i+1 < len(path); i++ {
			if _, err := e.mapShared(path[i], path[i+1]); err != nil {
				t.Fatal(err)
			}
		}
		key := pathKey(path)
		cold := func() {
			e.mu.Lock()
			e.paths.Delete(key)
			e.mu.Unlock()
			if _, err := e.MapPathShared(path); err != nil {
				t.Fatal(err)
			}
		}
		cold() // sizes the pooled scratch
		counts = append(counts, testing.AllocsPerRun(50, cold))
	}
	// Measured: 9 allocations at both sizes (12 while each edge lookup's
	// FindMapping built a fresh *SourceRel; 15 while each edge lookup also
	// built a string key; 39 and 51 while each hop appended into fresh
	// arrays and put regrouped the result). The bound is the measurement.
	const maxAllocs = 9
	if counts[0] != counts[1] || counts[1] > maxAllocs {
		t.Fatalf("cold 3-edge path: %v allocs at 20 and 600 objects a source; want equal and <= %d", counts, maxAllocs)
	}
}
