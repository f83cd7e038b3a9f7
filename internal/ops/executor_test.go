package ops

import (
	"fmt"
	"slices"
	"sync"
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

func TestExecutorLRUBound(t *testing.T) {
	f := newChainFixture(t, 6, 4)
	e := NewExecutorConfig(f.repo, ExecutorConfig{Capacity: 2})
	for i := 0; i+1 < len(f.sources); i++ {
		if _, err := e.Map(f.sources[i].ID, f.sources[i+1].ID); err != nil {
			t.Fatal(err)
		}
	}
	if st := e.Stats(); st.Entries > 2 {
		t.Fatalf("LRU grew to %d entries with capacity 2", st.Entries)
	}
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
