package gam

import (
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"genmapper/internal/sqldb"
	"genmapper/internal/wal"
)

// checkStats asserts that the maintained Stats equal the SQL recount and
// that Sources lists what the catalog query ORDER BY name returns.
func checkStats(t *testing.T, r *Repo) {
	t.Helper()
	want, err := countStats(r.db)
	if err != nil {
		t.Fatal(err)
	}
	if got := mustStats(t, r); !reflect.DeepEqual(got, want) {
		t.Fatalf("maintained stats %v, SQL recount %v", got, want)
	}
	srcs := []*Source{}
	err = queryEach(r.db, sqlSelectSources+" ORDER BY name", nil, func(row []sqldb.Value) error {
		srcs = append(srcs, rowToSource(row))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Sources(); !reflect.DeepEqual(got, srcs) {
		t.Fatalf("Sources() = %v, catalog query = %v", got, srcs)
	}
}

// relAssocs returns n associations between the first n objects of two
// sources, with evidence so a replacement of the same size is distinct.
func relAssocs(ids1, ids2 []ObjectID, n int, ev float64) []Assoc {
	out := make([]Assoc, n)
	for i := range out {
		out[i] = Assoc{Object1: ids1[i], Object2: ids2[i%len(ids2)], Evidence: ev}
	}
	return out
}

// The maintained counters equal the SQL recount after every kind of write,
// after failed batches, and after Reload over a restored database.
func TestStatsMatchRecount(t *testing.T) {
	plainAndPinned(t, func(t *testing.T, r *Repo) {
		checkStats(t, r) // empty schema: ByType is empty, not nil

		a, _, _ := r.EnsureSource(Source{Name: "b-second", Content: ContentGene})
		b, _, _ := r.EnsureSource(Source{Name: "A-first", Release: "r1", Date: "2004-01-01"})
		checkStats(t, r)
		specs := make([]ObjectSpec, 20)
		for i := range specs {
			specs[i] = ObjectSpec{Accession: fmt.Sprintf("x%02d", i)}
		}
		ids1, _, err := r.EnsureObjects(a.ID, specs)
		if err != nil {
			t.Fatal(err)
		}
		ids2, _, _ := r.EnsureObjects(b.ID, specs[:10])
		r.EnsureObjects(b.ID, specs[:12]) // two new, ten duplicates
		checkStats(t, r)
		if _, _, err := r.EnsureSource(Source{Name: "A-FIRST", Release: "r2"}); err != nil {
			t.Fatal(err)
		}
		checkStats(t, r) // re-audit: Sources() shows the new release

		fact, _, _ := r.EnsureSourceRel(a.ID, b.ID, RelFact)
		isa, _, _ := r.EnsureSourceRel(a.ID, a.ID, RelIsA)
		checkStats(t, r) // mappings without associations count under no type
		r.AddAssociations(fact, relAssocs(ids1, ids2, 8, 0), false)
		r.AddAssociations(fact, relAssocs(ids1, ids2, 10, 0), true) // dedup: two new
		r.AddAssociations(isa, relAssocs(ids1, ids1, 5, 0), false)
		checkStats(t, r)

		for _, n := range []int{7, 7, 15, 0, 3} { // create, same size, grow, shrink to 0, regrow
			if _, err := r.ReplaceMapping(a.ID, b.ID, RelSimilarity, relAssocs(ids1, ids2, n, 0.5)); err != nil {
				t.Fatal(err)
			}
			checkStats(t, r)
			if _, has := mustStats(t, r).ByType[RelSimilarity]; has != (n > 0) {
				t.Fatalf("after replace with %d: ByType = %v", n, mustStats(t, r).ByType)
			}
		}

		before := mustStats(t, r)
		for _, stage := range []string{"after-delete", "after-insert"} {
			boom := errors.New("boom")
			r.SetReplaceMappingHook(func(s string) error {
				if s == stage {
					return boom
				}
				return nil
			})
			if _, err := r.ReplaceMapping(a.ID, b.ID, RelSimilarity, relAssocs(ids1, ids2, 11, 0.9)); !errors.Is(err, boom) {
				t.Fatalf("%s: ReplaceMapping = %v, want the hook's error", stage, err)
			}
			if after := mustStats(t, r); !reflect.DeepEqual(after, before) {
				t.Fatalf("%s: stats after failed replace = %v, want %v", stage, after, before)
			}
			checkStats(t, r)
		}
		r.SetReplaceMappingHook(nil)

		if err := r.DeleteMapping(isa); err != nil {
			t.Fatal(err)
		}
		checkStats(t, r)
		if _, has := mustStats(t, r).ByType[RelIsA]; has {
			t.Fatal("deleted IS_A mapping still counted")
		}

		// A whole-database restore: Reload recounts.
		snap := filepath.Join(t.TempDir(), "gam.snap")
		if err := r.db.Save(snap); err != nil {
			t.Fatal(err)
		}
		saved := mustStats(t, r)
		if err := r.DeleteMapping(fact); err != nil {
			t.Fatal(err)
		}
		r.EnsureSource(Source{Name: "c-later"})
		if err := r.db.Restore(snap); err != nil {
			t.Fatal(err)
		}
		if err := r.Reload(); err != nil {
			t.Fatal(err)
		}
		checkStats(t, r)
		if got := mustStats(t, r); !reflect.DeepEqual(got, saved) {
			t.Fatalf("stats after restore = %v, want %v", got, saved)
		}
	})
}

// A commit whose fsync fails is visible in the database by then, and the
// maintained counters and caches follow it: Stats still equals the SQL
// recount, and ReplaceMapping returns the fsync's error.
func TestStatsMatchRecountAfterFailedSync(t *testing.T) {
	fs := wal.NewFaultFS()
	var fail atomic.Bool
	boom := errors.New("fsync failed")
	fs.SyncHook = func() error {
		if fail.Load() {
			return boom
		}
		return nil
	}
	db, err := sqldb.OpenDurable("", sqldb.DurableOptions{FS: fs, Sync: wal.SyncAlways, CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	r, err := Open(db)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Atomic(func(b *Batch) error { return pairBatch(b, "A", "B", 6) }); err != nil {
		t.Fatal(err)
	}
	fail.Store(true)
	if _, err := r.ReplaceMapping(1, 2, RelSimilarity, relAssocs([]ObjectID{1, 2, 3}, []ObjectID{7, 8}, 3, 0.5)); !errors.Is(err, boom) {
		t.Fatalf("ReplaceMapping = %v, want the fsync's error", err)
	}
	checkStats(t, r)
	if n := mustStats(t, r).ByType[RelSimilarity]; n != 3 {
		t.Fatalf("similarity associations = %d, want the 3 the failed fsync left visible", n)
	}
}

// Stats hands out copies: a caller editing its ByType map or a Source
// from Sources changes nothing in the repository.
func TestStatsAndSourcesAreCopies(t *testing.T) {
	r := newRepo(t)
	if err := r.Atomic(func(b *Batch) error { return pairBatch(b, "A", "B", 3) }); err != nil {
		t.Fatal(err)
	}
	st := mustStats(t, r)
	st.ByType[RelFact] = 99
	st.ByType[RelIsA] = 1
	r.Sources()[0].Name = "changed"
	checkStats(t, r)
}

// Readers running beside writers see only committed states: every component of an observed Stats belongs to a state some
// commit produced, and Associations is the sum over ByType.
func TestStatsConcurrentWithWriters(t *testing.T) {
	plainAndPinned(t, func(t *testing.T, r *Repo) {
		const imports, pairs, replaces, readers = 12, 5, 40, 3
		hub, _, _ := r.EnsureSource(Source{Name: "Hub"})
		spoke, _, _ := r.EnsureSource(Source{Name: "Spoke"})
		specs := make([]ObjectSpec, 16)
		for i := range specs {
			specs[i] = ObjectSpec{Accession: fmt.Sprintf("h%02d", i)}
		}
		ids1, _, _ := r.EnsureObjects(hub.ID, specs)
		ids2, _, _ := r.EnsureObjects(spoke.ID, specs)
		sizes := []int{0, 7, 16, 3}
		if _, err := r.ReplaceMapping(hub.ID, spoke.ID, RelSimilarity, nil); err != nil {
			t.Fatal(err)
		}
		base := mustStats(t, r)

		// The writers start once every reader has returned one Stats, and
		// each reader takes one more after they finish: however the
		// scheduler runs them (GOMAXPROCS 1 included), every reader
		// observes the states before and after the writers.
		var done atomic.Bool
		var started, wg sync.WaitGroup
		started.Add(readers)
		var observed atomic.Int64
		var rw sync.WaitGroup
		for i := 0; i < readers; i++ {
			rw.Add(1)
			go func() {
				defer rw.Done()
				ready := sync.OnceFunc(started.Done)
				defer ready() // a reader failing on its first Stats must not block the writers
				for {
					last := done.Load()
					st, err := r.Stats()
					if err == nil {
						err = committedState(st, base, pairs, sizes)
					}
					observed.Add(1)
					if err != nil {
						t.Errorf("observed %v: %v", st, err)
						return
					}
					ready()
					if last {
						return
					}
				}
			}()
		}
		started.Wait()
		wg.Add(2)
		go func() { // mapping refreshes, as view.update's writer does
			defer wg.Done()
			for i := 0; i < replaces; i++ {
				if _, err := r.ReplaceMapping(hub.ID, spoke.ID, RelSimilarity, relAssocs(ids1, ids2, sizes[i%len(sizes)], 0.5)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		go func() { // imports: two sources, 2*pairs objects, one Fact mapping each
			defer wg.Done()
			for i := 0; i < imports; i++ {
				if err := r.Atomic(func(b *Batch) error {
					return pairBatch(b, fmt.Sprintf("F%02d", i), fmt.Sprintf("T%02d", i), pairs)
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		wg.Wait()
		done.Store(true)
		rw.Wait()
		if observed.Load() == 0 {
			t.Fatal("no Stats observed")
		}
		checkStats(t, r)
	})
}

// committedState reports why st is not a state the writers of
// TestStatsConcurrentWithWriters can have committed.
func committedState(st, base *Stats, pairs int, sizes []int) error {
	var sum int64
	for _, n := range st.ByType {
		if n <= 0 {
			return fmt.Errorf("non-positive type count")
		}
		sum += n
	}
	if sum != st.Associations {
		return fmt.Errorf("associations %d != sum over types %d", st.Associations, sum)
	}
	k := (st.Sources - base.Sources) / 2 // completed imports
	if st.Sources != base.Sources+2*k ||
		st.Objects != base.Objects+2*int64(pairs)*k ||
		st.Mappings != base.Mappings+k ||
		st.ByType[RelFact] != int64(pairs)*k {
		return fmt.Errorf("not the state after %d whole imports", k)
	}
	sim := st.ByType[RelSimilarity]
	for _, n := range sizes {
		if sim == int64(n) {
			return nil
		}
	}
	return fmt.Errorf("similarity count %d is no replacement's size", sim)
}
