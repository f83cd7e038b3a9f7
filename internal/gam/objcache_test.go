package gam

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
)

// cacheRepo returns a repository with one source and one bare object.
func cacheRepo(t *testing.T) (*Repo, SourceID, ObjectID) {
	t.Helper()
	r := newRepo(t)
	s, _, err := r.EnsureSource(Source{Name: "S"})
	if err != nil {
		t.Fatal(err)
	}
	x, _, err := r.EnsureObject(s.ID, ObjectSpec{Accession: "x"})
	if err != nil {
		t.Fatal(err)
	}
	return r, s.ID, x
}

// Only a committed batch that filled an object, and Reload, retire the
// object cache; object creation, mapping writes, a fill that matched no
// bare object and a fill that rolled back leave it in place.
func TestObjectCacheRetiredOnlyByFillsAndReload(t *testing.T) {
	r, src, x := cacheRepo(t)
	if _, err := r.Object(x); err != nil {
		t.Fatal(err)
	}
	kept := r.cat.Load().rows
	steps := []struct {
		name   string
		run    func() error
		retire bool
	}{
		{"create", func() error { _, _, err := r.EnsureObject(src, ObjectSpec{Accession: "y"}); return err }, false},
		{"mapping", func() error {
			_, err := r.ReplaceMapping(src, src, RelIsA, []Assoc{{Object1: x, Object2: x}})
			return err
		}, false},
		{"fill of nothing", func() error {
			_, err := r.FillMissingObjectInfo(src, []ObjectSpec{{Accession: "absent", Text: "t"}})
			return err
		}, false},
		{"rolled-back fill", func() error {
			err := r.Atomic(func(b *Batch) error {
				if n, err := b.FillMissingObjectInfo(src, []ObjectSpec{{Accession: "x", Text: "t"}}); err != nil || n != 1 {
					t.Fatalf("fill = %d, %v", n, err)
				}
				return errors.New("abort")
			})
			if err == nil {
				t.Fatal("aborted batch committed")
			}
			return nil
		}, false},
		{"fill", func() error {
			_, err := r.FillMissingObjectInfo(src, []ObjectSpec{{Accession: "x", Text: "t"}})
			return err
		}, true},
		{"reload", r.Reload, true},
	}
	for _, st := range steps {
		if err := st.run(); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		if retired := r.cat.Load().rows != kept; retired != st.retire {
			t.Fatalf("%s: cache retired = %v, want %v", st.name, retired, st.retire)
		}
		kept = r.cat.Load().rows
	}
	if o, err := r.Object(x); err != nil || o.Text != "t" {
		t.Fatalf("Object after fill = %+v, %v", o, err)
	}
}

// A reader that loaded the cache, then read the row before a fill
// committed, installs the stale row into the cache the fill retired: no
// later reader sees it.
func TestObjectCacheInstallAfterFillIsRetired(t *testing.T) {
	r, src, x := cacheRepo(t)
	c := r.cat.Load().rows
	rs, err := r.db.Query(oracleObjectByID, int64(x))
	if err != nil || len(rs.Rows) != 1 {
		t.Fatalf("point query = %v, %v", rs, err)
	}
	var stale Object
	fillObject(&stale, rs.Rows[0])
	if _, err := r.FillMissingObjectInfo(src, []ObjectSpec{{Accession: "x", Text: "filled"}}); err != nil {
		t.Fatal(err)
	}
	c.install(x, &stale, r.cat.Load().objectIDBound())
	if o, err := r.Object(x); err != nil || o.Text != "filled" {
		t.Fatalf("Object = %+v, %v; want the filled text", o, err)
	}
}

// A hit takes no lock, runs no statement and allocates nothing: it
// returns the cached row itself, the same pointer to every caller.
func TestObjectCacheHitTakesNoLockAndNoSQL(t *testing.T) {
	r, _, x := cacheRepo(t)
	if _, err := r.Object(x); err != nil {
		t.Fatal(err)
	}
	stmts := r.db.StmtCacheStats()
	tx := r.db.Begin() // the lock a batch holds
	done := make(chan *Object)
	go func() {
		o, _ := r.Object(x)
		done <- o
	}()
	select {
	case o := <-done:
		if o == nil || o.Accession != "x" {
			t.Errorf("hit = %+v", o)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Object of a cached ID waits for the writer")
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if got := r.db.StmtCacheStats(); got.Hits != stmts.Hits || got.Misses != stmts.Misses {
		t.Fatalf("a hit ran a statement: %+v, then %+v", stmts, got)
	}
	if a, b := mustObject(t, r, x), mustObject(t, r, x); a != b {
		t.Fatalf("two hits returned %p and %p, want the one shared entry", a, b)
	}
	if allocs := testing.AllocsPerRun(100, func() { _, _ = r.Object(x) }); allocs != 0 {
		t.Fatalf("warm hit: %.0f allocs, want 0", allocs)
	}
}

// Absent IDs are not cached: an object created after a miss is found.
func TestObjectCacheSkipsAbsentIDs(t *testing.T) {
	r, src, x := cacheRepo(t)
	next := x + 1
	if o, err := r.Object(next); err != nil || o != nil {
		t.Fatalf("Object(absent) = %+v, %v", o, err)
	}
	if id, _, err := r.EnsureObject(src, ObjectSpec{Accession: "y"}); err != nil || id != next {
		t.Fatalf("EnsureObject = %d, %v; want ID %d", id, err, next)
	}
	if o := mustObject(t, r, next); o == nil || o.Accession != "y" {
		t.Fatalf("Object(new) = %+v", o)
	}
}

func mustObject(t *testing.T, r *Repo, id ObjectID) *Object {
	t.Helper()
	o, err := r.Object(id)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// A miss seeks its row by primary key straight into the new entry; it
// runs no statement and builds no result set for the one row.
func TestObjectCacheMissAllocs(t *testing.T) {
	r, _, x := cacheRepo(t)
	miss := func() {
		r.cat.Load().rows.forget(x)
		if o, err := r.Object(x); err != nil || o == nil || o.Accession != "x" {
			t.Fatalf("Object = %+v, %v", o, err)
		}
	}
	miss()
	allocs := testing.AllocsPerRun(200, miss)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const n = 200
	for i := 0; i < n; i++ {
		miss()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / n
	// Measured: 3 allocations and 96 bytes per miss, the row's Object
	// among them, since the miss seeks the primary key instead of running
	// a SELECT (8 and 504 through the statement's plan, 10 and 576 with a
	// sync.Map for the cache, 12 and 648 while a miss ran db.Query and
	// copied its row out of the result set). The bounds are the
	// measurement: a statement, a result set or a sort closure breaks
	// them.
	const maxAllocs, maxBytes = 3, 96
	if allocs > maxAllocs || bytes > maxBytes {
		t.Fatalf("Object miss: %.0f allocs, %d bytes; want <= %d, <= %d", allocs, bytes, maxAllocs, maxBytes)
	}
}

// Goroutines miss concurrently on every ID of a source that spans several
// chunks, each in its own order, so chunks are created and the directory
// grows while other goroutines install and read. Every reader gets one
// pointer per ID, and it is the one the table keeps.
func TestObjectTableConcurrentMisses(t *testing.T) {
	r := newRepo(t)
	s, _, err := r.EnsureSource(Source{Name: "S"})
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]ObjectSpec, 3*objChunkSlots+17)
	for i := range specs {
		specs[i] = ObjectSpec{Accession: fmt.Sprintf("o%d", i)}
	}
	ids, _, err := r.EnsureObjects(s.ID, specs)
	if err != nil {
		t.Fatal(err)
	}
	const readers = 4
	got := make([][]*Object, readers)
	var wg sync.WaitGroup
	for g := range got {
		got[g] = make([]*Object, len(ids))
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, i := range rand.New(rand.NewSource(int64(g))).Perm(len(ids)) {
				o, err := r.Object(ids[i])
				if err != nil || o == nil || o.ID != ids[i] || o.Accession != specs[i].Accession {
					t.Errorf("reader %d: Object(%d) = %+v, %v", g, ids[i], o, err)
					return
				}
				got[g][i] = o
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	c := r.cat.Load().rows
	for i, id := range ids {
		kept := c.load(id)
		for g := range got {
			if got[g][i] != kept {
				t.Fatalf("Object(%d): reader %d got %p, the table keeps %p", id, g, got[g][i], kept)
			}
		}
	}
	// IDs 1…3 086 live in chunks 0…3; doubling may reach past them, but
	// never past the chunk of the last ID the bound admits.
	if n, most := len(*c.dir.Load()), int((r.cat.Load().objectIDBound()-1)/objChunkSlots+1); n < 4 || n > most {
		t.Fatalf("directory holds %d chunks, want 4…%d", n, most)
	}
}

// Rows written around gam under an ID far past the dense range, or a
// negative one, are served uncached: reading them grows the directory by
// nothing and creates no chunk.
func TestObjectTableFarIDsGrowNothing(t *testing.T) {
	r, src, x := cacheRepo(t)
	mustObject(t, r, x)
	for _, id := range []int64{1 << 40, -1} {
		if _, err := r.DB().Exec("INSERT INTO object (object_id, source_id, accession) VALUES (?, ?, ?)",
			id, int64(src), fmt.Sprint("far", id)); err != nil {
			t.Fatal(err)
		}
	}
	c := r.cat.Load().rows
	dir := c.dir.Load()
	for _, id := range []ObjectID{1 << 40, -1} {
		for i := 0; i < 2; i++ {
			if o := mustObject(t, r, id); o == nil || o.ID != id || o.Accession != fmt.Sprint("far", id) {
				t.Fatalf("Object(%d) = %+v", id, o)
			}
		}
		if c.load(id) != nil {
			t.Fatalf("Object(%d) was cached", id)
		}
	}
	if c.dir.Load() != dir || len(*dir) != 1 {
		t.Fatalf("far IDs grew the directory to %d chunks", len(*c.dir.Load()))
	}
	if o := mustObject(t, r, x); c.load(x) != o {
		t.Fatal("the dense ID's row is no longer cached")
	}
}

// forget empties id's slot, if it has one, so that the next Object(id)
// misses.
func (t *objectTable) forget(id ObjectID) {
	if dir := *t.dir.Load(); uint64(id)/objChunkSlots < uint64(len(dir)) {
		if c := dir[uint64(id)/objChunkSlots].Load(); c != nil {
			c[uint64(id)%objChunkSlots].Store(nil)
		}
	}
}

const oracleObjectByID = "SELECT object_id, source_id, accession, text, number FROM object WHERE object_id = ?"
