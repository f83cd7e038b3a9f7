package gam

import (
	"errors"
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
	kept := r.rows.Load()
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
		if retired := r.rows.Load() != kept; retired != st.retire {
			t.Fatalf("%s: cache retired = %v, want %v", st.name, retired, st.retire)
		}
		kept = r.rows.Load()
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
	c := r.rows.Load()
	rs, err := r.db.Query(sqlSelectObjectByID, int64(x))
	if err != nil || len(rs.Rows) != 1 {
		t.Fatalf("point query = %v, %v", rs, err)
	}
	var stale Object
	fillObject(&stale, rs.Rows[0])
	if _, err := r.FillMissingObjectInfo(src, []ObjectSpec{{Accession: "x", Text: "filled"}}); err != nil {
		t.Fatal(err)
	}
	c.put(stale)
	if o, err := r.Object(x); err != nil || o.Text != "filled" {
		t.Fatalf("Object = %+v, %v; want the filled text", o, err)
	}
}

// A hit takes no gam lock and runs no statement, and its only allocation is
// the caller's copy.
func TestObjectCacheHitTakesNoLockAndNoSQL(t *testing.T) {
	r, _, x := cacheRepo(t)
	if _, err := r.Object(x); err != nil {
		t.Fatal(err)
	}
	stmts := r.db.StmtCacheStats()
	tx := r.db.Begin() // the lock a batch holds
	r.mu.Lock()
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
		t.Fatal("Object of a cached ID waits for gam's locks")
	}
	r.mu.Unlock()
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if got := r.db.StmtCacheStats(); got.Hits != stmts.Hits || got.Misses != stmts.Misses {
		t.Fatalf("a hit ran a statement: %+v, then %+v", stmts, got)
	}
	o := mustObject(t, r, x)
	o.Text = "mine"
	if mustObject(t, r, x).Text != "" {
		t.Fatal("a caller's copy changed the cached row")
	}
	if allocs := testing.AllocsPerRun(100, func() { _, _ = r.Object(x) }); allocs != 1 {
		t.Fatalf("warm hit: %.0f allocs, want 1", allocs)
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
