package gam

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"genmapper/internal/sqldb"
	"genmapper/internal/wal"
)

// plainAndPinned runs a test on a fresh repository twice — plainly
// ("plain") and beside readers whose snapshot predates the test
// ("pinned"), so every superseded version stays in storage and the suite
// runs over version chains — then checks the maintained Stats against the
// SQL recount. The readers must still see an empty repository when the
// test is done, unless the test replaced the tables wholesale (Restore
// invalidates them).
func plainAndPinned(t *testing.T, test func(t *testing.T, r *Repo)) {
	for _, mode := range []struct {
		name   string
		pinned bool
	}{{"plain", false}, {"pinned", true}} {
		t.Run(mode.name, func(t *testing.T) {
			db := sqldb.NewDB()
			t.Cleanup(func() { db.Close() })
			r, err := Open(db)
			if err != nil {
				t.Fatal(err)
			}
			if mode.pinned {
				defer checkEmptySnapshot(t, openCounts(t, db))
			}
			test(t, r)
			checkStats(t, r)
		})
	}
}

// openCounts opens one COUNT(*) cursor per GAM data table, pinning the
// current snapshot until the cursors are drained.
func openCounts(t *testing.T, db *sqldb.DB) []sqldb.Cursor {
	t.Helper()
	var curs []sqldb.Cursor
	for _, table := range []string{"source", "object", "object_rel"} {
		cur, err := db.QueryCursor("SELECT COUNT(*) FROM " + table)
		if err != nil {
			t.Fatal(err)
		}
		curs = append(curs, cur)
	}
	return curs
}

// checkEmptySnapshot drains cursors opened on an empty repository: each
// must still count zero rows.
func checkEmptySnapshot(t *testing.T, curs []sqldb.Cursor) {
	t.Helper()
	for _, cur := range curs {
		row, err := cur.Next()
		cur.Close()
		if errors.Is(err, sqldb.ErrCursorInvalidated) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if row[0] != int64(0) {
			t.Fatalf("a snapshot older than the test counts %v rows", row[0])
		}
	}
}

func mustStats(t *testing.T, r *Repo) *Stats {
	t.Helper()
	st, err := r.Stats()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// pairBatch writes two sources, n objects each, one Fact mapping and its
// n associations through one batch — the shape of an import.
func pairBatch(b *Batch, from, to string, n int) error {
	s1, _, err := b.EnsureSource(Source{Name: from, Content: ContentGene})
	if err != nil {
		return err
	}
	s2, _, err := b.EnsureSource(Source{Name: to})
	if err != nil {
		return err
	}
	specs := make([]ObjectSpec, n)
	for i := range specs {
		specs[i] = ObjectSpec{Accession: fmt.Sprintf("acc%05d", i), Text: strings.Repeat("t", 40)}
	}
	ids1, _, err := b.EnsureObjects(s1.ID, specs)
	if err != nil {
		return err
	}
	ids2, _, err := b.EnsureObjects(s2.ID, specs)
	if err != nil {
		return err
	}
	rel, _, err := b.EnsureSourceRel(s1.ID, s2.ID, RelFact)
	if err != nil {
		return err
	}
	assocs := make([]Assoc, n)
	for i := range assocs {
		assocs[i] = Assoc{Object1: ids1[i], Object2: ids2[i]}
	}
	_, err = b.AddAssociations(rel, assocs, true)
	return err
}

// A failed batch is invisible: database content, every cache and the
// generation are what they were, and the IDs it drew are drawn again.
func TestAtomicRollbackLeavesNothing(t *testing.T) {
	plainAndPinned(t, func(t *testing.T, r *Repo) {
		if err := r.Atomic(func(b *Batch) error { return pairBatch(b, "A", "B", 30) }); err != nil {
			t.Fatal(err)
		}
		before, gen := mustStats(t, r), r.Generation()
		a := r.SourceByName("A")

		boom := errors.New("boom")
		err := r.Atomic(func(b *Batch) error {
			if err := pairBatch(b, "C", "D", 30); err != nil {
				return err
			}
			// Touch committed state too: a new object and a re-audit of A,
			// and a refresh of the A->B mapping.
			if _, _, err := b.EnsureObjects(a.ID, []ObjectSpec{{Accession: "extra"}}); err != nil {
				return err
			}
			if _, _, err := b.EnsureSource(Source{Name: "A", Release: "r2"}); err != nil {
				return err
			}
			if _, err := b.ReplaceMapping(a.ID, r.SourceByName("B").ID, RelFact, nil); err != nil {
				return err
			}
			return boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("Atomic = %v, want the body's error", err)
		}
		if after := mustStats(t, r); !reflect.DeepEqual(before, after) {
			t.Fatalf("stats after rollback = %v, want %v", after, before)
		}
		if r.Generation() != gen {
			t.Fatalf("generation moved on rollback: %d -> %d", gen, r.Generation())
		}
		if r.SourceByName("C") != nil || r.SourceByName("D") != nil {
			t.Fatal("rolled-back sources are still cached")
		}
		if got := r.SourceByName("A"); got != a || got.Release != "" {
			t.Fatalf("rolled-back audit update leaked into the cache: %+v", got)
		}
		if id, err := r.LookupObject(a.ID, "extra"); err != nil || id != 0 {
			t.Fatalf("rolled-back object is still cached: id %d err %v", id, err)
		}
		if _, ok, _ := r.FindRel(a.ID, r.SourceByName("B").ID, RelFact); !ok {
			t.Fatal("rolled-back ReplaceMapping dropped the cached mapping key")
		}

		// The same batch, now succeeding, draws dense IDs.
		if err := r.Atomic(func(b *Batch) error { return pairBatch(b, "C", "D", 30) }); err != nil {
			t.Fatal(err)
		}
		c := r.SourceByName("C")
		if c == nil || c.ID != 3 {
			t.Fatalf("source C = %+v, want ID 3", c)
		}
		if id, _ := r.LookupObject(c.ID, "acc00000"); id != 61 {
			t.Fatalf("first object of C has ID %d, want 61", id)
		}
		if rel, ok, _ := r.FindRel(c.ID, r.SourceByName("D").ID, RelFact); !ok || rel != 2 {
			t.Fatalf("mapping C->D = %d (%v), want 2", rel, ok)
		}
		if r.Generation() != gen+1 {
			t.Fatalf("generation = %d after one committed batch, want %d", r.Generation(), gen+1)
		}
	})
}

// Reads through the batch see the batch's own writes — the path
// DeriveSubsumed depends on — and nobody else's view changes until commit.
func TestBatchReadsItsOwnWrites(t *testing.T) {
	plainAndPinned(t, func(t *testing.T, r *Repo) {
		err := r.Atomic(func(b *Batch) error {
			if err := pairBatch(b, "A", "B", 250); err != nil {
				return err
			}
			a, _, _ := b.EnsureSource(Source{Name: "A"})
			bb, _, _ := b.EnsureSource(Source{Name: "B"})
			rel, created, err := b.EnsureSourceRel(a.ID, bb.ID, RelFact)
			if err != nil || created {
				return fmt.Errorf("mapping not visible inside its batch: created=%v err=%v", created, err)
			}
			assocs, err := b.Associations(rel)
			if err != nil || len(assocs) != 250 {
				return fmt.Errorf("batch sees %d of its 250 associations (%v)", len(assocs), err)
			}
			if n, err := b.AddAssociations(rel, assocs, true); err != nil || n != 0 {
				return fmt.Errorf("dedup against own writes inserted %d (%v)", n, err)
			}
			if id, err := b.LookupObject(a.ID, "acc00007"); err != nil || id == 0 {
				return fmt.Errorf("own object not found: %d %v", id, err)
			}
			if r.Generation() != 0 {
				return fmt.Errorf("generation bumped before commit")
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if r.Generation() != 1 {
			t.Fatalf("generation = %d, want one bump per batch", r.Generation())
		}
	})
}

// A batch that writes no mapping data does not invalidate mapping caches.
func TestAtomicGenerationOnlyOnMappingWrites(t *testing.T) {
	r := newRepo(t)
	s, _, err := r.EnsureSource(Source{Name: "A"})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.EnsureObjects(s.ID, []ObjectSpec{{Accession: "x"}}); err != nil {
		t.Fatal(err)
	}
	if r.Generation() != 0 {
		t.Fatalf("object-only batches bumped the generation to %d", r.Generation())
	}
}

// DeleteMapping is one batch: a failure after the deletes keeps the mapping.
func TestDeleteMappingIsAtomic(t *testing.T) {
	r := newRepo(t)
	if err := r.Atomic(func(b *Batch) error { return pairBatch(b, "A", "B", 5) }); err != nil {
		t.Fatal(err)
	}
	rel, _, _ := r.FindRel(1, 2, RelFact)
	boom := errors.New("boom")
	err := r.Atomic(func(b *Batch) error {
		if err := b.DeleteMapping(rel); err != nil {
			return err
		}
		if _, ok := b.findRel(relKey{s1: 1, s2: 2, typ: RelFact}); ok {
			t.Error("deleted mapping still visible inside the batch")
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatal(err)
	}
	if got, ok, _ := r.FindRel(1, 2, RelFact); !ok || got != rel {
		t.Fatalf("mapping after failed delete = %d (%v), want %d", got, ok, rel)
	}
	if n, _ := r.AssociationCount(rel); n != 5 {
		t.Fatalf("%d associations after failed delete, want 5", n)
	}
}

// LookupObjects on a cached source takes no lock: it returns
// while another goroutine's batch is open.
func TestLookupObjectsWhileBatchOpen(t *testing.T) {
	plainAndPinned(t, func(t *testing.T, r *Repo) {
		if err := r.Atomic(func(b *Batch) error { return pairBatch(b, "A", "B", 10) }); err != nil {
			t.Fatal(err)
		}
		a := r.SourceByName("A")
		if _, err := r.LookupObject(a.ID, "acc00001"); err != nil { // caches A
			t.Fatal(err)
		}
		opened, release, done := make(chan struct{}), make(chan struct{}), make(chan error, 1)
		go func() {
			done <- r.Atomic(func(b *Batch) error {
				if _, _, err := b.EnsureObjects(a.ID, []ObjectSpec{{Accession: "pending"}}); err != nil {
					return err
				}
				close(opened)
				<-release
				return nil
			})
		}()
		<-opened
		looked := make(chan []ObjectID, 1)
		go func() {
			ids, err := r.LookupObjects(a.ID, []string{"acc00001", "pending"})
			if err != nil {
				t.Error(err)
			}
			looked <- ids
		}()
		select {
		case ids := <-looked:
			if ids[0] == 0 || ids[1] != 0 {
				t.Errorf("lookup beside an open batch = %v, want the committed object only", ids)
			}
		case <-time.After(5 * time.Second):
			t.Error("LookupObjects blocked on an open batch")
		}
		close(release)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if id, _ := r.LookupObject(a.ID, "pending"); id == 0 {
			t.Fatal("committed object missing from the cache")
		}
	})
}

// One batch is one log record behind one fsync, however many statements it
// ran, and a record larger than a log segment recovers whole.
func TestAtomicIsOneLogRecordAcrossSegments(t *testing.T) {
	fs := wal.NewFaultFS()
	opts := sqldb.DurableOptions{FS: fs, Sync: wal.SyncAlways, SegmentSize: 16 << 10, CheckpointInterval: -1}
	db, err := sqldb.OpenDurable("", opts)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Open(db)
	if err != nil {
		t.Fatal(err)
	}
	// A batch of ~10 statements that fits the active segment.
	before := db.WALStats()
	if err := r.Atomic(func(b *Batch) error { return pairBatch(b, "A", "B", 50) }); err != nil {
		t.Fatal(err)
	}
	after := db.WALStats()
	if after.Appends-before.Appends != 1 || after.Fsyncs-before.Fsyncs != 1 {
		t.Fatalf("one batch cost %d log records and %d fsyncs, want 1 and 1",
			after.Appends-before.Appends, after.Fsyncs-before.Fsyncs)
	}
	// 2 x 1500 objects with 40-byte texts and 1500 associations: one record
	// several segments long (the log rotates after the append).
	before = after
	if err := r.Atomic(func(b *Batch) error { return pairBatch(b, "C", "D", 1500) }); err != nil {
		t.Fatal(err)
	}
	after = db.WALStats()
	if n := after.Appends - before.Appends; n != 1 {
		t.Fatalf("one batch appended %d log records, want 1", n)
	}
	if size := after.SizeBytes - before.SizeBytes; size < 3*opts.SegmentSize {
		t.Fatalf("record of %d bytes does not cross a %d-byte segment", size, opts.SegmentSize)
	}
	// A second, small batch lands in a later segment.
	if _, _, err := r.EnsureSource(Source{Name: "E"}); err != nil {
		t.Fatal(err)
	}
	if n := db.WALStats().Segments; n < 2 {
		t.Fatalf("log has %d segments, want a rotation after the long record", n)
	}
	want, wantDump := mustStats(t, r), db.DumpString()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := sqldb.OpenDurable("", opts)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer db2.Close()
	r2, err := Open(db2)
	if err != nil {
		t.Fatal(err)
	}
	if got := mustStats(t, r2); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered stats %v, want %v", got, want)
	}
	if db2.DumpString() != wantDump {
		t.Fatal("recovered database differs from the pre-close state")
	}
}

// syncGate parks the first fsync of a FaultFS after arming: syncing is
// closed when that Sync starts, which then waits for release. The commit
// it holds is in the log and visible to snapshots, and Commit has not
// returned.
type syncGate struct {
	armed            atomic.Bool
	syncing, release chan struct{}
}

// gatedRepo opens a repository on a durable database whose fsyncs pass
// through a syncGate.
func gatedRepo(t *testing.T) (*Repo, *syncGate) {
	t.Helper()
	return gatedRepoSegments(t, 0)
}

// gatedRepoSegments is gatedRepo with WAL segments of segmentSize bytes
// (0: the default).
func gatedRepoSegments(t *testing.T, segmentSize int64) (*Repo, *syncGate) {
	t.Helper()
	g := &syncGate{syncing: make(chan struct{}), release: make(chan struct{})}
	fs := wal.NewFaultFS()
	fs.SyncHook = func() error {
		if g.armed.CompareAndSwap(true, false) {
			close(g.syncing)
			<-g.release
		}
		return nil
	}
	db, err := sqldb.OpenDurable("", sqldb.DurableOptions{FS: fs, Sync: wal.SyncAlways, SegmentSize: segmentSize, CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	r, err := Open(db)
	if err != nil {
		t.Fatal(err)
	}
	return r, g
}

// A replaced mapping's new ID and its rows become visible to readers in
// one step. The commit publishes the rows before its fsync
// returns; a reader that could still resolve the mapping key to the old ID
// in that window would read a mapping with no associations.
func TestReplaceMappingPublishesCacheWithCommit(t *testing.T) {
	r, g := gatedRepo(t)
	const n = 20
	if err := r.Atomic(func(b *Batch) error { return pairBatch(b, "A", "B", n) }); err != nil {
		t.Fatal(err)
	}
	old, _, _ := r.FindRel(1, 2, RelFact)
	assocs, err := r.Associations(old)
	if err != nil || len(assocs) != n {
		t.Fatalf("setup: %d associations (%v)", len(assocs), err)
	}

	g.armed.Store(true)
	replaced := make(chan SourceRelID, 1)
	go func() {
		id, err := r.ReplaceMapping(1, 2, RelFact, assocs)
		if err != nil {
			t.Error(err)
		}
		replaced <- id
	}()
	<-g.syncing // the replacement is in the log and visible to snapshots

	type view struct {
		rel  SourceRelID
		rows int
	}
	seen := make(chan view, 1)
	go func() {
		rel, _, _ := r.FindRel(1, 2, RelFact)
		rows, err := r.Associations(rel)
		if err != nil {
			t.Error(err)
		}
		seen <- view{rel, len(rows)}
	}()
	// The rows and the cache are both published before the fsync, so the
	// reader needs no wait; one that waited would get through on release.
	var v view
	select {
	case v = <-seen:
	case <-time.After(100 * time.Millisecond):
	}
	close(g.release)
	id := <-replaced
	if v == (view{}) {
		v = <-seen
	}
	if v.rows != n || (v.rel != old && v.rel != id) {
		t.Fatalf("reader during the commit resolved mapping %d with %d rows; want %d rows under %d or %d",
			v.rel, v.rows, n, old, id)
	}
}

// While a ReplaceMapping is parked inside its commit's fsync, readers of
// the catalog and of cached objects return: no gam lock is held across
// the wait for durability.
func TestReadersDuringFsync(t *testing.T) {
	r, g := gatedRepo(t)
	readersDuringFsync(t, r, g, 20)
}

// A ReplaceMapping whose log record fills a small segment rotates inside
// WAL.Append, so the fsync held is the sealed segment's, inside
// Tx.Publish under the writer: the batch has published nothing yet, and
// the catalog readers return with the state before it.
func TestReadersDuringFsyncRotation(t *testing.T) {
	r, g := gatedRepoSegments(t, 4<<10)
	h := readersDuringFsync(t, r, g, 200)
	if t.Failed() {
		return
	}
	if h.segmentsAfter <= h.segments {
		t.Fatalf("WAL segments %d -> %d: the ReplaceMapping did not rotate", h.segments, h.segmentsAfter)
	}
	if h.heldGen != h.gen || h.heldPub != h.pub {
		t.Fatalf("during the rotation's fsync: generation %d, published %d; want %d, %d (nothing published)",
			h.heldGen, h.heldPub, h.gen, h.pub)
	}
}

// fsyncHold is what readersDuringFsync saw: the counters and WAL segments
// before the ReplaceMapping, the counters readers got while its first
// fsync was held, and the segments after it committed.
type fsyncHold struct {
	gen, pub, heldGen, heldPub uint64
	segments, segmentsAfter    int
}

// readersDuringFsync imports n associations from A to B, parks a
// ReplaceMapping of them in its first fsync and checks that Stats,
// Sources, SourceByName, FindMapping, a cached LookupObject(s),
// Generation and Published all return meanwhile.
func readersDuringFsync(t *testing.T, r *Repo, g *syncGate, n int) fsyncHold {
	t.Helper()
	if err := r.Atomic(func(b *Batch) error { return pairBatch(b, "A", "B", n) }); err != nil {
		t.Fatal(err)
	}
	old, _, _ := r.FindRel(1, 2, RelFact)
	assocs, err := r.Associations(old)
	if err != nil {
		t.Fatal(err)
	}
	acc1, err := r.LookupObject(1, "acc00001")
	if err != nil || acc1 == 0 {
		t.Fatalf("setup: LookupObject = %d, %v", acc1, err)
	}
	h := fsyncHold{gen: r.Generation(), pub: r.Published(), segments: r.db.WALStats().Segments}

	g.armed.Store(true)
	replaced := make(chan error, 1)
	go func() {
		_, err := r.ReplaceMapping(1, 2, RelFact, assocs)
		replaced <- err
	}()
	<-g.syncing
	type counters struct{ gen, pub uint64 }
	read, fail := make(chan counters, 1), make(chan error, 1)
	go func() {
		if _, err := r.Stats(); err != nil {
			fail <- err
			return
		}
		if srcs := r.Sources(); len(srcs) != 2 || r.SourceByName("a") == nil {
			fail <- fmt.Errorf("Sources = %v", srcs)
			return
		}
		if rel, _, err := r.FindMapping(1, 2); err != nil || rel == nil {
			fail <- fmt.Errorf("FindMapping = %v, %v", rel, err)
			return
		}
		if id, err := r.LookupObject(1, "acc00001"); err != nil || id != acc1 {
			fail <- fmt.Errorf("LookupObject = %d, %v; want %d", id, err, acc1)
			return
		}
		if ids, err := r.LookupObjects(1, []string{"acc00001"}); err != nil || ids[0] != acc1 {
			fail <- fmt.Errorf("LookupObjects = %v, %v; want %d", ids, err, acc1)
			return
		}
		read <- counters{r.Generation(), r.Published()}
	}()
	select {
	case c := <-read:
		h.heldGen, h.heldPub = c.gen, c.pub
	case err := <-fail:
		t.Error(err)
	case <-time.After(5 * time.Second):
		t.Error("readers waited for the fsync of a ReplaceMapping")
	}
	close(g.release)
	if err := <-replaced; err != nil {
		t.Fatal(err)
	}
	h.segmentsAfter = r.db.WALStats().Segments
	return h
}

// TestInsertLadderChunks: every n is cut into consecutive chunks of ladder
// sizes that cover rows 0…n-1 exactly once and in order, the tail using each
// smaller size at most once, and each chunk gets the text with as many value
// groups as it has rows.
func TestInsertLadderChunks(t *testing.T) {
	sizeOf := make(map[string]int)
	for i, sql := range assocInsert {
		if got := strings.Count(sql, "(?, ?, ?, ?)"); got != insertLadder[i] {
			t.Fatalf("ladder text %d has %d value groups, want %d", i, got, insertLadder[i])
		}
		sizeOf[sql] = insertLadder[i]
	}
	if len(sizeOf) != 9 {
		t.Fatalf("%d distinct INSERT texts per table, want 9", len(sizeOf))
	}
	for n := 0; n <= 1000; n++ {
		next, tail := 0, make(map[int]int)
		err := assocInsert.chunks(n, func(start, size int, sql string) error {
			if start != next || sizeOf[sql] != size {
				t.Fatalf("n=%d: chunk (start %d, size %d) with the %d-row text, want start %d", n, start, size, sizeOf[sql], next)
			}
			next += size
			if size != insertLadder[0] {
				tail[size]++
			}
			return nil
		})
		if err != nil || next != n {
			t.Fatalf("n=%d: chunks cover %d rows (err %v)", n, next, err)
		}
		for size, count := range tail {
			if count > 1 {
				t.Fatalf("n=%d: tail size %d used %d times", n, size, count)
			}
		}
	}
	failed := errors.New("stop")
	calls := 0
	if err := assocInsert.chunks(1000, func(int, int, string) error { calls++; return failed }); !errors.Is(err, failed) || calls != 1 {
		t.Fatalf("chunks after a failing chunk: err %v, %d calls", err, calls)
	}
}

// TestEnsureObjectsIDsAlignAcrossChunks: whatever the ladder makes of n new
// objects, they get consecutive IDs in spec order, aligned with specs.
func TestEnsureObjectsIDsAlignAcrossChunks(t *testing.T) {
	plainAndPinned(t, func(t *testing.T, r *Repo) {
		src, _, err := r.EnsureSource(Source{Name: "S"})
		if err != nil {
			t.Fatal(err)
		}
		made := 0
		for _, n := range []int{1, 199, 200, 201, 455, 1000} {
			specs := make([]ObjectSpec, n)
			for i := range specs {
				specs[i] = ObjectSpec{Accession: fmt.Sprintf("o%d", made+i), Text: fmt.Sprintf("text %d", made+i)}
			}
			ids, created, err := r.EnsureObjects(src.ID, specs)
			if err != nil || created != n {
				t.Fatalf("n=%d: created %d, err %v", n, created, err)
			}
			for i, id := range ids {
				if id != ObjectID(made+i+1) {
					t.Fatalf("n=%d: ids[%d] = %d, want %d", n, i, id, made+i+1)
				}
			}
			for _, i := range []int{0, n / 2, n - 1} {
				o, err := r.Object(ids[i])
				if err != nil || o == nil || o.Accession != specs[i].Accession || o.Text != specs[i].Text {
					t.Fatalf("n=%d: object %d = %+v (err %v), want %+v", n, ids[i], o, err, specs[i])
				}
			}
			made += n
		}
	})
}

// Evidence that is no score (NaN, ±Inf, outside [0, 1]) is rejected by
// ReplaceMapping and AddAssociations with an *EvidenceError naming the
// first bad association, and nothing is written: not the new rows, not a
// new mapping, and, for ReplaceMapping, not the deletion of the old one,
// even inside a batch that goes on to commit.
func TestInvalidEvidenceRejected(t *testing.T) {
	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.5, -math.SmallestNonzeroFloat64, 1.5, math.Nextafter(1, 2)}
	for _, ev := range bad {
		r := newRepo(t)
		s1, _, err := r.EnsureSource(Source{Name: "A"})
		if err != nil {
			t.Fatal(err)
		}
		s2, _, err := r.EnsureSource(Source{Name: "B"})
		if err != nil {
			t.Fatal(err)
		}
		ids, _, err := r.EnsureObjects(s1.ID, []ObjectSpec{{Accession: "a"}, {Accession: "b"}})
		if err != nil {
			t.Fatal(err)
		}
		old := []Assoc{{Object1: ids[0], Object2: ids[1], Evidence: 0.5}}
		rel, err := r.ReplaceMapping(s1.ID, s2.ID, RelFact, old)
		if err != nil {
			t.Fatal(err)
		}
		assocs := []Assoc{{Object1: ids[0], Object2: ids[0], Evidence: 1}, {Object1: ids[1], Object2: ids[0], Evidence: ev}}
		stats, gen, pub := mustStats(t, r), r.Generation(), r.Published()
		unchanged := func(entry string) {
			t.Helper()
			if got, err := r.Associations(rel); err != nil || !reflect.DeepEqual(got, old) {
				t.Fatalf("%s(%g): mapping holds %v, %v; want %v", entry, ev, got, err, old)
			}
			if got := mustStats(t, r); !reflect.DeepEqual(got, stats) || r.Generation() != gen || r.Published() != pub {
				t.Fatalf("%s(%g): stats %+v, generation %d, published %d; want %+v, %d, %d",
					entry, ev, got, r.Generation(), r.Published(), stats, gen, pub)
			}
		}
		check := func(entry string, err error) {
			t.Helper()
			var evErr *EvidenceError
			if !errors.As(err, &evErr) || evErr.Index != 1 || evErr.Assoc.Object1 != ids[1] {
				t.Fatalf("%s(%g) = %v, want an EvidenceError for association 1", entry, ev, err)
			}
		}
		_, err = r.ReplaceMapping(s1.ID, s2.ID, RelFact, assocs)
		check("ReplaceMapping", err)
		unchanged("ReplaceMapping")
		_, err = r.AddAssociations(rel, assocs, false)
		check("AddAssociations", err)
		unchanged("AddAssociations")
		// Inside a batch the rejected call leaves the batch as it was, so
		// committing it commits nothing.
		err = r.Atomic(func(b *Batch) error {
			_, err := b.ReplaceMapping(s1.ID, s2.ID, RelFact, assocs)
			check("Batch.ReplaceMapping", err)
			_, err = b.AddAssociations(rel, assocs, true)
			check("Batch.AddAssociations", err)
			if got, err := b.Associations(rel); err != nil || !reflect.DeepEqual(got, old) {
				t.Fatalf("inside the batch (%g): mapping holds %v, %v", ev, got, err)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got, err := r.Associations(rel); err != nil || !reflect.DeepEqual(got, old) {
			t.Fatalf("after the batch (%g): mapping holds %v, %v", ev, got, err)
		}
	}
}
