package sqldb

// Multi-version concurrency control: snapshot isolation is the engine's
// only concurrency mode. Storage keeps a version chain per row
// (rowVersion); every read resolves the newest version visible at its
// snapshot.
//
// Readers take NO database lock at all. A statement (or transaction)
// captures a snapshot epoch at start and registers it with the snapshot
// tracker; every access path resolves row visibility against that epoch,
// loading chain heads from their row slots atomically. There is one
// writer at a time: every write statement holds db.writer, the
// database's one lock — an auto-commit statement for itself, a
// transaction from Begin, before its snapshot is taken, until Commit or
// Rollback. A transaction therefore writes on the state it read: no
// commit lands between its snapshot and its writes. The logical WAL
// replays statements in commit order, so writes must happen in that same
// order to keep a live database byte-identical to a recovered one: WAL
// order = commit order = publication order. Provisional versions are
// stamped with the writing transaction's ID and published only AFTER the
// WAL append (publishCommit), so a crash can never leave an
// acknowledged-but-unlogged commit and a reader can never observe a
// mid-statement or mid-transaction state: a commit is visible whole or
// not at all. Rollback unlinks the provisional versions.
//
// Version reclamation: a commit that leaves version history (an UPDATE's
// superseded version, a DELETE's tombstone) starts the background vacuum
// goroutine (vacuumLoop) unless one is running. It wakes on a ticker,
// trims every chain to the newest version visible at the oldest active
// snapshot, and exits once no table carries history, so a database with
// nothing to reclaim owns no goroutine (and an unreferenced one can be
// collected). DB.Close stops it; the public Vacuum does the same work on
// demand. Vacuum runs under db.writer, which excludes writers,
// checkpoints, and commit publication. An open snapshot pins the horizon
// until it is released.

import (
	"sync"
	"sync/atomic"
	"time"
)

// provisionalBit marks a version's beg stamp as "uncommitted": the low
// bits then carry the writing transaction's ID instead of a commit epoch.
// Commit epochs are small monotone counters, so the top bit is never set
// on a committed stamp.
const provisionalBit = uint64(1) << 63

// snapLatest is the snapshot epoch that admits every committed version:
// writers resolve the newest committed state (plus their own provisional
// versions) at it.
const snapLatest = provisionalBit - 1

// rowVersion is one version of one row. Versions form a singly linked
// chain from newest to oldest; the row's slot holds the head. The row slice
// is immutable once the version is published; beg and next are atomic so
// lock-free readers can walk a chain while a commit publishes epochs or a
// vacuum truncates tails below every active snapshot.
type rowVersion struct {
	row  []Value // nil = deletion tombstone
	beg  atomic.Uint64
	next atomic.Pointer[rowVersion]
}

// visibility selects which version of each row a read observes.
type visibility struct {
	// snap admits committed versions with beg <= snap. snapLatest reads
	// the newest committed state.
	snap uint64
	// tx, when non-zero, additionally admits provisional versions written
	// by this transaction (read-your-own-writes).
	tx uint64
}

// visible returns the newest version of the chain visible under vis, or
// nil when no version qualifies.
func (v *rowVersion) visible(vis visibility) *rowVersion {
	for ; v != nil; v = v.next.Load() {
		b := v.beg.Load()
		if b&provisionalBit != 0 {
			if vis.tx != 0 && b&^provisionalBit == vis.tx {
				return v
			}
			continue
		}
		if b <= vis.snap {
			return v
		}
	}
	return nil
}

// resolve returns the visible row contents under vis (nil for invisible
// rows and deletion tombstones).
func (v *rowVersion) resolve(vis visibility) []Value {
	if w := v.visible(vis); w != nil {
		return w.row
	}
	return nil
}

// chainHasKey reports whether any version of the chain (committed or
// provisional) carries the given key in column col. The index keeps one
// (key, row) entry while any version still references the key, so entry
// insertion/removal consults the whole chain.
func chainHasKey(v *rowVersion, col int, key Value) bool {
	for ; v != nil; v = v.next.Load() {
		if v.row == nil {
			continue
		}
		k := v.row[col]
		if key == nil {
			if k == nil {
				return true
			}
			continue
		}
		if k != nil && Compare(k, key) == 0 {
			return true
		}
	}
	return false
}

// writeCtx carries one write statement's transaction context through the
// executor into storage.
type writeCtx struct {
	tx uint64 // provisional stamp for installed versions
	// installed accumulates the provisional versions this statement (or
	// transaction) created, in install order; publishCommit stamps them
	// with the commit epoch, rollback unlinks them via the undo log.
	installed []*rowVersion
}

// vis is the visibility write statements read under: the newest committed
// state plus the transaction's own provisional writes.
func (w *writeCtx) vis() visibility {
	return visibility{snap: snapLatest, tx: w.tx}
}

// stamp returns the beg value for a freshly installed version: provisional,
// owned by the writing transaction until publishCommit stamps the commit
// epoch.
func (w *writeCtx) stamp() uint64 { return provisionalBit | w.tx }

// ---------------------------------------------------------------------------
// Snapshot tracking

// snapTracker is the multiset of active snapshot epochs (epoch →
// registrations): statements, cursors and transactions register on start
// and release on finish, and vacuum reclaims only below the oldest
// registered epoch.
type snapTracker struct {
	mu     sync.Mutex
	active map[uint64]int
}

// acquire registers a snapshot at the database's current epoch and
// returns it. The epoch is read under the tracker lock, so vacuum — which
// computes its horizon under the same lock — can never miss a snapshot
// that was captured before the horizon was fixed.
func (s *snapTracker) acquire(db *DB) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := db.epoch.Load()
	if s.active == nil {
		s.active = make(map[uint64]int)
	}
	s.active[e]++
	return e
}

// release drops one registration of epoch e.
func (s *snapTracker) release(e uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.active[e] <= 1 {
		delete(s.active, e)
	} else {
		s.active[e]--
	}
}

// oldest returns the oldest active snapshot epoch, or def when none is
// registered.
func (s *snapTracker) oldest(def uint64) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	min := def
	for e := range s.active {
		if e < min {
			min = e
		}
	}
	return min
}

// count returns how many snapshots are currently registered.
func (s *snapTracker) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, c := range s.active {
		n += c
	}
	return n
}

// ---------------------------------------------------------------------------
// Epoch publication

// publishCommit makes a write statement's (or transaction's) installed
// versions durable-visible: every provisional version is stamped with the
// next commit epoch, and the global epoch is advanced LAST, so a reader
// that captures the new epoch is guaranteed to observe every stamp
// (release/acquire on db.epoch). A commit that leaves version history — a
// version chained onto an older one, or a tombstone — starts the
// background vacuumer.
//
// The caller MUST have appended the commit's WAL record first — nothing
// may become visible to lock-free readers before it is in the log — unless
// it is recovery replaying a record read from the log, and must hold
// db.writer, which serializes epoch advances in WAL order. gmlint's
// mvccepoch checks the publication sites and the append-before-publish
// order.
func (db *DB) publishCommit(installed []*rowVersion) {
	if len(installed) == 0 {
		return
	}
	e := db.epoch.Load() + 1
	hist := false
	for _, v := range installed {
		v.beg.Store(e)
		hist = hist || v.row == nil || v.next.Load() != nil
	}
	db.epoch.Store(e)
	db.mvccCommits.Add(1)
	if hist {
		db.startVacuumer()
	}
}

// abortProvisional is the bookkeeping counterpart of publishCommit for
// rolled-back writes: the undo log has already unlinked the versions;
// this only records the abort. Split out so the lint invariant "beg
// stamps flow only through the commit/abort accessors" has a single
// audited publication site.
func (db *DB) abortProvisional(installed []*rowVersion) {
	if len(installed) > 0 {
		db.mvccAborts.Add(1)
	}
}

// ---------------------------------------------------------------------------
// Vacuum

// DefaultVacuumInterval is the background vacuum goroutine's tick period.
// Vacuum cost is proportional to the number of rows with version history
// (each table's hist set), not table size, and a tick that finds nothing
// new to reclaim takes no database lock, so a short period keeps chains
// short without taxing the writers.
const DefaultVacuumInterval = 50 * time.Millisecond

// vacuumer is the background vacuum goroutine's lifecycle handle,
// mirroring the checkpointer's stop/done pattern.
type vacuumer struct {
	stop chan struct{}
	done chan struct{}
}

// vacuumMark is what a background pass depends on: a pass can reclaim
// nothing new unless a commit, an abort, a Vacuum, a schema change (DROP
// TABLE, Restore) or a released snapshot moved it since the last pass.
type vacuumMark struct {
	commits, aborts, runs, gen, horizon uint64
}

// mark reads the current vacuumMark.
func (db *DB) mark() vacuumMark {
	return vacuumMark{
		commits: db.mvccCommits.Load(),
		aborts:  db.mvccAborts.Load(),
		runs:    db.vacuumRuns.Load(),
		gen:     db.gen.Load(),
		horizon: db.snaps.oldest(db.epoch.Load()),
	}
}

// startVacuumer launches the background vacuum goroutine unless one is
// running. Caller holds db.writer (publishCommit's committers do).
func (db *DB) startVacuumer() {
	if db.vac != nil {
		return
	}
	iv := db.vacInterval
	if iv <= 0 {
		iv = DefaultVacuumInterval
	}
	v := &vacuumer{stop: make(chan struct{}), done: make(chan struct{})}
	db.vac = v
	go db.vacuumLoop(v, iv)
}

// stopVacuumer stops the background vacuum goroutine, waits for it to
// exit and reports whether one was running (idempotent; called by
// DB.Close). It holds db.writer only to unregister the goroutine, never
// while waiting: the in-flight tick may be waiting for the writer.
func (db *DB) stopVacuumer() bool {
	db.writer.Lock()
	v := db.vac
	db.vac = nil
	db.writer.Unlock()
	if v != nil {
		close(v.stop)
		<-v.done
	}
	return v != nil
}

// vacuumLoop is the background vacuum goroutine: every tick it reclaims
// versions below the oldest live snapshot, and it exits once nothing is
// left to reclaim.
func (db *DB) vacuumLoop(v *vacuumer, interval time.Duration) {
	defer close(v.done)
	t := time.NewTicker(interval)
	defer t.Stop()
	var last vacuumMark
	for {
		select {
		case <-v.stop:
			return
		case <-t.C:
			var retired bool
			if last, retired = db.vacuumTick(v, last); retired {
				return
			}
		}
	}
}

// vacuumTick runs one background pass, but only when something since the
// previous pass (last) can have made versions reclaimable, and returns
// the mark the pass ran at. A pass that leaves no history retires v
// under the writer, so no committer can add history between the pass and
// the retirement: the next one that does starts a fresh goroutine.
func (db *DB) vacuumTick(v *vacuumer, last vacuumMark) (vacuumMark, bool) {
	if db.mark() == last {
		return last, false
	}
	db.writer.Lock()
	defer db.writer.Unlock()
	m := db.mark()
	_, hist := db.vacuumLocked()
	db.bgVacuums.Add(1)
	if !hist {
		if db.vac == v {
			db.vac = nil
		}
		return m, true
	}
	m.runs++ // this pass
	return m, false
}

// Vacuum reclaims row versions no active snapshot can see and removes the
// index entries and tombstoned rows they kept alive. The background
// vacuum goroutine does this automatically; explicit calls are useful
// after bulk updates and in tests. Returns the number of versions
// reclaimed.
func (db *DB) Vacuum() int {
	db.writer.Lock()
	defer db.writer.Unlock()
	n, _ := db.vacuumLocked()
	return n
}

// vacuumLocked trims version chains below the oldest active snapshot and
// reports how many versions it reclaimed and whether any table still
// carries history. Caller holds db.writer, which excludes writers, commit
// publication and checkpoints; a transaction holds db.writer from Begin,
// so no provisional version exists during a pass.
func (db *DB) vacuumLocked() (reclaimed int, hist bool) {
	horizon := db.snaps.oldest(db.epoch.Load())
	for _, t := range db.tableMap() {
		reclaimed += t.vacuum(horizon)
		hist = hist || len(t.hist) > 0
	}
	db.vacuumRuns.Add(1)
	db.versionsVacuumed.Add(uint64(reclaimed))
	return reclaimed, hist
}

// MVCCStats is a snapshot of the MVCC subsystem (served as sql_mvcc on
// /api/stats).
type MVCCStats struct {
	Epoch           uint64 `json:"epoch"`
	ActiveSnapshots int    `json:"active_snapshots"`
	Commits         uint64 `json:"commits"`
	Aborts          uint64 `json:"aborts"`
	// Conflicts counted first-committer-wins write conflicts, which a
	// transaction that takes the writer at Begin cannot meet. bench/e2e
	// still reads it; it is deleted when bench/ is next unfrozen
	// (ROADMAP item 2).
	//
	// Deprecated: writers serialize from Begin; this stays zero.
	Conflicts        uint64 `json:"conflicts"`
	VacuumRuns       uint64 `json:"vacuum_runs"`
	VersionsVacuumed uint64 `json:"versions_vacuumed"`
	// LatchWaits is the counter of the deleted partition write latches.
	// bench/e2e still reads it; it is deleted when bench/ is next
	// unfrozen (ROADMAP item 2).
	//
	// Deprecated: writers serialize on one lock; this stays zero.
	LatchWaits uint64 `json:"latch_waits"`
	// BackgroundVacuums counts passes run by the background goroutine
	// (VacuumRuns additionally includes explicit Vacuum calls).
	BackgroundVacuums uint64 `json:"background_vacuums"`
}

// MVCCStats returns the MVCC counters.
func (db *DB) MVCCStats() MVCCStats {
	return MVCCStats{
		Epoch:             db.epoch.Load(),
		ActiveSnapshots:   db.snaps.count(),
		Commits:           db.mvccCommits.Load(),
		Aborts:            db.mvccAborts.Load(),
		VacuumRuns:        db.vacuumRuns.Load(),
		VersionsVacuumed:  db.versionsVacuumed.Load(),
		BackgroundVacuums: db.bgVacuums.Load(),
	}
}
