package sqldb

// Multi-version concurrency control (ROADMAP item 1). Storage keeps a
// version chain per row (rowVersion); every read resolves the newest
// version visible at its snapshot. Two runtime modes share that storage:
//
//   - Lock mode (the default, SetMVCC(false)): the original discipline.
//     Readers hold db.mu shared, writers exclusive; writes install
//     committed versions directly (beg = 0, "always visible") and chains
//     never grow past one version.
//
//   - MVCC mode (SetMVCC(true)): readers take NO database lock at all.
//     A statement (or transaction) captures a snapshot epoch at start and
//     registers it with the snapshot tracker; every access path resolves
//     row visibility against that epoch, synchronizing only on partition
//     locks held long enough to copy version pointers out of the row map.
//     UPDATE and DELETE writers run concurrently: each holds db.mu SHARED
//     plus the write latches (tablePart.w) of exactly the partitions it
//     touches, acquired in ascending partition order (latch.go), so
//     non-overlapping writers install provisional versions and run their
//     first-committer-wins checks fully in parallel and serialize only at
//     the WAL append + commit-epoch publication (db.commitMu). INSERT and
//     DDL keep the global writer + exclusive-mu path: the logical WAL
//     replays statements in commit order, so row-ID/AUTOINCREMENT
//     allocation must happen in that same order to keep a live database
//     byte-identical to a recovered one. Provisional versions are stamped
//     with the writing transaction's ID and published only AFTER the WAL
//     append (publishCommit), so a crash can never leave an
//     acknowledged-but-unlogged commit and a reader can never observe a
//     mid-statement state. Rollback unlinks the provisional versions.
//     First-committer-wins conflict detection raises ErrWriteConflict when
//     a transaction writes a row whose newest committed version postdates
//     the transaction's snapshot — including, now that writers overlap, a
//     row carrying another in-flight transaction's provisional version.
//
// Version reclamation: a background vacuum goroutine (vacuumLoop, started
// by SetMVCC(true), stopped by SetMVCC(false) and DB.Close) wakes on a
// ticker and trims every chain to the newest version visible at the
// oldest active snapshot; the public Vacuum does the same on demand.
// Vacuum runs under db.writer + exclusive db.mu, which excludes latched
// writers (they hold db.mu shared), checkpoints, and commit publication.
// A retention budget (SetSnapshotRetention) bounds how long a snapshot
// may pin the horizon: older registrations are revoked, their owners'
// next operation fails with ErrSnapshotTooOld, and the horizon advances.

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// ErrWriteConflict is returned (wrapped) by write statements inside an
// MVCC transaction when a row they target was committed by another
// transaction after this transaction's snapshot was taken, or currently
// carries another in-flight transaction's provisional version. The
// transaction should be rolled back and retried. Auto-commit UPDATE and
// DELETE statements retry transient conflicts internally but surface the
// error when the row stays claimed by an open transaction.
var ErrWriteConflict = errors.New("sqldb: write conflict (row committed after transaction snapshot); retry the transaction")

// ErrSnapshotTooOld is returned by transactions and cursors whose
// snapshot was revoked by the retention budget (SetSnapshotRetention):
// the versions the snapshot pinned may since have been vacuumed. The
// transaction must be rolled back and retried on a fresh snapshot.
var ErrSnapshotTooOld = errors.New("sqldb: snapshot too old (exceeded the snapshot retention budget); retry on a fresh snapshot")

// provisionalBit marks a version's beg stamp as "uncommitted": the low
// bits then carry the writing transaction's ID instead of a commit epoch.
// Commit epochs are small monotone counters, so the top bit is never set
// on a committed stamp.
const provisionalBit = uint64(1) << 63

// snapLatest is the snapshot epoch that admits every committed version
// (lock-mode visibility: read the newest committed state).
const snapLatest = provisionalBit - 1

// rowVersion is one version of one row. Versions form a singly linked
// chain from newest to oldest; the row map holds the head. The row slice
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
	// lockPart marks the lock-free (MVCC) read path: row-map access must
	// take the partition read lock because no database lock excludes
	// writers. Lock-mode readers run under db.mu and skip it.
	lockPart bool
}

// visLatest is lock-mode visibility: newest committed state, reads
// synchronized by db.mu.
var visLatest = visibility{snap: snapLatest}

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

// writeCtx carries one write statement's MVCC context through the
// executor into storage. The zero value is lock-mode: versions install
// committed (beg 0) and no conflict detection runs.
type writeCtx struct {
	mvcc bool
	// latched marks the concurrent write path: the statement holds db.mu
	// SHARED plus the write latches of the partitions it touches, rather
	// than the database exclusively. Reads must then take partition read
	// locks (vis().lockPart).
	latched bool
	tx      uint64 // provisional stamp for installed versions
	snap    uint64 // first-committer-wins conflict horizon
	// installed accumulates the provisional versions this statement (or
	// transaction) created, in install order; publishCommit stamps them
	// with the commit epoch, rollback unlinks them via the undo log.
	installed []*rowVersion
}

// vis is the visibility write statements read under: the newest committed
// state plus the transaction's own provisional writes. On the global path
// the writer holds the database exclusively, so no partition locking is
// needed; on the latched path only the touched partitions are held, so
// reads that may probe other partitions (unique checks, candidate
// collection) take partition read locks.
func (w *writeCtx) vis() visibility {
	return visibility{snap: snapLatest, tx: w.tx, lockPart: w.latched}
}

// stamp returns the beg value for a freshly installed version.
func (w *writeCtx) stamp() uint64 {
	if w.mvcc {
		return provisionalBit | w.tx
	}
	return 0 // lock mode: committed, visible to every snapshot
}

// ---------------------------------------------------------------------------
// Snapshot tracking

// snapEntry is the bookkeeping for one active snapshot epoch: how many
// registrations share it and when the earliest of them was acquired (the
// timestamp the retention budget is enforced against).
type snapEntry struct {
	n  int
	at time.Time
}

// snapTracker is the multiset of active snapshot epochs: statements,
// cursors and transactions register on start and release on finish, and
// vacuum reclaims only below the oldest registered epoch. The retention
// budget revokes registrations that outstay their welcome: a revoked
// epoch stops pinning the vacuum horizon, and its owners observe
// ErrSnapshotTooOld on their next operation.
type snapTracker struct {
	mu      sync.Mutex
	active  map[uint64]*snapEntry
	revoked map[uint64]int // registrations revoked but not yet released
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
		s.active = make(map[uint64]*snapEntry)
	}
	ent := s.active[e]
	if ent == nil {
		ent = &snapEntry{at: time.Now()}
		s.active[e] = ent
	}
	ent.n++
	return e
}

// release drops one registration of epoch e, consuming a revocation
// instead when the registration was already aborted by the retention
// budget (so a revoked-then-released snapshot does not leak bookkeeping).
func (s *snapTracker) release(e uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ent := s.active[e]; ent != nil {
		if ent.n <= 1 {
			delete(s.active, e)
		} else {
			ent.n--
		}
		return
	}
	if n := s.revoked[e]; n > 0 {
		if n == 1 {
			delete(s.revoked, e)
		} else {
			s.revoked[e] = n - 1
		}
	}
}

// oldest returns the oldest active snapshot epoch, or def when none is
// registered. Revoked registrations no longer pin the horizon.
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
	for _, ent := range s.active {
		n += ent.n
	}
	return n
}

// revokeOlder aborts every registration acquired before cutoff at an
// epoch older than cur, returning how many were revoked. Snapshots AT the
// current epoch pin nothing reclaimable (no commit has superseded them),
// so they are left alone no matter their age.
func (s *snapTracker) revokeOlder(cutoff time.Time, cur uint64) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for e, ent := range s.active {
		if e >= cur || !ent.at.Before(cutoff) {
			continue
		}
		if s.revoked == nil {
			s.revoked = make(map[uint64]int)
		}
		s.revoked[e] += ent.n
		n += ent.n
		delete(s.active, e)
	}
	return n
}

// isRevoked reports whether epoch e has outstanding revoked
// registrations (the owner should fail with ErrSnapshotTooOld).
func (s *snapTracker) isRevoked(e uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.revoked[e] > 0
}

// snapRevoked reports whether the snapshot was aborted by the retention
// budget. The retention atomic gates the tracker lock so the check is a
// single atomic load on databases that never set a budget (every cursor
// step runs it).
func (db *DB) snapRevoked(snap uint64) bool {
	return db.retention.Load() != 0 && db.snaps.isRevoked(snap)
}

// SetSnapshotRetention bounds how long a snapshot (a transaction's or a
// cursor's) may pin the vacuum horizon. Registrations older than the
// budget are revoked by the background vacuum's next pass: their owners'
// next operation fails with ErrSnapshotTooOld, and version chains above
// the revoked horizon become reclaimable. A zero (or negative) budget —
// the default — never revokes.
func (db *DB) SetSnapshotRetention(d time.Duration) {
	if d < 0 {
		d = 0
	}
	db.retention.Store(int64(d))
}

// ---------------------------------------------------------------------------
// Mode, epoch publication, stats

// SetMVCC switches between lock-mode and MVCC execution at runtime. The
// switch drains in-flight transactions first — new Begins block until the
// switch completes, active transactions run to Commit/Rollback — so a
// mode flip can never strand another discipline's provisional versions,
// then bumps the schema generation so open cursors — built under the
// other locking discipline — invalidate instead of mixing disciplines.
// Enabling MVCC starts the background vacuum goroutine; disabling stops
// it. Calling SetMVCC from a goroutine that itself holds an open
// transaction deadlocks, exactly like any other whole-database operation.
func (db *DB) SetMVCC(on bool) {
	db.switchMu.Lock()
	for db.switching {
		db.switchCond.Wait()
	}
	if db.mvcc.Load() == on {
		db.switchMu.Unlock()
		return
	}
	db.switching = true
	for db.activeTx > 0 {
		db.switchCond.Wait()
	}
	db.switchMu.Unlock()

	db.writer.Lock()
	db.mu.Lock()
	db.mvcc.Store(on)
	db.bumpSchemaGen()
	db.mu.Unlock()
	db.writer.Unlock()

	if on {
		db.startVacuumer()
	} else {
		db.stopVacuumer()
	}

	db.switchMu.Lock()
	db.switching = false
	db.switchCond.Broadcast()
	db.switchMu.Unlock()
}

// txEnter registers a starting transaction with the mode-switch gate:
// Begins block while a SetMVCC drain is in progress, so the mode a
// transaction observes at Begin is the mode it finishes under.
func (db *DB) txEnter() {
	db.switchMu.Lock()
	for db.switching {
		db.switchCond.Wait()
	}
	db.activeTx++
	db.switchMu.Unlock()
}

// txExit balances txEnter when the transaction finishes.
func (db *DB) txExit() {
	db.switchMu.Lock()
	db.activeTx--
	if db.activeTx == 0 {
		db.switchCond.Broadcast()
	}
	db.switchMu.Unlock()
}

// MVCCEnabled reports whether snapshot-isolation execution is on.
func (db *DB) MVCCEnabled() bool { return db.mvcc.Load() }

// publishCommit makes a write statement's (or transaction's) installed
// versions durable-visible: every provisional version is stamped with the
// next commit epoch, and the global epoch is advanced LAST, so a reader
// that captures the new epoch is guaranteed to observe every stamp
// (release/acquire on db.epoch).
//
// The caller MUST have appended the commit's WAL record first — nothing
// may become visible to lock-free readers before it is in the log — and
// must hold either the database exclusively (writer + exclusive db.mu:
// the INSERT/DDL path and recovery) or db.mu shared + db.commitMu (the
// latched UPDATE/DELETE path). Both serialize epoch advances: exclusive
// mu excludes every latched committer, and latched committers exclude
// each other on commitMu. gmlint's mvccepoch checks the publication
// sites and the append/serialization-before-publish order.
func (db *DB) publishCommit(installed []*rowVersion) {
	if len(installed) == 0 {
		return
	}
	e := db.epoch.Load() + 1
	for _, v := range installed {
		v.beg.Store(e)
	}
	db.epoch.Store(e)
	db.mvccCommits.Add(1)
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
// (each table's hist set), not table size, and a tick with no commits
// since the last pass skips without taking any lock, so a short period
// keeps chains short without taxing idle or insert-only databases.
const DefaultVacuumInterval = 50 * time.Millisecond

// vacuumer is the background vacuum goroutine's lifecycle handle,
// mirroring the checkpointer's stop/done pattern.
type vacuumer struct {
	stop chan struct{}
	done chan struct{}
}

// SetVacuumInterval tunes the background vacuum tick period (restarting
// the goroutine when it is running). Non-positive restores the default.
func (db *DB) SetVacuumInterval(d time.Duration) {
	db.vacMu.Lock()
	db.vacInterval = d
	running := db.vac != nil
	db.vacMu.Unlock()
	if running {
		db.stopVacuumer()
		db.startVacuumer()
	}
}

// startVacuumer launches the background vacuum goroutine (idempotent).
func (db *DB) startVacuumer() {
	db.vacMu.Lock()
	defer db.vacMu.Unlock()
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

// stopVacuumer stops the background vacuum goroutine and waits for it to
// exit (idempotent; called by SetMVCC(false) and DB.Close). Never called
// with database locks held — the in-flight tick may be waiting for them.
func (db *DB) stopVacuumer() {
	db.vacMu.Lock()
	v := db.vac
	db.vac = nil
	db.vacMu.Unlock()
	if v != nil {
		close(v.stop)
		<-v.done
	}
}

// vacuumLoop is the background vacuum goroutine: every tick it enforces
// the snapshot retention budget and reclaims versions below the oldest
// live snapshot.
func (db *DB) vacuumLoop(v *vacuumer, interval time.Duration) {
	defer close(v.done)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-v.stop:
			return
		case <-t.C:
			db.vacuumTick()
		}
	}
}

// vacuumTick runs one background pass: revoke over-budget snapshots,
// then vacuum — but only when commits have landed since the last pass,
// so an idle database pays one atomic load per tick and no locks.
func (db *DB) vacuumTick() {
	revoked := 0
	if ret := time.Duration(db.retention.Load()); ret > 0 {
		revoked = db.snaps.revokeOlder(time.Now().Add(-ret), db.epoch.Load())
		if revoked > 0 {
			db.snapsAborted.Add(uint64(revoked))
		}
	}
	c := db.mvccCommits.Load()
	if c == db.lastVacuum.Load() && revoked == 0 {
		return
	}
	db.writer.Lock()
	defer db.writer.Unlock()
	db.mu.Lock()
	defer db.mu.Unlock()
	if !db.mvcc.Load() {
		return
	}
	db.lastVacuum.Store(c)
	db.vacuumLocked()
	db.bgVacuums.Add(1)
}

// Vacuum reclaims row versions no active snapshot can see and removes the
// index entries and tombstoned rows they kept alive. The background
// vacuum goroutine does this automatically while MVCC is on; explicit
// calls are useful after bulk updates and in tests. On a lock-mode
// database Vacuum is a documented no-op that runs (and counts) nothing:
// lock-mode writes never grow version chains, so there is nothing to
// reclaim. Returns the number of versions reclaimed.
func (db *DB) Vacuum() int {
	if !db.mvcc.Load() {
		return 0
	}
	db.writer.Lock()
	defer db.writer.Unlock()
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.vacuumLocked()
}

// vacuumLocked trims version chains below the oldest active snapshot.
// Caller holds db.writer and exclusive db.mu, which excludes latched
// writers, commit publication and checkpoints. In-flight transactions may
// own provisional versions (they hold no locks between statements);
// vacuum preserves them — a provisional stamp is above every horizon.
func (db *DB) vacuumLocked() int {
	horizon := db.snaps.oldest(db.epoch.Load())
	reclaimed := 0
	for _, t := range db.tableMap() {
		reclaimed += t.vacuum(horizon)
	}
	db.vacuumRuns.Add(1)
	db.versionsVacuumed.Add(uint64(reclaimed))
	return reclaimed
}

// MVCCStats is a snapshot of the MVCC subsystem (served as sql_mvcc on
// /api/stats).
type MVCCStats struct {
	Enabled          bool   `json:"enabled"`
	Epoch            uint64 `json:"epoch"`
	ActiveSnapshots  int    `json:"active_snapshots"`
	Commits          uint64 `json:"commits"`
	Aborts           uint64 `json:"aborts"`
	Conflicts        uint64 `json:"conflicts"`
	VacuumRuns       uint64 `json:"vacuum_runs"`
	VersionsVacuumed uint64 `json:"versions_vacuumed"`
	// LatchWaits counts contended partition write-latch acquisitions: a
	// writer that found a latch held and had to wait. The concurrency
	// dividend shows up as this staying near zero for disjoint writers.
	LatchWaits uint64 `json:"latch_waits"`
	// BackgroundVacuums counts passes run by the background goroutine
	// (VacuumRuns additionally includes explicit Vacuum calls).
	BackgroundVacuums uint64 `json:"background_vacuums"`
	// SnapshotsAborted counts registrations revoked by the retention
	// budget (their owners observe ErrSnapshotTooOld).
	SnapshotsAborted uint64 `json:"snapshots_aborted"`
}

// MVCCStats returns the MVCC counters.
func (db *DB) MVCCStats() MVCCStats {
	return MVCCStats{
		Enabled:           db.mvcc.Load(),
		Epoch:             db.epoch.Load(),
		ActiveSnapshots:   db.snaps.count(),
		Commits:           db.mvccCommits.Load(),
		Aborts:            db.mvccAborts.Load(),
		Conflicts:         db.mvccConflicts.Load(),
		VacuumRuns:        db.vacuumRuns.Load(),
		VersionsVacuumed:  db.versionsVacuumed.Load(),
		LatchWaits:        db.latchWaits.Load(),
		BackgroundVacuums: db.bgVacuums.Load(),
		SnapshotsAborted:  db.snapsAborted.Load(),
	}
}

// ---------------------------------------------------------------------------
// Lock-free sorted ID slices

// idSlice publishes a sorted row-ID slice so MVCC readers can iterate it
// with no lock at all. The representation is a backing array plus an
// atomic published length inside one immutable header, so the insert hot
// path — a blind append of a monotone row ID — is a plain element store
// followed by a length store (release) with no allocation; a reader loads
// the header, then the length (acquire), and sees every element the
// length covers. Appends are the only in-place mutation: any splice,
// compaction or truncation publishes a freshly allocated header, because
// shrinking a length and later appending would overwrite an element a
// stale reader may still be iterating.
type idSlice struct {
	p atomic.Pointer[idArr]
}

// idArr is one published generation of an idSlice: buf never moves or
// shrinks for the lifetime of the header, and buf[:n] is the readable
// prefix.
type idArr struct {
	buf []int64
	n   atomic.Int64
}

// load returns the current published slice (nil when empty). The returned
// slice must be treated as immutable.
func (s *idSlice) load() []int64 {
	a := s.p.Load()
	if a == nil {
		return nil
	}
	return a.buf[:a.n.Load()]
}

// append adds id at the end (caller — the single writer — guarantees id
// exceeds every present element; ID-slice mutation happens only under the
// exclusive database lock, see table.go). Steady state is
// allocation-free; the backing array doubles when full.
func (s *idSlice) append(id int64) {
	a := s.p.Load()
	if a == nil || int(a.n.Load()) == len(a.buf) {
		var n int
		if a != nil {
			n = int(a.n.Load())
		}
		capacity := 2 * n
		if capacity < 16 {
			capacity = 16
		}
		grown := &idArr{buf: make([]int64, capacity)}
		if a != nil {
			copy(grown.buf, a.buf[:n])
		}
		grown.n.Store(int64(n))
		s.p.Store(grown)
		a = grown
	}
	n := a.n.Load()
	a.buf[n] = id
	a.n.Store(n + 1)
}

// store publishes ids as the new contents. The caller must pass a freshly
// allocated slice it will never mutate afterwards.
func (s *idSlice) store(ids []int64) {
	a := &idArr{buf: ids}
	a.n.Store(int64(len(ids)))
	s.p.Store(a)
}

// removeRange splices the IDs in [lo, hi) out (fresh allocation).
func (s *idSlice) removeRange(lo, hi int64) {
	ids := s.load()
	from, to := searchID(ids, lo), searchID(ids, hi)
	if from == to {
		return
	}
	fresh := make([]int64, 0, len(ids)-(to-from))
	fresh = append(fresh, ids[:from]...)
	fresh = append(fresh, ids[to:]...)
	s.store(fresh)
}

// insertSorted adds id at its sorted position, reporting whether it was
// already present. A trailing insert reuses the append fast path;
// interior inserts allocate fresh.
func (s *idSlice) insertSorted(id int64) (present bool) {
	ids := s.load()
	pos := searchID(ids, id)
	if pos < len(ids) && ids[pos] == id {
		return true
	}
	if pos == len(ids) {
		s.append(id)
		return false
	}
	fresh := make([]int64, 0, len(ids)+1)
	fresh = append(fresh, ids[:pos]...)
	fresh = append(fresh, id)
	fresh = append(fresh, ids[pos:]...)
	s.store(fresh)
	return false
}

// sortInPlace re-sorts the published contents (bulk-load finalization
// only: the caller guarantees no concurrent readers exist yet).
func (s *idSlice) sortInPlace() {
	a := s.p.Load()
	if a == nil {
		return
	}
	sortInt64s(a.buf[:a.n.Load()])
}

// searchID returns the insertion position of id in the sorted slice.
func searchID(ids []int64, id int64) int {
	lo, hi := 0, len(ids)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ids[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
