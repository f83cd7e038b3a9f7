// Stub of the lock surface of genmapper/internal/sqldb. The mutex fields
// are unexported, so ordered and inverted acquisitions both live here.
// Documented order:
// DB.writer < DB.mu < tablePart.w < Table.histMu < tablePart.mu < DB.commitMu.
package sqldb

import "sync"

type tablePart struct {
	w  sync.Mutex
	mu sync.RWMutex
}

type Table struct {
	histMu sync.Mutex
	parts  []*tablePart
}

type durability struct{}

func (d *durability) wait(lsn uint64) error { return nil }

type DB struct {
	writer   sync.Mutex
	mu       sync.RWMutex
	commitMu sync.Mutex
	parts    []*tablePart
	durable  *durability
}

func execOrdered(db *DB) {
	db.writer.Lock()
	db.mu.Lock()
	p := db.parts[0]
	p.mu.Lock()
	p.mu.Unlock()
	db.mu.Unlock()
	db.writer.Unlock()
}

func execInverted(db *DB) {
	db.mu.Lock()
	db.writer.Lock() // want `lock order violation: db\.writer acquired while holding db\.mu`
	db.writer.Unlock()
	db.mu.Unlock()
}

func partThenDB(db *DB, p *tablePart) {
	p.mu.Lock()
	db.mu.RLock() // want `lock order violation: db\.mu acquired while holding tablePart\.mu`
	db.mu.RUnlock()
	p.mu.Unlock()
}

func doubleLock(db *DB) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.mu.Lock() // want `db\.mu acquired while already held`
}

func fsyncUnderLock(db *DB, lsn uint64) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.durable.wait(lsn) // want `durability\.wait call while holding db\.mu`
}

func groupCommit(db *DB, lsn uint64) error {
	db.mu.Lock()
	db.mu.Unlock()
	// The wait happens outside the lock so concurrent commits share a sync.
	return db.durable.wait(lsn)
}

func ackUnderWriter(db *DB, ch chan int) {
	db.writer.Lock()
	ch <- 1 // want `channel send while holding db\.writer`
	db.writer.Unlock()
}

func streamShared(db *DB, ch chan int) int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	// A shared db.mu may block: latched committers share it, so commits
	// still group behind this read.
	return <-ch
}

func spawnWorker(db *DB, p *tablePart, done chan struct{}) {
	db.mu.Lock()
	defer db.mu.Unlock()
	go func() {
		// A goroutine does not inherit the spawner's locks.
		p.mu.Lock()
		p.mu.Unlock()
		done <- struct{}{}
	}()
}

// The latched-writer path: shared db.mu, several partition write latches
// acquired in ascending order (a multi-instance class — the repeat Lock is
// not a re-acquisition violation), partition data locks inside, and
// commitMu last. This is the documented order end to end.
func latchedCommit(db *DB, t *Table) {
	db.mu.RLock()
	for _, p := range t.parts {
		p.w.Lock()
	}
	t.histMu.Lock()
	p := t.parts[0]
	p.mu.Lock()
	p.mu.Unlock()
	t.histMu.Unlock()
	db.commitMu.Lock()
	db.commitMu.Unlock()
	for _, p := range t.parts {
		p.w.Unlock()
	}
	db.mu.RUnlock()
}

// Taking a write latch after the partition data lock inverts the order:
// another writer holding the latch may be waiting on this partition's mu.
func latchAfterPart(p *tablePart) {
	p.mu.Lock()
	p.w.Lock() // want `lock order violation: tablePart\.w acquired while holding tablePart\.mu`
	p.w.Unlock()
	p.mu.Unlock()
}

// commitMu is the last lock in the order; acquiring anything under it
// would let a committer block a latched writer mid-publication.
func lockUnderCommitMu(db *DB, p *tablePart) {
	db.commitMu.Lock()
	p.mu.Lock() // want `lock order violation: tablePart\.mu acquired while holding db\.commitMu`
	p.mu.Unlock()
	db.commitMu.Unlock()
}

// The history map lock nests inside the latch but outside partition data
// locks; taking it after p.mu is the inversion vacuum would deadlock on.
func histAfterPart(t *Table, p *tablePart) {
	p.mu.Lock()
	t.histMu.Lock() // want `lock order violation: Table\.histMu acquired while holding tablePart\.mu`
	t.histMu.Unlock()
	p.mu.Unlock()
}
