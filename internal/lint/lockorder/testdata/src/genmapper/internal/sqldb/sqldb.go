// Stub of the lock surface of genmapper/internal/sqldb. The mutex fields
// are unexported, so ordered and inverted acquisitions both live here.
// Documented order: DB.writer < DB.mu < Table.histMu.
package sqldb

import "sync"

type Table struct {
	histMu sync.Mutex
}

type durability struct{}

func (d *durability) wait(lsn uint64) error { return nil }

type DB struct {
	writer  sync.Mutex
	mu      sync.RWMutex
	t       *Table
	durable *durability
}

// execOrdered is a write statement end to end: the documented order.
func execOrdered(db *DB) {
	db.writer.Lock()
	db.mu.Lock()
	t := db.t
	t.histMu.Lock()
	t.histMu.Unlock()
	db.mu.Unlock()
	db.writer.Unlock()
}

func execInverted(db *DB) {
	db.mu.Lock()
	db.writer.Lock() // want `lock order violation: db\.writer acquired while holding db\.mu`
	db.writer.Unlock()
	db.mu.Unlock()
}

// The history map lock nests inside db.mu: vacuum takes it under the
// exclusive db.mu, so taking db.mu under it is the inversion vacuum would
// deadlock on.
func histThenDB(db *DB, t *Table) {
	t.histMu.Lock()
	db.mu.RLock() // want `lock order violation: db\.mu acquired while holding Table\.histMu`
	db.mu.RUnlock()
	t.histMu.Unlock()
}

func histThenWriter(db *DB, t *Table) {
	t.histMu.Lock()
	db.writer.Lock() // want `lock order violation: db\.writer acquired while holding Table\.histMu`
	db.writer.Unlock()
	t.histMu.Unlock()
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

// A shared db.mu blocks too: the next writer needs it exclusively.
func streamShared(db *DB, ch chan int) int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return <-ch // want `channel receive while holding db\.mu`
}

func spawnWorker(db *DB, t *Table, done chan struct{}) {
	db.mu.Lock()
	defer db.mu.Unlock()
	go func() {
		// A goroutine does not inherit the spawner's locks.
		t.histMu.Lock()
		t.histMu.Unlock()
		done <- struct{}{}
	}()
}
