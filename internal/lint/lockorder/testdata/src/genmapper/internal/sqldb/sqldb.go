// Stub of the lock surface of genmapper/internal/sqldb. The mutex field is
// unexported, so legal and illegal uses both live here. The db domain has
// one lock, DB.writer.
package sqldb

import "sync"

type durability struct{}

func (d *durability) wait(lsn uint64) error { return nil }

type DB struct {
	writer  sync.Mutex
	durable *durability
}

// execOrdered is a write statement end to end.
func execOrdered(db *DB) {
	db.writer.Lock()
	db.writer.Unlock()
}

// The writer is not reentrant: a db.Exec from inside an open transaction
// deadlocks.
func doubleLock(db *DB) {
	db.writer.Lock()
	defer db.writer.Unlock()
	db.writer.Lock() // want `db\.writer acquired while already held`
}

func fsyncUnderLock(db *DB, lsn uint64) error {
	db.writer.Lock()
	defer db.writer.Unlock()
	return db.durable.wait(lsn) // want `durability\.wait call while holding db\.writer`
}

func groupCommit(db *DB, lsn uint64) error {
	db.writer.Lock()
	db.writer.Unlock()
	// The wait happens outside the lock so concurrent commits share a sync.
	return db.durable.wait(lsn)
}

func ackUnderWriter(db *DB, ch chan int) {
	db.writer.Lock()
	ch <- 1 // want `channel send while holding db\.writer`
	db.writer.Unlock()
}

func spawnWorker(db *DB, done chan struct{}) {
	db.writer.Lock()
	defer db.writer.Unlock()
	go func() {
		// A goroutine does not inherit the spawner's locks.
		done <- struct{}{}
	}()
}
