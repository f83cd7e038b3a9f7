// Stub of the MVCC commit surface of genmapper/internal/sqldb. The
// analyzer matches fully-qualified names, so the fixture scenarios live
// in this shadowed package just like the real publication sites do.
package sqldb

import "sync/atomic"

type Value any

type rowVersion struct {
	row []Value
	beg atomic.Uint64
}

type writeCtx struct {
	tx uint64
}

func (w *writeCtx) stamp() uint64 { return 1<<63 | w.tx }

type logStmt struct{ sql string }

type durability struct{}

func (d *durability) logCommit(stmts []logStmt) (uint64, error) { return 0, nil }

type DB struct {
	epoch   atomic.Uint64
	durable *durability
}

// publishCommit is the one audited epoch publisher.
func (db *DB) publishCommit(installed []*rowVersion) {
	e := db.epoch.Load() + 1
	for _, v := range installed {
		v.beg.Store(e)
	}
	db.epoch.Store(e)
}

type Tx struct {
	db     *DB
	logged []logStmt
}
