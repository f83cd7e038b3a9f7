package sqldb

// Advancing the epoch anywhere but publishCommit breaks the release
// fence snapshot readers synchronize on.
func (db *DB) bumpEpochDirect() {
	db.epoch.Add(1) // want `DB\.epoch is mutated outside publishCommit`
}

// Reading the epoch is fine anywhere: snapshots and conflict horizons do.
func (db *DB) snapshotEpoch() uint64 {
	return db.epoch.Load()
}

// Installing a version with the writeCtx stamp is the blessed path.
func (db *DB) installVersion(w *writeCtx, row []Value) *rowVersion {
	ver := &rowVersion{row: row}
	ver.beg.Store(w.stamp())
	return ver
}

// Stamping beg with anything else forges a visibility epoch.
func (db *DB) forgeCommitted(row []Value) *rowVersion {
	ver := &rowVersion{row: row}
	ver.beg.Store(db.epoch.Load()) // want `rowVersion\.beg is stamped outside the audited sites`
	return ver
}

// Publishing after the append, from an audited committer, is the commit
// contract.
func (db *DB) execPrepared(installed []*rowVersion) error {
	if _, err := db.durable.logCommit(nil); err != nil {
		return err
	}
	db.publishCommit(installed)
	return nil
}

// Publishing before the append would let a snapshot reader observe a
// commit a crash could erase, audited committer or not.
func (db *DB) Publish(installed []*rowVersion) error {
	db.publishCommit(installed) // want `publishCommit before any WAL append`
	_, err := db.durable.logCommit(nil)
	return err
}

// Buffering into the transaction log defers the append to Publish, which
// re-checks the ordering there.
func (tx *Tx) Publish(sql string, installed []*rowVersion) {
	tx.logged = append(tx.logged, logStmt{sql: sql})
	tx.db.publishCommit(installed)
}

// Publishing from an unaudited function is rejected even with the append
// in order: every publication site must carry a serialization argument
// (db.writer plus the exclusive db.mu).
func (db *DB) publishRogue(installed []*rowVersion) error {
	if _, err := db.durable.logCommit(nil); err != nil {
		return err
	}
	db.publishCommit(installed) // want `publishCommit called outside the audited committer functions`
	return nil
}

// Recovery replay publishes records it read from the log: the one
// audited site with nothing to append.
func (db *DB) applyRecord(installed []*rowVersion) {
	db.publishCommit(installed)
}

// Any other function publishing without an append is still rejected,
// however replay-like its name.
func (db *DB) replay(installed []*rowVersion) {
	db.publishCommit(installed) // want `publishCommit before any WAL append` `publishCommit called outside the audited committer functions`
}
