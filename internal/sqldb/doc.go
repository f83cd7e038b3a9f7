// Package sqldb is the embedded relational engine: SQL parsing, planning,
// Volcano-style row execution over versioned row storage, transactions
// with undo-log rollback, MVCC snapshot isolation with lock-free readers,
// callback streaming (QueryEach), and WAL-backed durability with group
// commit and checkpointing.
//
// # Execution
//
// There is one execution leg: the row cursor (cursor.go). Every SELECT —
// point, index and range access, full scans, joins, aggregates —
// runs as a pipeline of pulled row producers, one row at a time, at the
// statement's snapshot, and one loop on top pushes each output row to a
// callback: QueryEach hands it to the caller, Query collects it. A scan walks the table's row slots
// (table.go) in row-ID order, so results come in row-ID order, which the planner-equivalence
// fuzz relies on to compare access paths byte-for-byte.
//
// # Index seeks without SQL
//
// DB.Seek and Tx.Seek read rows by key through an index on one column
// (seek.go), for callers whose reads never change shape: one snapshot per
// call, each key's rows in row-ID order, and each row re-checked against
// its key, since an index entry outlives an UPDATE of its column until
// vacuum. The rows handed over are the stored rows: read-only, and not to
// be kept past the callback. The planner's equality, IN-list and range
// leaves and its index joins walk the same seeker.
//
// # Invariants
//
// The concurrency and durability design rests on conventions that the
// compiler cannot check but gmlint (cmd/gmlint) does; code in this package
// must preserve them:
//
//  1. One lock. db.writer is the only lock that orders the database's
//     writes: every write statement, Vacuum, Checkpoint, Save, Dump and
//     Restore hold it, and the vacuumer retires under it. It is not
//     reentrant, so a goroutine with a Tx open must not call db.Exec,
//     Begin, Save, Dump or Close. The WAL's locks are acquired syncMu < mu
//     (see wal.AdvanceTo for the dance). Readers take none of them: a
//     row's chain head is loaded from its slot atomically.
//
//  2. No blocking under the writer. fsync-class calls (wal.Durable,
//     File.Sync, durability.wait) and channel operations never run while
//     writer is held. Commits append to the log while holding writer
//     (log order = commit order) but wait for durability after unlocking
//     — that window is what lets concurrent committers share one fsync
//     (group commit). One known exception: WAL.Append rotates inline
//     when a record fills the segment, and the rotation fsyncs the
//     sealed segment under the writer, so the next writer waits for it
//     (gam's catalog readers take no lock and do not). lockorder cannot
//     see it, because the fsync happens inside package wal; moving the
//     rotation out of Append is ROADMAP item 14.
//
//  3. Write-ahead before acknowledge. All table-state mutation funnels
//     through executeWrite, and every caller must bind the mutation for
//     the log in the same function: logCommit (auto-commit path), or
//     appending to Tx.logged which Tx.Commit logs as one record. Nothing
//     client-visible — a returned Result, an acknowledgement send — may
//     precede the append. The one exception is recovery replay
//     (applyRecord), which re-executes records that are already in the
//     log.
//
//  4. Schema generation is atomic and accessor-only. db.gen is read
//     lock-free by Stmt.ensure, which re-plans a statement whose compiled
//     form is older; it is mutated only by bumpSchemaGen, under the
//     writer held by the DDL (or restore) that makes those plans stale.
//     A statement already running finishes at its snapshot over the
//     tables its plan bound.
//
//  5. Retired: it required every pull cursor to be closed, so that its
//     pinned snapshot would not hold back vacuum. Reads are callbacks
//     now, and every statement releases its snapshot when it returns.
//     The number is kept so the others keep theirs.
//
//  6. Durability errors are handled. Errors from WAL, fsync, Close and
//     file-removal calls are never silently dropped; best-effort sites
//     carry a //gmlint:ignore justification.
//
//  7. Retired: it covered the row-map lock, which row slots replaced. The
//     number is kept so the others keep theirs.
//
//  8. Version visibility flows through the epoch. A chain's head may
//     carry a provisional version (beg = provisionalBit|txID), visible
//     only to its writing transaction, above committed versions ordered
//     newest-first by commit epoch. A reader resolves the newest version
//     with beg <= its snapshot epoch, captured through
//     snapTracker.acquire so vacuum never reclaims below a live
//     snapshot. Versions are installed with writeCtx.stamp() and become
//     visible ONLY via publishCommit — which stamps the commit epoch and
//     advances db.epoch last (the release fence), under the writer,
//     strictly after the commit's WAL append (recovery replay publishes
//     records it read from the log) — or are unlinked by rollback.
//     gmlint's mvccepoch checks the publication sites and the
//     append-before-publish order.
//
//  9. One writer at a time, taken at Begin. Every write statement holds
//     writer — an auto-commit statement for itself, a transaction from
//     Begin, before it captures its snapshot, until Commit or Rollback.
//     WAL order = commit order = publication order, which serial replay
//     needs (TestMVCCMultiWriterOpenTxReplay), and no commit lands
//     between a transaction's reads and its writes. Save and Dump wait
//     for an open transaction, so they record exactly the committed
//     state (TestSaveAndDumpBesideOpenTx).
package sqldb
