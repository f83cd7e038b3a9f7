// Package sqldb is the embedded relational engine: SQL parsing, planning,
// Volcano-style row execution over versioned row storage, transactions
// with undo-log rollback, MVCC snapshot isolation with lock-free readers,
// streaming cursors, and WAL-backed durability with group commit and
// checkpointing.
//
// # Execution
//
// There is one execution leg: the row cursor (cursor.go). Every SELECT —
// point, index and range access, full scans, joins, aggregates —
// runs as a pull pipeline of row producers, one row at a time, at the
// statement's snapshot; materialized Query, QueryEach and QueryCursor
// only differ in how they drain it. A scan walks the table's sorted ID
// slice, so results come in row-ID order, which the planner-equivalence
// fuzz relies on to compare access paths byte-for-byte.
//
// # Invariants
//
// The concurrency and durability design rests on conventions that the
// compiler cannot check but gmlint (cmd/gmlint) does; code in this package
// must preserve them:
//
//  1. Lock order. Locks are always acquired writer < mu < Table.histMu <
//     Table.rowsMu, and the WAL's internally are syncMu < mu. Release
//     before re-acquiring against the order (see wal.AdvanceTo for the
//     dance).
//
//  2. No blocking under db locks. fsync-class calls (wal.Durable,
//     File.Sync, durability.wait) and channel operations never run
//     while writer, mu or a row-map lock is held. Commits append to the
//     log while holding writer (log order = commit order) but wait for
//     durability after unlocking — that window is what lets concurrent
//     committers share one fsync (group commit). Readers take only the
//     row-map read lock, never mu.
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
//     lock-free by every cursor step to detect invalidation; it is
//     mutated only by bumpSchemaGen, under the exclusive mu of the DDL
//     (or restore) that invalidates those cursors.
//
//  5. Cursors are closed. Every Cursor obtained from QueryCursor is
//     closed on all paths or handed off: Close releases the cursor's
//     pinned snapshot, which otherwise holds back vacuum
//     (TestCursorEarlyClose and TestSnapshotReleasedOnErrorPaths guard it).
//
//  6. Durability errors are handled. Errors from WAL, fsync, Close and
//     file-removal calls are never silently dropped; best-effort sites
//     carry a //gmlint:ignore justification.
//
//  7. Row-map locks are released on every path. Any early return
//     while Table.rowsMu is held must unlock first — a held row-map lock
//     wedges the writer and every reader of that table (checked by
//     gmlint's partlock).
//
//  8. Version visibility flows through the epoch. A chain's head may
//     carry a provisional version (beg = provisionalBit|txID), visible
//     only to its writing transaction, above committed versions ordered
//     newest-first by commit epoch. A reader resolves the newest version
//     with beg <= its snapshot epoch, captured through
//     snapTracker.acquire so vacuum never reclaims below a live
//     snapshot. Versions are installed with writeCtx.stamp() and become
//     visible ONLY via publishCommit — which stamps the commit epoch and
//     advances db.epoch last (the release fence), strictly after the
//     commit's WAL append (recovery replay publishes records it read
//     from the log) — or are unlinked by rollback. gmlint's mvccepoch
//     checks the publication sites and the append-before-publish order.
//
//  9. One writer at a time, taken at Begin. Every write statement holds
//     writer — an auto-commit statement for itself, a transaction from
//     Begin, before it captures its snapshot, until Commit or Rollback —
//     and runs under the exclusive mu. WAL order = commit order =
//     publication order, which serial replay needs
//     (TestMVCCMultiWriterOpenTxReplay), and no commit lands between a
//     transaction's reads and its writes.
package sqldb
