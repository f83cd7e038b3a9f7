// Package sqldb is the embedded relational engine: SQL parsing, planning,
// Volcano-style row execution over hash-partitioned storage, transactions
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
// only differ in how they drain it. Storage partitions (SetPartitions)
// shape write latching, not reads: a scan walks the table's global ID
// slice whatever the layout, so results are identical on any partition
// count, which the planner-equivalence fuzz asserts byte-for-byte.
//
// # Invariants
//
// The concurrency and durability design rests on conventions that the
// compiler cannot check but gmlint (cmd/gmlint) does; code in this package
// must preserve them:
//
//  1. Lock order. Locks are always acquired writer < mu < tablePart.w <
//     Table.histMu < tablePart.mu < commitMu, and the WAL's internally
//     are syncMu < mu. tablePart.w latches are multi-instance: a latched
//     statement acquires several, always in ascending partition order
//     and only via Table.acquireLatches. Release before re-acquiring
//     against the order (see wal.AdvanceTo for the dance).
//
//  2. No blocking under exclusive db locks. fsync-class calls
//     (wal.Durable, File.Sync, durability.wait) and channel operations
//     never run while writer, an exclusive mu, a write latch, commitMu,
//     or a partition lock is held. Commits append to the log inside the
//     exclusive section (log order = commit order) — for latched
//     committers that section is commitMu under shared mu — but wait
//     for durability after unlocking —
//     that window is what lets concurrent committers share one fsync
//     (group commit). Readers take only partition read locks, never mu.
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
//  7. Partition locks are released on every path. Any early return
//     while tablePart.mu is held must unlock first — a held partition
//     lock wedges every writer touching that partition (checked by
//     gmlint's partlock).
//
//  8. Version visibility flows through the epoch. Storage is version
//     chains; a chain's head may carry a provisional
//     version (beg = provisionalBit|txID), visible only to its writing
//     transaction, above committed versions ordered newest-first by
//     commit epoch. A reader resolves the newest version with
//     beg <= its snapshot epoch; the snapshot is captured through
//     snapTracker.acquire so vacuum can never reclaim below a live
//     snapshot. Versions are installed with writeCtx.stamp() and become
//     visible ONLY via publishCommit — which stamps the commit epoch
//     and advances db.epoch last (the release fence), strictly after
//     the commit's WAL append (recovery replay publishes records it
//     read from the log) — or are unlinked by rollback. gmlint's
//     mvccepoch checks the publication sites and the append-before-
//     publish order.
//
//  9. Latched writes own their partitions, not the database. An
//     UPDATE/DELETE on the latched path holds db.mu only SHARED plus
//     the tablePart.w latches of every partition it touches (acquired
//     via the collectLatched prescan/validate loop), so it may mutate
//     row maps (under tablePart.mu) and version chains only in latched
//     partitions, and must keep the WAL append and publishCommit atomic
//     under commitMu — WAL order must equal publication order or serial
//     replay diverges from the concurrent execution. Whole-database
//     operations (DDL, INSERT row-ID allocation, vacuum, checkpoint,
//     Dump, Save) take mu exclusively, which excludes every latched
//     writer wholesale. Latch sets are released on every path or
//     returned to the caller (checked by gmlint's partlock).
package sqldb
