// Package sqldb is the embedded relational engine: SQL parsing, planning,
// indexed row execution and vectorized (columnar batch) execution that
// fans out across hash partitions, transactions with undo-log rollback,
// MVCC snapshot isolation with lock-free readers, streaming cursors, and
// WAL-backed durability with group commit and checkpointing.
//
// # Execution legs
//
// There are two. Full-scan SELECTs and aggregates over tables past
// SetBatchMinRows (default 4096 rows) run on the batch leg: producers
// materialize ~1024 rows column-major out of tablePart storage under one
// lock acquisition per batch — one producer per partition when the table
// has more than one (SetPartitions) — typed kernels evaluate the WHERE
// clause into tri-state selection vectors, and the aggregate accumulators
// fold whole batches (GROUP BY through per-batch hash grouping merged via
// aggAcc.merge, float sums Kahan-compensated so every leg agrees
// bit-for-bit). Point, index and range access, joins, and expressions the
// kernels do not cover run on the serial row cursor; a batch-to-row
// adapter keeps the Cursor/QueryEach surface — read-committed per-step
// visibility, DDL invalidation, LIMIT/OFFSET, early Close — identical to
// the row leg, which the planner-equivalence fuzz asserts byte-for-byte.
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
//     (group commit). Exchange workers take only partition read locks,
//     never mu, so a streaming consumer holding mu shared cannot
//     deadlock them.
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
//     closed on all paths or handed off; on a partition exchange Close is
//     what winds down the worker pool (TestParallelCursorEarlyClose
//     guards the no-leak property).
//
//  6. Durability errors are handled. Errors from WAL, fsync, Close and
//     file-removal calls are never silently dropped; best-effort sites
//     carry a //gmlint:ignore justification.
//
//  7. Partition locks are released on every path. Batch producers and
//     exchange workers hold tablePart.mu for a whole batch; any
//     early return (schema-generation bump, send failure, kernel error)
//     must unlock first — a held partition lock wedges every writer
//     touching that partition (checked by gmlint's partlock).
//
//  8. Version visibility flows through the epoch. Storage is version
//     chains in both modes; a chain's head may carry a provisional
//     version (beg = provisionalBit|txID), visible only to its writing
//     transaction, above committed versions ordered newest-first by
//     commit epoch. A reader resolves the newest version with
//     beg <= its snapshot epoch; the snapshot is captured through
//     snapTracker.acquire so vacuum can never reclaim below a live
//     snapshot. Versions are installed with writeCtx.stamp() and become
//     visible ONLY via publishCommit — which stamps the commit epoch
//     and advances db.epoch last (the release fence), strictly after
//     the commit's WAL append — or are unlinked by rollback. gmlint's
//     mvccepoch checks the publication sites and the append-before-
//     publish order.
//
//  9. Latched writes own their partitions, not the database. An MVCC
//     UPDATE/DELETE on the latched path holds db.mu only SHARED plus
//     the tablePart.w latches of every partition it touches (acquired
//     via the collectLatched prescan/validate loop), so it may mutate
//     row maps (under tablePart.mu) and version chains only in latched
//     partitions, and must keep the WAL append and publishCommit atomic
//     under commitMu — WAL order must equal publication order or serial
//     replay diverges from the concurrent execution. Whole-database
//     operations (DDL, INSERT row-ID allocation, vacuum, checkpoint,
//     Dump, Save, SetMVCC) take mu exclusively, which excludes every
//     latched writer wholesale. Latch sets are released on every path
//     or returned to the caller (checked by gmlint's partlock); a mode
//     check made before taking shared mu must be re-validated under it,
//     because SetMVCC flips the mode under exclusive mu.
package sqldb
