package sqldb

// Partition layout and the partition exchange. Row storage is
// hash-partitioned (table.go); the batch leg (batch.go) fans a full scan out
// over the partitions whenever a table has more than one — the partition
// count, set by SetPartitions, is the only knob. One batchWorker goroutine
// per partition walks its partition in ascending row-ID order and feeds
// filtered batches into a bounded channel; the consumer merges the
// per-partition streams by row ID, so the output order is byte-identical to
// a serial scan.
//
// Locking: exchange workers never touch db.mu — a consumer may legitimately
// hold it (read-locked) for the whole drain, and a writer waiting on db.mu
// would otherwise deadlock the exchange (Go's RWMutex blocks new readers
// while a writer waits). Workers instead synchronize on the per-partition
// locks, which every storage mutation takes, and poll the schema generation
// at each batch, stopping when it moves.

import (
	"sort"
	"sync"
)

// parChanDepth bounds each partition's exchange channel: workers run at
// most this many batches ahead of the consumer.
const parChanDepth = 4

// parBatch is one exchange message: a run of filtered rows from a single
// partition, ascending by row ID. A non-nil err aborts the scan.
type parBatch struct {
	ids  []int64
	rows [][]Value
	err  error
}

// parStream is the consumer side of one partition's exchange channel.
type parStream struct {
	ch   chan parBatch
	cur  parBatch
	pos  int
	open bool
}

// parallelScan runs one worker goroutine per partition and merges their
// streams back into global row-ID order.
type parallelScan struct {
	done    chan struct{}
	wg      sync.WaitGroup
	streams []*parStream
	closed  bool
	failed  error
}

// send delivers a batch unless the scan was closed, reporting delivery.
func (ps *parallelScan) send(ch chan<- parBatch, b parBatch) bool {
	select {
	case ch <- b:
		return true
	case <-ps.done:
		return false
	}
}

// next returns the next merged output row (globally ascending by row ID),
// or (nil, nil) at exhaustion. The per-partition streams are individually
// ascending, so the minimum over the stream heads is the global next row.
func (ps *parallelScan) next() ([]Value, error) {
	if ps.failed != nil {
		return nil, ps.failed
	}
	best := -1
	var bestID int64
	for i, st := range ps.streams {
		for st.open && st.pos >= len(st.cur.ids) {
			b, ok := <-st.ch
			if !ok {
				st.open = false
				break
			}
			if b.err != nil {
				// Remember the failure so repeated Next calls keep failing
				// instead of silently continuing over the surviving streams.
				ps.failed = b.err
				return nil, b.err
			}
			st.cur, st.pos = b, 0
		}
		if st.pos < len(st.cur.ids) {
			if id := st.cur.ids[st.pos]; best < 0 || id < bestID {
				best, bestID = i, id
			}
		}
	}
	if best < 0 {
		return nil, nil
	}
	st := ps.streams[best]
	row := st.cur.rows[st.pos]
	st.pos++
	return row, nil
}

// close cancels the workers, drains the exchange channels so a worker
// blocked on a full channel can observe the cancellation, and waits for
// every worker to exit. Idempotent; after close no goroutine remains.
func (ps *parallelScan) close() {
	if ps == nil || ps.closed {
		return
	}
	ps.closed = true
	close(ps.done)
	for _, st := range ps.streams {
		for range st.ch {
		}
		st.open = false
	}
	ps.wg.Wait()
}

// ---------------------------------------------------------------------------
// Observability

// ParallelStats counts batch-leg operators that fanned out across more
// than one partition.
type ParallelStats struct {
	ParallelScans      uint64 `json:"parallel_scans"`
	ParallelAggregates uint64 `json:"parallel_aggregates"`
}

// ParallelStats returns the partition fan-out counters.
func (db *DB) ParallelStats() ParallelStats {
	return ParallelStats{
		ParallelScans:      db.plans.fanScans.Load(),
		ParallelAggregates: db.plans.fanAggs.Load(),
	}
}

// TablePartitionStats reports one table's partition layout and occupancy.
type TablePartitionStats struct {
	Table      string `json:"table"`
	Partitions int    `json:"partitions"`
	Rows       []int  `json:"rows"`
}

// PartitionStats returns per-partition live row counts for every table,
// sorted by table name. Reads the copy-on-write catalog, so no database
// lock is needed.
func (db *DB) PartitionStats() []TablePartitionStats {
	tables := db.tableMap()
	names := make([]string, 0, len(tables))
	for n := range tables {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]TablePartitionStats, 0, len(names))
	for _, n := range names {
		t := tables[n]
		out = append(out, TablePartitionStats{
			Table:      t.Name,
			Partitions: t.PartitionCount(),
			Rows:       t.PartitionRows(),
		})
	}
	return out
}

// SetPartitions re-shards every table's row storage into n hash partitions
// (0 restores the default, one per CPU; 1 keeps every scan serial) and
// makes n the partition count for tables created afterwards. Batch scans
// and aggregates over a table with more than one partition fan out one
// worker per partition. Repartitioning is a schema change: cached plans are
// rebuilt and open cursors fail with ErrCursorInvalidated.
func (db *DB) SetPartitions(n int) {
	if n < 0 {
		n = 0
	}
	db.writer.Lock()
	defer db.writer.Unlock()
	db.mu.Lock()
	defer db.mu.Unlock()
	db.nparts = n
	for _, t := range db.tableMap() {
		t.repartition(db.partitionCount())
	}
	db.bumpSchemaGen()
}

// Partitions returns the effective partition count for new tables.
func (db *DB) Partitions() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.partitionCount()
}

// partitionCount resolves the configured partition count. Caller holds
// db.mu.
func (db *DB) partitionCount() int {
	if db.nparts > 0 {
		return db.nparts
	}
	return defaultPartitions()
}
