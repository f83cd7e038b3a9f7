package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"genmapper"
	"genmapper/internal/ops"
	"genmapper/internal/sqldb"
	"genmapper/internal/wal"
)

// The layers are this repository's packages, outermost first.
var layerOrder = []string{
	"server", "genmapper", "parser", "importer", "ops.view", "view.render", "ops.exec",
	"gam.read", "gam.write", "sqldb.prepare", "sqldb.exec", "wal.append", "wal.fsync",
}

// span is one timed call into a layer's public functions, made by the
// benchmark from outside. The spans of one request share Request; Parent is
// the span of the enclosing layer (0 at the top).
//
// The same request is executed once per layer ("peeled"), so a child's
// interval does not lie inside its parent's in wall-clock time; the
// interval the children cover is taken as the sum of their durations.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer holds the spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a span that started at start and took d.
func (t *tracer) add(parent, req int, layer, name string, start time.Time, d time.Duration) int {
	id := len(t.spans) + 1
	s := start.Sub(t.t0).Nanoseconds()
	t.spans = append(t.spans, span{id, parent, req, layer, name, s, s + d.Nanoseconds()})
	return id
}

// timed runs fn and records it as a span.
func (t *tracer) timed(parent, req int, layer, name string, fn func() error) (int, error) {
	start := time.Now()
	err := fn()
	return t.add(parent, req, layer, name, start, time.Since(start)), err
}

// peelRepeats is how often a repeatable call is run for one span. Identical
// calls differ by some 10% from run to run on this class of machine, which
// is more than most layers' share; the median run is the one recorded.
const peelRepeats = 3

// timedMedian runs prepare and fn peelRepeats times and records the run of
// median duration as one span. fn must be repeatable; prepare (not timed)
// restores whatever state each run must start from.
func (t *tracer) timedMedian(parent, req int, layer, name string, prepare func(), fn func() error) (int, error) {
	type run struct {
		start time.Time
		d     time.Duration
	}
	runs := make([]run, peelRepeats)
	for i := range runs {
		prepare()
		runs[i].start = time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		runs[i].d = time.Since(runs[i].start)
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].d < runs[j].d })
	m := runs[len(runs)/2]
	return t.add(parent, req, layer, name, m.start, m.d), nil
}

// writeRequestBase is the first request number of view.update's traced
// writes; the traced reads (and import.durable's files) count from 1.
const writeRequestBase = 100000

// layerRow aggregates one layer's spans: all of them, and those of the
// traced writes alone.
type layerRow struct {
	calls                   int
	total, self, writeTotal time.Duration
}

// layers computes every layer's total and self time. A span's self time is
// its duration minus what its children cover. Parent and children are timed
// in separate executions, so a single span's difference can come out
// negative; flooring each at zero would add up the noise of pass-through
// layers as if it were time (it inflated export.cold's self times by a
// fifth), so the differences are summed as they are and only a layer's sum
// is floored.
func (t *tracer) layers() (rows map[string]*layerRow, top time.Duration) {
	covered := make([]time.Duration, len(t.spans)+1)
	for _, s := range t.spans {
		covered[s.Parent] += time.Duration(s.EndNS - s.StartNS)
	}
	rows = make(map[string]*layerRow)
	for _, s := range t.spans {
		r := rows[s.Layer]
		if r == nil {
			r = &layerRow{}
			rows[s.Layer] = r
		}
		d := time.Duration(s.EndNS - s.StartNS)
		r.calls++
		r.total += d
		r.self += d - covered[s.ID]
		if s.Request >= writeRequestBase {
			r.writeTotal += d
		}
		if s.Parent == 0 {
			top += d
		}
	}
	for _, r := range rows {
		r.self = max(r.self, 0)
	}
	return rows, top
}

// write stores the spans as bench/out/trace-<workload>.json.
func (t *tracer) write(cfg config) error {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	path := filepath.Join(cfg.out, "trace-"+cfg.workload+".json")
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("# wrote %d spans to %s\n", len(t.spans), path)
	return nil
}

// report prints the layer table and sets the per-layer time metrics, each
// in ms per traced op: a request, or on import.durable a source file.
// view.update also traces writes; the layers only they reach (gam.write and
// wal) are per traced write, and the time writes spend in layers the
// requests share is left out of those layers' per-request metrics.
func (t *tracer) report(res *result, traced, writes int) {
	rows, top := t.layers()
	selfSum := time.Duration(0)
	for _, r := range rows {
		selfSum += r.self
	}
	fmt.Printf("# layer table: %d traced ops and %d traced writes, top-level %.1f ms\n", traced, writes, ms(top))
	fmt.Printf("# %-14s %8s %12s %12s %8s\n", "layer", "calls", "total_ms", "self_ms", "share")
	for _, name := range layerOrder {
		if r := rows[name]; r != nil {
			fmt.Printf("# %-14s %8d %12.2f %12.2f %7.1f%%\n", name, r.calls, ms(r.total), ms(r.self), 100*float64(r.self)/float64(max(top, 1)))
		}
	}
	per := func(layer string, self bool) float64 {
		r := rows[layer]
		switch {
		case r == nil:
			return 0
		case r.writeTotal == r.total && writes > 0:
			return ms(r.total) / float64(writes)
		case self:
			return ms(r.self) / float64(traced)
		}
		return ms(r.total-r.writeTotal) / float64(traced)
	}
	res.set("server.self_ms", per("server", true), "ms")
	res.set("genmapper.self_ms", per("genmapper", true), "ms")
	res.set("parser.parse_ms", per("parser", false), "ms")
	res.set("importer.self_ms", per("importer", true), "ms")
	res.set("ops.view_ms", per("ops.view", true), "ms")
	res.set("view.render_ms", per("view.render", false), "ms")
	res.set("ops.exec_ms", per("ops.exec", false), "ms")
	res.set("gam.read_ms", per("gam.read", false), "ms")
	res.set("gam.write_ms", per("gam.write", false), "ms")
	res.set("sqldb.prepare_ms", per("sqldb.prepare", false), "ms")
	res.set("sqldb.exec_ms", per("sqldb.exec", false), "ms")
	res.set("wal.append_ms", per("wal.append", false), "ms")
	res.set("wal.fsync_ms", per("wal.fsync", false), "ms")
	res.set("trace.self_sum_ratio", float64(selfSum)/float64(max(top, 1)), "ratio")
	res.set("trace.ops", float64(traced), "count")
}

// ---------------------------------------------------------------------------
// Counters

// counters is a snapshot of every public counter the system exports.
type counters struct {
	cache ops.CacheStats
	stmt  sqldb.StmtCacheStats
	plan  sqldb.PlanStats
	batch sqldb.BatchStats
	par   sqldb.ParallelStats
	mvcc  sqldb.MVCCStats
	wal   sqldb.WALStats
	mem   runtime.MemStats
}

func snapshot(sys *genmapper.System) counters {
	c := counters{
		cache: sys.CacheStats(), stmt: sys.SQLStmtCacheStats(), plan: sys.SQLPlanStats(),
		batch: sys.SQLBatchStats(), par: sys.SQLParallelStats(), mvcc: sys.SQLMVCCStats(), wal: sys.SQLWALStats(),
	}
	runtime.ReadMemStats(&c.mem)
	return c
}

func ratio(a, b uint64) float64 {
	if a+b == 0 {
		return 0
	}
	return float64(a) / float64(a+b)
}

// counterMetrics sets the count metrics: deltas of the public counters
// across a window of `ops` operations that inserted `rows` rows.
func counterMetrics(res *result, a, b counters, ops int, rows int64) {
	n := float64(max(ops, 1))
	d := func(x, y uint64) float64 { return float64(y - x) }
	res.set("ops.exec.hit_ratio", ratio(b.cache.Hits-a.cache.Hits, b.cache.Misses-a.cache.Misses), "ratio")
	res.set("ops.exec.misses", d(a.cache.Misses, b.cache.Misses)/n, "1/op")
	res.set("sqldb.stmt_cache.hit_ratio", ratio(b.stmt.Hits-a.stmt.Hits, b.stmt.Misses-a.stmt.Misses), "ratio")
	res.set("sqldb.plan.full_scans", d(a.plan.FullScans, b.plan.FullScans)/n, "1/op")
	res.set("sqldb.plan.index_eq_scans", d(a.plan.IndexEqScans, b.plan.IndexEqScans)/n, "1/op")
	res.set("sqldb.plan.index_in_scans", d(a.plan.IndexInScans, b.plan.IndexInScans)/n, "1/op")
	res.set("sqldb.plan.index_range_scans", d(a.plan.IndexRangeScans, b.plan.IndexRangeScans)/n, "1/op")
	res.set("sqldb.plan.joins", (d(a.plan.IndexJoins, b.plan.IndexJoins)+d(a.plan.HashJoins, b.plan.HashJoins)+d(a.plan.NestedJoins, b.plan.NestedJoins))/n, "1/op")
	res.set("sqldb.batch_scans", (d(a.batch.BatchScans, b.batch.BatchScans)+d(a.batch.BatchAggregates, b.batch.BatchAggregates))/n, "1/op")
	res.set("sqldb.parallel_scans", (d(a.par.ParallelScans, b.par.ParallelScans)+d(a.par.ParallelAggregates, b.par.ParallelAggregates))/n, "1/op")
	res.set("sqldb.mvcc.commits", d(a.mvcc.Commits, b.mvcc.Commits), "count")
	res.set("sqldb.mvcc.conflicts", d(a.mvcc.Conflicts, b.mvcc.Conflicts), "count")
	res.set("sqldb.mvcc.latch_waits", d(a.mvcc.LatchWaits, b.mvcc.LatchWaits), "count")
	res.set("sqldb.mvcc.vacuum_runs", d(a.mvcc.VacuumRuns, b.mvcc.VacuumRuns), "count")
	res.set("sqldb.mvcc.versions_vacuumed", d(a.mvcc.VersionsVacuumed, b.mvcc.VersionsVacuumed), "count")
	res.set("wal.appends", d(a.wal.Appends, b.wal.Appends), "count")
	res.set("wal.fsyncs", d(a.wal.Fsyncs, b.wal.Fsyncs), "count")
	res.set("wal.group_commits", d(a.wal.GroupCommits, b.wal.GroupCommits), "count")
	perRow := 0.0
	if rows > 0 {
		perRow = float64(b.wal.SizeBytes-a.wal.SizeBytes) / float64(rows)
	}
	res.set("wal.bytes_per_row", perRow, "B")
	res.set("runtime.alloc_kb_per_op", d(a.mem.TotalAlloc, b.mem.TotalAlloc)/1024/n, "kB")
	res.set("runtime.gc_pause_ms", d(a.mem.PauseTotalNs, b.mem.PauseTotalNs)/1e6, "ms")
}

// newTraceResult starts a traced run's result. A traced run reports every
// per-layer metric; the tracer's report and counterMetrics always set
// theirs, and the ones only some workloads measure start at zero here.
func newTraceResult() *result {
	res := newResult()
	for name, unit := range map[string]string{
		"view.rows": "1/op", "view.bytes": "B", "wal.diff_append_ms": "ms", "wal.diff_fsync_ms": "ms",
		"write_p50_ms": "ms", "write_late_p95_ms": "ms", "recovery_s": "s", "trace.overhead_ratio": "ratio",
	} {
		res.set(name, 0, unit)
	}
	return res
}

// ---------------------------------------------------------------------------
// WAL replay

// walRecord is one log record read back from a data directory.
type walRecord struct {
	lsn     uint64
	payload []byte
}

// readLog returns the records of a closed data directory's log from LSN
// `from` on.
func readLog(dir string, from uint64) ([]walRecord, error) {
	fs, err := wal.DirFS(dir)
	if err != nil {
		return nil, err
	}
	w, err := wal.Open(fs, wal.Options{})
	if err != nil {
		return nil, err
	}
	var out []walRecord
	err = w.Replay(from, func(lsn uint64, payload []byte) error {
		out = append(out, walRecord{lsn, append([]byte(nil), payload...)})
		return nil
	})
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	return out, err
}

// walGroup is the log records one span produced.
type walGroup struct {
	parent, req int
	recs        []walRecord
}

// replayWAL appends every group's records to a scratch log under the group
// fsync policy, Durable after each Append as a commit does, and records the
// time each group spent in Append and in Durable as two spans under the
// group's parent: the WAL cost measured from the log's own public functions.
func replayWAL(t *tracer, cfg config, groups []walGroup) error {
	dir, err := scratchDir(cfg, "wal")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	fs, err := wal.DirFS(dir)
	if err != nil {
		return err
	}
	w, err := wal.Open(fs, wal.Options{Sync: wal.SyncGroup})
	if err != nil {
		return err
	}
	for _, g := range groups {
		start := time.Now()
		var appendD, fsyncD time.Duration
		for _, r := range g.recs {
			t0 := time.Now()
			lsn, err := w.Append(r.payload)
			t1 := time.Now()
			if err == nil {
				err = w.Durable(lsn)
			}
			if err != nil {
				w.Close()
				return err
			}
			appendD += t1.Sub(t0)
			fsyncD += time.Since(t1)
		}
		t.add(g.parent, g.req, "wal.append", "Append", start, appendD)
		t.add(g.parent, g.req, "wal.fsync", "Durable", start.Add(appendD), fsyncD)
	}
	return w.Close()
}

// ---------------------------------------------------------------------------
// Shared SQL texts

// The statement texts gam issues on the paths the trace peels. They are
// unexported there, so they are repeated here; if gam's SQL changes, the
// sqldb level of the trace measures the old statements until these follow.
const (
	sqlObjectByID      = "SELECT object_id, source_id, accession, text, number FROM object WHERE object_id = ?"
	sqlObjectsBySource = "SELECT object_id, source_id, accession, text, number FROM object WHERE source_id = ? ORDER BY accession"
	sqlObjectsScan     = "SELECT object_id, source_id, accession, text, number FROM object WHERE source_id = ?"
	sqlAssocsIn        = "SELECT source_rel_id, object1_id, object2_id, evidence FROM object_rel WHERE source_rel_id IN ("
	sqlInsertObjects   = "INSERT INTO object (source_id, accession, text, number) VALUES "
	sqlInsertAssocs    = "INSERT INTO object_rel (source_rel_id, object1_id, object2_id, evidence) VALUES "
	sqlInsertSourceRel = "INSERT INTO source_rel (source1_id, source2_id, type) VALUES (?, ?, ?)"
	sqlDeleteAssocs    = "DELETE FROM object_rel WHERE source_rel_id = ?"
	sqlDeleteSourceRel = "DELETE FROM source_rel WHERE source_rel_id = ?"
	insertChunk        = 200 // gam's rows per multi-row INSERT
)

// multiRowInsert renders prefix followed by n groups of four placeholders.
func multiRowInsert(prefix string, n int) string {
	return prefix + strings.TrimSuffix(strings.Repeat("(?, ?, ?, ?), ", n), ", ")
}

func placeholders(n int) string {
	return strings.TrimSuffix(strings.Repeat("?, ", n), ", ")
}

func sortedInt64(set map[int64]bool) []int64 {
	out := make([]int64, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
