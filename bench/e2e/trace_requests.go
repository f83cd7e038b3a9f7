package main

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"time"

	"genmapper/internal/gam"
	"genmapper/internal/ops"
	"genmapper/internal/sqldb"
	"genmapper/internal/view"
)

const (
	// maxTracedRequests is how many requests of the list are peeled; fewer
	// when requests are so slow that the peel would outlast the window.
	maxTracedRequests = 200
	minTracedRequests = 10
	// renderPreloadRows mirrors view's unexported preloadRowThreshold: from
	// this many rows on the renderer scans whole sources (up to four times
	// the row count each) before falling back to point lookups.
	renderPreloadRows = 2048
	exportFlushRows   = 512 // what the server's export handler passes to view.Stream
)

// byteCounter discards what is written to it and counts it.
type byteCounter struct{ n int }

func (c *byteCounter) Write(p []byte) (int, error) { c.n += len(p); return len(p), nil }

// traceRequests is the traced run of a request workload. A single-client
// window without spans gives the counter deltas and the untraced latency;
// then the first requests of the list are replayed serially and peeled:
// each is timed as the full HTTP round trip, then as the call into each
// layer below, by the benchmark calling that layer's public functions.
func traceRequests(cfg config) (*result, error) {
	e, err := setUp(cfg, cfg.workload)
	if err != nil {
		return nil, err
	}
	defer e.close()
	e.printSizing()
	res := newTraceResult()
	ref := newReference(e.w)
	fd, err := openFrontDoor(e.sys, 1)
	if err != nil {
		return nil, err
	}
	defer fd.close()

	// The natural window: half the run, one client, no spans. A first pass
	// fills whatever the workload keeps warm and is not counted.
	half := cfg
	half.seconds = cfg.seconds / 2
	runClosedLoop(fd, e.plan, 1, 0, warmUp(half))
	var wr *writer
	before := snapshot(e.sys)
	if cfg.workload == wlViewUpdate {
		if wr, err = startWriter(e, 0, window(half)); err != nil {
			return nil, err
		}
	}
	samples := runClosedLoop(fd, e.plan, 1, 0, window(half))
	if wr != nil {
		wr.report(res)
		for _, name := range []string{"write_p50_ms", "write_late_p95_ms"} {
			res.Metrics[name] = res.info[name]
		}
	}
	after := snapshot(e.sys)
	failed, reasons := validate(samples, e.plan, ref)
	res.Attempted += len(samples)
	res.Failed += failed
	res.reasons = append(res.reasons, reasons...)
	if len(samples) == 0 {
		return nil, fmt.Errorf("no request completed inside the window")
	}
	counterMetrics(res, before, after, len(samples), 0)
	naturalP50 := percentile(latenciesMS(samples), 50)
	res.note("untraced_p50_ms", naturalP50, "ms")

	// Peel the first requests of the list: up to maxTracedRequests, fewer
	// (but at least minTracedRequests) when the window's length has passed.
	tr := newTracer()
	var rows, size, top []float64
	n := 0
	for began := time.Now(); n < min(maxTracedRequests, len(e.plan.Order)) && (n < minTracedRequests || time.Since(began) < window(cfg)); n++ {
		first := len(tr.spans)
		r, b, err := e.peelRequest(tr, fd, n+1, e.plan.Order[n], cfg.workload == wlExportCold)
		res.Attempted++
		if err != nil {
			res.fail(1, "traced request %d: %v", n, err)
			continue
		}
		rows, size = append(rows, float64(r)), append(size, float64(b))
		top = append(top, float64(tr.spans[first].EndNS-tr.spans[first].StartNS)/1e6)
	}
	res.set("view.rows", mean(rows), "1/op")
	res.set("view.bytes", mean(size), "B")
	res.set("trace.overhead_ratio", median(top)/naturalP50, "ratio")

	writes := 0
	if wr != nil {
		writes = len(wr.maps)
		if err := e.peelWrites(tr, wr, res); err != nil {
			return nil, err
		}
	}
	tr.report(res, n, writes)
	if err := tr.write(cfg); err != nil {
		return nil, err
	}
	e.assertSeparation(res)
	return res, nil
}

// assertSeparation checks that the workload exercised the layers it exists
// for; a violated separation is a failed check of the run.
func (e *env) assertSeparation(res *result) {
	hit := res.Metrics["ops.exec.hit_ratio"].Value
	misses := res.Metrics["ops.exec.misses"].Value
	appends := res.Metrics["wal.appends"].Value
	res.Attempted++
	switch e.cfg.workload {
	case wlViewWarm:
		if hit < 0.99 || appends != 0 {
			res.fail(1, "view.warm must run from the executor cache and write nothing: hit ratio %.4f, wal appends %.0f", hit, appends)
		}
	case wlExportCold:
		if misses < 1 || appends != 0 {
			res.fail(1, "export.cold must load and compose on every request and write nothing: %.2f misses per request, wal appends %.0f", misses, appends)
		}
	case wlViewUpdate:
		if appends == 0 {
			res.fail(1, "view.update must append to the log: wal appends 0")
		}
	}
}

// peelRequest replays request i once per layer and records the spans of
// request number req. On the cold workload the executor is reset before
// every run of every level, so each sees the same (empty) cache; on the
// warm ones the cache was primed and stays as it is.
func (e *env) peelRequest(tr *tracer, fd *frontDoor, req, i int, cold bool) (rows, size int, err error) {
	r := e.plan.Requests[i]
	q := r.Query
	sys, repo, ex := e.sys, e.sys.Repo(), e.sys.Executor()
	reset := func() {
		if cold {
			ex.Reset()
		}
	}
	keep := func() {}

	// server: the full HTTP round trip.
	var buf bytes.Buffer
	var s sample
	srvID, err := tr.timedMedian(0, req, "server", r.Method+" "+strings.SplitN(r.URL, "?", 2)[0], reset, func() error {
		if s = issue(fd, e.plan, i, &buf); s.err != "" {
			return errors.New(s.err)
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}

	// genmapper: the System call the handler makes.
	gmID, err := tr.timedMedian(srvID, req, "genmapper", "AnnotationView", reset, func() error {
		if r.Export {
			return sys.StreamAnnotationView(q, &byteCounter{}, "tsv", exportFlushRows, nil)
		}
		_, err := sys.AnnotationView(q)
		return err
	})
	if err != nil {
		return 0, 0, err
	}

	// ops.exec: the executor calls of the request, one per target. System
	// makes them itself for via paths and GenerateView makes them through
	// the resolver otherwise, which decides the parent span.
	src := repo.SourceByName(q.Source)
	specs := make([]ops.TargetSpec, len(q.Targets))
	via := false
	resolve := func() error {
		for t, tgt := range q.Targets {
			route := e.plan.Routes[i][t]
			specs[t] = ops.TargetSpec{Source: route[len(route)-1], Negate: tgt.Negate}
			var err error
			if via = len(tgt.Via) > 0; via {
				specs[t].Mapping, err = ex.MapPath(route)
			} else {
				_, err = sys.Resolver()(route[0], route[len(route)-1])
			}
			if err != nil {
				return err
			}
		}
		return nil
	}
	var missed bool
	execAt := len(tr.spans)
	if _, err := tr.timedMedian(gmID, req, "ops.exec", "MapPath", reset, func() error {
		before := ex.Stats().Misses
		err := resolve()
		missed = ex.Stats().Misses > before
		return err
	}); err != nil {
		return 0, 0, err
	}
	execID := execAt + 1

	// ops.view and view.render. Resolving the accessions is what System does
	// before them; it stays in genmapper's self time.
	sSet, err := objectSet(repo, src.ID, q.Accessions)
	if err != nil {
		return 0, 0, err
	}
	mode := combineMode(q.Mode)
	var v *ops.View
	viewID, err := tr.timedMedian(gmID, req, "ops.view", "GenerateView", keep, func() (err error) {
		v, err = ops.GenerateView(repo, src.ID, sSet, specs, mode, sys.Resolver())
		return err
	})
	if err != nil {
		return 0, 0, err
	}
	if !via {
		// The resolver's calls happened inside GenerateView.
		tr.spans[execID-1].Parent = viewID
	}
	out := &byteCounter{}
	renderID, err := tr.timedMedian(gmID, req, "view.render", "Render", func() { out.n = 0 }, func() error {
		if r.Export {
			return view.Stream(repo, v, view.Options{}, out, "tsv", exportFlushRows, nil)
		}
		_, err := view.Render(repo, v, view.Options{})
		return err
	})
	if err != nil {
		return 0, 0, err
	}
	rows, size = len(v.Rows), out.n
	if !r.Export {
		size = s.bytes
	}

	// gam.read and sqldb under ops.exec: the association loads of the routes
	// when the executor missed.
	if missed {
		seen := make(map[gam.SourceRelID]bool)
		var rels []gam.SourceRelID
		for _, route := range e.plan.Routes[i] {
			for j := 0; j+1 < len(route); j++ {
				rel, _, err := repo.FindMapping(route[j], route[j+1])
				if err != nil || rel == nil {
					return 0, 0, fmt.Errorf("no mapping on route edge %d (%v)", j, err)
				}
				if !seen[rel.ID] {
					seen[rel.ID] = true
					rels = append(rels, rel.ID)
				}
			}
		}
		gamID, err := tr.timedMedian(execID, req, "gam.read", "AssociationsBatch", keep, func() error {
			_, err := repo.AssociationsBatch(rels)
			return err
		})
		if err != nil {
			return 0, 0, err
		}
		args := make([]any, len(rels))
		for j, id := range rels {
			args[j] = int64(id)
		}
		if err := sqlQuery(tr, gamID, req, repo.DB(), sqlAssocsIn+placeholders(len(rels))+")", [][]any{args}); err != nil {
			return 0, 0, err
		}
	}

	// gam.read around the view: accession lookup (served from the
	// repository's own map, no SQL) or the whole-source object list.
	if len(q.Accessions) > 0 {
		if _, err := tr.timedMedian(gmID, req, "gam.read", "LookupObjects", keep, func() error {
			_, err := repo.LookupObjects(src.ID, q.Accessions)
			return err
		}); err != nil {
			return 0, 0, err
		}
	} else {
		gamID, err := tr.timedMedian(viewID, req, "gam.read", "ObjectsBySource", keep, func() error {
			_, err := repo.ObjectsBySource(src.ID)
			return err
		})
		if err != nil {
			return 0, 0, err
		}
		if err := sqlQuery(tr, gamID, req, repo.DB(), sqlObjectsBySource, [][]any{{int64(src.ID)}}); err != nil {
			return 0, 0, err
		}
	}
	return rows, size, e.peelRender(tr, renderID, req, v)
}

// peelRender replays the repository reads of view.Render / view.Stream:
// above the preload threshold a budgeted scan of each involved source, then
// one point lookup per distinct object the scans did not cover.
func (e *env) peelRender(tr *tracer, renderID, req int, v *ops.View) error {
	repo := e.sys.Repo()
	need := make(map[int64]bool)
	for _, row := range v.Rows {
		for _, id := range row {
			if id != 0 {
				need[int64(id)] = true
			}
		}
	}
	keep := func() {}
	if len(v.Rows) >= renderPreloadRows {
		budget := 4 * len(v.Rows)
		errBudget := errors.New("budget")
		seen := make(map[gam.SourceID]bool)
		for _, src := range append([]gam.SourceID{v.Source}, v.Targets...) {
			if seen[src] {
				continue
			}
			seen[src] = true
			gamID, err := tr.timedMedian(renderID, req, "gam.read", "ObjectsScanEach", keep, func() error {
				scanned := 0
				err := repo.ObjectsScanEach(src, func(o *gam.Object) error {
					if scanned >= budget {
						return errBudget
					}
					scanned++
					delete(need, int64(o.ID))
					return nil
				})
				if errors.Is(err, errBudget) {
					return nil
				}
				return err
			})
			if err != nil {
				return err
			}
			if err := sqlQuery(tr, gamID, req, repo.DB(), sqlObjectsScan, [][]any{{int64(src)}}); err != nil {
				return err
			}
		}
	}
	ids := sortedInt64(need)
	if len(ids) == 0 {
		return nil
	}
	gamID, err := tr.timedMedian(renderID, req, "gam.read", "Object", keep, func() error {
		for _, id := range ids {
			if _, err := repo.Object(gam.ObjectID(id)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	args := make([][]any, len(ids))
	for j, id := range ids {
		args[j] = []any{id}
	}
	return sqlQuery(tr, gamID, req, repo.DB(), sqlObjectByID, args)
}

// sqlQuery is the sqldb level of a read: the statement gam would issue,
// prepared (sqldb.prepare) and executed once per argument list
// (sqldb.exec), streamed and discarded.
func sqlQuery(tr *tracer, parent, req int, db *sqldb.DB, text string, argLists [][]any) error {
	keep := func() {}
	var stmt *sqldb.Stmt
	if _, err := tr.timedMedian(parent, req, "sqldb.prepare", "Prepare", keep, func() (err error) {
		stmt, err = db.Prepare(text)
		return err
	}); err != nil {
		return err
	}
	_, err := tr.timedMedian(parent, req, "sqldb.exec", "Query", keep, func() error {
		for _, args := range argLists {
			if err := stmt.QueryEach(func([]sqldb.Value) error { return nil }, args...); err != nil {
				return err
			}
		}
		return nil
	})
	return err
}

// replaceTexts are the statements of one ReplaceMapping of m.
func replaceTexts(m *rotating) []string {
	texts := []string{sqlDeleteAssocs, sqlDeleteSourceRel, sqlInsertSourceRel}
	for lo := 0; lo < len(m.assocs); lo += insertChunk {
		texts = append(texts, multiRowInsert(sqlInsertAssocs, min(insertChunk, len(m.assocs)-lo)))
	}
	return texts
}

// replaceTx runs ReplaceMapping's statements in one transaction on a
// scratch mapping: it deletes mapping `old` and creates one with m's pairs
// under the Composed type, which nothing in the request list resolves
// through. It returns the new scratch mapping's ID.
func replaceTx(db *sqldb.DB, m *rotating, old int64) (int64, error) {
	tx := db.Begin()
	fail := func(err error) (int64, error) {
		//gmlint:ignore errdrop the transaction already failed; the rollback's own error adds nothing
		_ = tx.Rollback()
		return 0, err
	}
	if _, err := tx.Exec(sqlDeleteAssocs, old); err != nil {
		return fail(err)
	}
	if _, err := tx.Exec(sqlDeleteSourceRel, old); err != nil {
		return fail(err)
	}
	r, err := tx.Exec(sqlInsertSourceRel, int64(m.s1), int64(m.s2), string(gam.RelComposed))
	if err != nil {
		return fail(err)
	}
	for lo := 0; lo < len(m.assocs); lo += insertChunk {
		chunk := m.assocs[lo:min(lo+insertChunk, len(m.assocs))]
		args := make([]any, 0, 4*len(chunk))
		for _, a := range chunk {
			args = append(args, r.LastInsertID, int64(a.Object1), int64(a.Object2), 0.5)
		}
		if _, err := tx.Exec(multiRowInsert(sqlInsertAssocs, len(chunk)), args...); err != nil {
			return fail(err)
		}
	}
	return r.LastInsertID, tx.Commit()
}

// peelWrites times one ReplaceMapping per rotating mapping (gam.write),
// then the same statements in one transaction on a scratch mapping of the
// same size (sqldb), then the log records those transactions produced,
// re-appended to a scratch log (wal). It closes the system to read its log.
func (e *env) peelWrites(tr *tracer, wr *writer, res *result) error {
	db := e.sys.DB()
	var groups []walGroup
	var lsns []uint64                                      // per group, the LSN of its transaction's record
	base := writeRequestBase / len(wr.maps) * len(wr.maps) // versions beyond the window's; version base+k replaces mapping k
	for k, m := range wr.maps {
		req := writeRequestBase + k
		gwID, err := tr.timed(0, req, "gam.write", "ReplaceMapping", func() error { return wr.replace(base + k) })
		res.Attempted++
		if err != nil {
			res.fail(1, "traced ReplaceMapping %d: %v", k, err)
			continue
		}
		scratch, err := replaceTx(db, m, 0) // untimed: gives the timed one a mapping to delete, as a real replace has
		if err != nil {
			return err
		}
		if _, err := tr.timed(gwID, req, "sqldb.prepare", "Prepare", func() error {
			for _, text := range replaceTexts(m) {
				if _, err := db.Prepare(text); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
		id, err := tr.timed(gwID, req, "sqldb.exec", "replace transaction", func() (err error) {
			scratch, err = replaceTx(db, m, scratch)
			return err
		})
		if err != nil {
			return err
		}
		groups, lsns = append(groups, walGroup{parent: id, req: req}), append(lsns, db.WALStats().LastLSN)
		if _, err := db.Exec(sqlDeleteAssocs, scratch); err != nil {
			return err
		}
		if _, err := db.Exec(sqlDeleteSourceRel, scratch); err != nil {
			return err
		}
	}
	wr.verifyAfterReopen(e, res)
	if len(groups) == 0 {
		return nil
	}
	recs, err := readLog(e.dir, lsns[0])
	if err != nil {
		return err
	}
	g := 0
	for _, r := range recs {
		if g < len(lsns) && r.lsn == lsns[g] {
			groups[g].recs = []walRecord{r}
			g++
		}
	}
	return replayWAL(tr, e.cfg, groups)
}
