package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"genmapper"
	"genmapper/internal/gam"
	"genmapper/internal/wal"
)

const (
	writePeriod      = 200 * time.Millisecond // open loop, 5 writes/s
	rotatingMappings = 16
	// rotatingAssocs is the association count the rotating mappings should
	// be near, at scale 0.05 (1-3k); it scales with the universe.
	rotatingAssocs = 2000.0
)

// rotating is one mapping the writer replaces in turn.
type rotating struct {
	s1, s2 gam.SourceID
	typ    gam.RelType
	assocs []gam.Assoc
	// acked is the mapping ID and version of the last ReplaceMapping that
	// returned without error.
	ackedID  gam.SourceRelID
	ackedVer int
}

// versionEvidence marks every association of write number ver. A write
// replaces a mapping with the same object pairs under a new evidence value,
// so the reader's expected row counts hold while each write's content is
// distinguishable after a reopen.
func versionEvidence(ver int) float64 { return 0.5 + float64(ver%4000)/10000 }

// writer replaces mappings the reader's shapes use, open loop at a fixed
// rate through Repo.ReplaceMapping.
type writer struct {
	repo *gam.Repo
	maps []*rotating
	wg   sync.WaitGroup

	// One entry per write due inside the measured window.
	latMS, lateMS []float64
	acked         int
	errs          []error
}

// pickRotating chooses the mappings to replace: direct routes of the
// reader's shapes whose size is nearest the target. A mapping that is also
// a non-final edge of a composed route is left alone: the executor looks a
// path's edges up one by one (each lookup takes the repository mutex that
// ReplaceMapping holds for its whole transaction) before loading them all,
// and a replaced mapping gets a new ID, so a replace landing between an
// edge's lookup and the load would empty that edge for one request. The
// README records this as a blind spot; the workload is built not to hit it.
func pickRotating(e *env) ([]*rotating, error) {
	repo := e.sys.Repo()
	inner := make(map[[2]gam.SourceID]bool)
	direct := make(map[[2]gam.SourceID]bool)
	for _, routes := range e.plan.Routes {
		for _, r := range routes {
			if len(r) == 2 {
				direct[[2]gam.SourceID{r[0], r[1]}] = true
			}
			for i := 0; i+2 < len(r); i++ {
				inner[[2]gam.SourceID{r[i], r[i+1]}] = true
				inner[[2]gam.SourceID{r[i+1], r[i]}] = true
			}
		}
	}
	type cand struct {
		rel  *gam.SourceRel
		dist float64
	}
	var cands []cand
	seen := make(map[gam.SourceRelID]bool)
	target := rotatingAssocs * e.cfg.scale / 0.05
	for pair := range direct {
		if inner[pair] {
			continue
		}
		rel, _, err := repo.FindMapping(pair[0], pair[1])
		if err != nil || rel == nil || seen[rel.ID] {
			continue
		}
		seen[rel.ID] = true
		n, err := repo.AssociationCount(rel.ID)
		if err != nil || n == 0 {
			continue
		}
		cands = append(cands, cand{rel, math.Abs(math.Log(float64(n) / target))})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].dist != cands[j].dist {
			return cands[i].dist < cands[j].dist
		}
		return cands[i].rel.ID < cands[j].rel.ID
	})
	if len(cands) > rotatingMappings {
		cands = cands[:rotatingMappings]
	}
	if len(cands) == 0 {
		return nil, fmt.Errorf("view.update: the reader's shapes use no direct mapping to replace")
	}
	out := make([]*rotating, len(cands))
	lo, hi := math.MaxInt, 0
	for i, c := range cands {
		assocs, err := repo.Associations(c.rel.ID)
		if err != nil {
			return nil, err
		}
		out[i] = &rotating{s1: c.rel.Source1, s2: c.rel.Source2, typ: c.rel.Type, assocs: assocs}
		lo, hi = min(lo, len(assocs)), max(hi, len(assocs))
	}
	fmt.Printf("# writer: rotates over %d mappings of %d-%d associations, open loop at %.0f writes/s\n",
		len(out), lo, hi, float64(time.Second)/float64(writePeriod))
	return out, nil
}

// replace performs write number ver on its mapping.
func (w *writer) replace(ver int) error {
	m := w.maps[ver%len(w.maps)]
	ev := versionEvidence(ver)
	assocs := make([]gam.Assoc, len(m.assocs))
	for i, a := range m.assocs {
		assocs[i] = gam.Assoc{Object1: a.Object1, Object2: a.Object2, Evidence: ev}
	}
	id, err := w.repo.ReplaceMapping(m.s1, m.s2, m.typ, assocs)
	if err != nil {
		return err
	}
	m.ackedID, m.ackedVer = id, ver
	return nil
}

// startWriter launches the writer. Write k is due k periods after the
// start; writes due during the warm-up run but are not recorded. A write is
// timed from when it was due, so a stall charges the writes queued behind
// it, and its lateness is how long after its due time it started.
func startWriter(e *env, warm, d time.Duration) (*writer, error) {
	maps, err := pickRotating(e)
	if err != nil {
		return nil, err
	}
	w := &writer{repo: e.sys.Repo(), maps: maps}
	start := time.Now()
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		for k := 0; ; k++ {
			due := start.Add(time.Duration(k) * writePeriod)
			if due.Sub(start) >= warm+d {
				return
			}
			time.Sleep(time.Until(due))
			began := time.Now()
			err := w.replace(k)
			if due.Sub(start) < warm {
				continue
			}
			if err != nil {
				w.errs = append(w.errs, err)
				continue
			}
			w.acked++
			w.latMS = append(w.latMS, ms(time.Since(due)))
			w.lateMS = append(w.lateMS, ms(began.Sub(due)))
		}
	}()
	return w, nil
}

// report waits for the writer and adds its measurements to res.
func (w *writer) report(res *result) {
	w.wg.Wait()
	res.Attempted += w.acked + len(w.errs)
	for _, err := range w.errs {
		res.fail(1, "ReplaceMapping: %v", err)
	}
	res.note("write_p50_ms", percentile(w.latMS, 50), "ms")
	res.note("write_p95_ms", percentile(w.latMS, 95), "ms")
	res.note("write_late_p95_ms", percentile(w.lateMS, 95), "ms")
	res.note("writes", float64(w.acked), "count")
}

// verifyAfterReopen closes the system, reopens its directory and checks
// that every acknowledged ReplaceMapping is readable: the mapping carries
// the acknowledged ID and every association the acknowledged version. It
// leaves the system closed.
func (w *writer) verifyAfterReopen(e *env, res *result) {
	if err := e.sys.Close(); err != nil {
		res.fail(1, "close before reopen: %v", err)
	}
	e.sys = nil
	start := time.Now()
	sys, err := genmapper.OpenDurable(e.dir, genmapper.DurableOptions{Sync: wal.SyncGroup})
	if err != nil {
		res.fail(1, "reopen: %v", err)
		return
	}
	res.note("reopen_s", time.Since(start).Seconds(), "s")
	defer func() {
		if err := sys.Close(); err != nil {
			res.fail(1, "close after reopen: %v", err)
		}
	}()
	for i, m := range w.maps {
		if m.ackedID == 0 {
			continue
		}
		res.Attempted++
		id, ok, err := sys.Repo().FindRel(m.s1, m.s2, m.typ)
		if err != nil || !ok || id != m.ackedID {
			res.fail(1, "after reopen mapping %d has id %d (found=%v err=%v), acknowledged %d", i, id, ok, err, m.ackedID)
			continue
		}
		assocs, err := sys.Repo().Associations(id)
		if err != nil || len(assocs) != len(m.assocs) {
			res.fail(1, "after reopen mapping %d has %d associations (err=%v), acknowledged %d", i, len(assocs), err, len(m.assocs))
			continue
		}
		for _, a := range assocs {
			if a.Evidence != versionEvidence(m.ackedVer) {
				res.fail(1, "after reopen mapping %d holds evidence %g, acknowledged version %d wrote %g",
					i, a.Evidence, m.ackedVer, versionEvidence(m.ackedVer))
				break
			}
		}
	}
}
