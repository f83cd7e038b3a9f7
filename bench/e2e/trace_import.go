package main

import (
	"fmt"
	"os"
	"time"

	"genmapper"
	"genmapper/internal/eav"
	"genmapper/internal/gam"
	"genmapper/internal/gen"
	"genmapper/internal/importer"
	"genmapper/internal/parser"
	"genmapper/internal/sqldb"
	"genmapper/internal/wal"
)

// writeRun is a maximal run of consecutively inserted rows of one source
// (objects) or one mapping (associations), read back from an imported
// database in row order. Replaying the runs in order through gam's bulk
// calls, or as the multi-row INSERTs gam issues, writes the same rows with
// the same IDs.
type writeRun struct {
	source  gam.SourceID // owner: the objects' source, or the mapping's first source
	objects []gam.ObjectSpec
	rel     gam.SourceRelID
	assocs  []gam.Assoc
}

// readRuns reads the sources, mappings and row runs of an imported system.
func readRuns(sys *genmapper.System) (sources []*gam.Source, rels []*gam.SourceRel, runs []writeRun, err error) {
	repo, db := sys.Repo(), sys.DB()
	byID := make(map[gam.SourceID]*gam.Source)
	for _, s := range sys.Sources() {
		byID[s.ID] = s
	}
	for id := gam.SourceID(1); int(id) <= len(byID); id++ {
		if byID[id] == nil {
			return nil, nil, nil, fmt.Errorf("source ids are not dense at %d", id)
		}
		sources = append(sources, byID[id])
	}
	if rels, err = repo.SourceRels(); err != nil {
		return nil, nil, nil, err
	}
	relSource := make(map[gam.SourceRelID]gam.SourceID, len(rels))
	for _, r := range rels {
		relSource[r.ID] = r.Source1
	}
	err = db.QueryEach("SELECT object_id, source_id, accession, text, number FROM object ORDER BY object_id", func(row []sqldb.Value) error {
		src := gam.SourceID(row[1].(int64))
		spec := gam.ObjectSpec{Accession: row[2].(string)}
		spec.Text, _ = row[3].(string)
		spec.Number, spec.HasNumber = row[4].(float64)
		if n := len(runs); n == 0 || runs[n-1].source != src {
			runs = append(runs, writeRun{source: src})
		}
		last := &runs[len(runs)-1]
		last.objects = append(last.objects, spec)
		return nil
	})
	if err != nil {
		return nil, nil, nil, err
	}
	err = db.QueryEach("SELECT source_rel_id, object1_id, object2_id, evidence FROM object_rel ORDER BY object_rel_id", func(row []sqldb.Value) error {
		rel := gam.SourceRelID(row[0].(int64))
		a := gam.Assoc{Object1: gam.ObjectID(row[1].(int64)), Object2: gam.ObjectID(row[2].(int64))}
		a.Evidence, _ = row[3].(float64)
		if n := len(runs); n == 0 || runs[n-1].rel != rel {
			runs = append(runs, writeRun{source: relSource[rel], rel: rel})
		}
		last := &runs[len(runs)-1]
		last.assocs = append(last.assocs, a)
		return nil
	})
	return sources, rels, runs, err
}

// traceImport is the traced run of import.durable: one natural repetition
// for the counters and the top-level spans, then the same files through
// each layer below by the benchmark's own calls: the parsers, the importer,
// gam's bulk writes, the engine's INSERT statements, and the log.
func traceImport(cfg config) (*result, error) {
	e, err := setUpImport(cfg)
	if err != nil {
		return nil, err
	}
	defer e.close()
	fmt.Printf("# universe: %s in %d files, fsync=group\n", e.stats, len(e.files))
	res := newTraceResult()
	tr := newTracer()
	specs := e.uni.SortedSpecs()
	fileSpan := make(map[string]int, len(specs)) // source name -> its genmapper span
	fileReq := make(map[string]int, len(specs))

	// genmapper: System.ImportFile per file, in a real durable repetition.
	rep, err := e.durableImport(wal.SyncGroup, res, func(spec gen.SourceSpec, d time.Duration) {
		req := len(fileSpan) + 1
		fileReq[spec.Name] = req
		fileSpan[spec.Name] = tr.add(0, req, "genmapper", "ImportFile "+spec.Name, time.Now().Add(-d), d)
	})
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(rep.dir)
	counterMetrics(res, rep.before, rep.after, len(specs), rep.rows)
	res.set("recovery_s", rep.recoveryS, "s")

	// parser: the Parse phase of the two-phase import.
	datasets := make(map[string]*eav.Dataset, len(specs))
	for _, spec := range specs {
		_, err := tr.timed(fileSpan[spec.Name], fileReq[spec.Name], "parser", "Parse "+spec.Format, func() error {
			f, err := os.Open(e.files[spec.Name])
			if err != nil {
				return err
			}
			defer f.Close()
			datasets[spec.Name], err = parser.Parse(spec.Format, f, e.uni.SourceInfo(spec.Name))
			return err
		})
		if err != nil {
			return nil, err
		}
	}

	// importer: the Import phase, into a second durable system. The log
	// records each Import call appended are replayed further down.
	impSpan := make(map[gam.SourceID]int)
	impReq := make(map[gam.SourceID]int)
	var walGroups []walGroup
	var firstLSN uint64
	var lastLSN []uint64 // per walGroups entry, the last LSN of its Import call
	imported, importedDir, err := e.withDurable(wal.SyncGroup, func(sys *genmapper.System) error {
		firstLSN = sys.SQLWALStats().LastLSN + 1
		for _, spec := range specs {
			id, err := tr.timed(fileSpan[spec.Name], fileReq[spec.Name], "importer", "Import "+spec.Name, func() error {
				_, err := importer.Import(sys.Repo(), datasets[spec.Name], importOpts)
				return err
			})
			if err != nil {
				return err
			}
			src := sys.Repo().SourceByName(spec.Name)
			impSpan[src.ID], impReq[src.ID] = id, fileReq[spec.Name]
			walGroups = append(walGroups, walGroup{parent: id, req: fileReq[spec.Name]})
			lastLSN = append(lastLSN, sys.SQLWALStats().LastLSN)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sources, rels, runs, err := readRuns(imported)
	if err != nil {
		return nil, err
	}
	if err := imported.Close(); err != nil {
		return nil, err
	}

	// gam.write and sqldb: the rows the import inserted, replayed in memory;
	// the log's share of the importer spans is measured by itself below.
	gamSpan, err := replayGamWrites(tr, sources, rels, runs, impSpan, impReq)
	if err != nil {
		return nil, err
	}
	if err := replayInserts(tr, runs, gamSpan, impReq); err != nil {
		return nil, err
	}

	// wal: every record the importer pass logged, re-appended to a scratch
	// log and charged to the Import call that wrote it.
	recs, err := readLog(importedDir, firstLSN)
	if err != nil {
		return nil, err
	}
	g := 0
	for _, r := range recs {
		for g < len(lastLSN) && r.lsn > lastLSN[g] {
			g++
		}
		if g == len(lastLSN) {
			break
		}
		walGroups[g].recs = append(walGroups[g].recs, r)
	}
	if err := replayWAL(tr, cfg, walGroups); err != nil {
		return nil, err
	}

	// wal, differentially: the same import in memory and with fsync off.
	mark := time.Now()
	mem, err := genmapper.New()
	if err != nil {
		return nil, err
	}
	if _, err := e.importAll(mem, nil); err != nil {
		return nil, err
	}
	memS := time.Since(mark).Seconds()
	off, err := e.durableImport(wal.SyncOff, res, nil)
	if err != nil {
		return nil, err
	}
	//gmlint:ignore errdrop the directory lies under the set-up's, which is removed when the run ends
	_ = os.RemoveAll(off.dir)
	files := float64(len(specs))
	res.set("wal.diff_append_ms", 1000*(off.importS-memS)/files, "ms")
	res.set("wal.diff_fsync_ms", 1000*(rep.importS-off.importS)/files, "ms")
	res.note("import_memory_s", memS, "s")
	res.note("import_fsync_off_s", off.importS, "s")
	res.note("import_fsync_group_s", rep.importS, "s")

	tr.report(res, len(specs), 0)
	if res.Metrics["wal.appends"].Value == 0 {
		res.fail(1, "import.durable must append to the log: wal appends 0")
	}
	return res, tr.write(cfg)
}

// withDurable runs fn on a fresh durable system in its own directory and
// returns both, the system still open.
func (e *importEnv) withDurable(sync wal.SyncPolicy, fn func(*genmapper.System) error) (*genmapper.System, string, error) {
	dir, err := os.MkdirTemp(e.dir, "peel-")
	if err != nil {
		return nil, "", err
	}
	sys, err := genmapper.OpenDurable(dir, genmapper.DurableOptions{Sync: sync})
	if err != nil {
		return nil, "", err
	}
	if err := fn(sys); err != nil {
		sys.Close()
		return nil, "", err
	}
	return sys, dir, nil
}

// replayGamWrites writes the runs into a fresh in-memory system through
// gam's bulk calls, one gam.write span per run under the importer span of
// the run's source. The importer's other repository calls — the per-row
// UPDATEs that back-fill objects first seen as cross-reference targets, and
// the reads of duplicate elimination — are not replayed and stay in the
// importer's self time.
func replayGamWrites(tr *tracer, sources []*gam.Source, rels []*gam.SourceRel, runs []writeRun, impSpan, impReq map[gam.SourceID]int) ([]int, error) {
	sys, err := genmapper.New()
	if err != nil {
		return nil, err
	}
	repo := sys.Repo()
	for _, s := range sources {
		if got, _, err := repo.EnsureSource(*s); err != nil || got.ID != s.ID {
			return nil, fmt.Errorf("replay source %s: id %v, want %d (%v)", s.Name, got, s.ID, err)
		}
	}
	for _, r := range rels {
		if id, _, err := repo.EnsureSourceRel(r.Source1, r.Source2, r.Type); err != nil || id != r.ID {
			return nil, fmt.Errorf("replay mapping %d: id %d (%v)", r.ID, id, err)
		}
	}
	spans := make([]int, len(runs))
	for i, run := range runs {
		spans[i], err = tr.timed(impSpan[run.source], impReq[run.source], "gam.write", "bulk insert", func() error {
			if run.objects != nil {
				_, _, err := repo.EnsureObjects(run.source, run.objects)
				return err
			}
			_, err := repo.AddAssociations(run.rel, run.assocs, false)
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	return spans, nil
}

// replayInserts writes the runs into a fresh in-memory database as the
// multi-row INSERT statements gam issues, prepared and executed through the
// engine's public statement API, under the gam.write span of each run.
func replayInserts(tr *tracer, runs []writeRun, gamSpan []int, impReq map[gam.SourceID]int) error {
	db := sqldb.NewDB()
	if _, err := gam.Open(db); err != nil { // creates the GAM schema
		return err
	}
	for i, run := range runs {
		parent, req := gamSpan[i], impReq[run.source]
		n := max(len(run.objects), len(run.assocs))
		for lo := 0; lo < n; lo += insertChunk {
			hi := min(lo+insertChunk, n)
			text := multiRowInsert(sqlInsertAssocs, hi-lo)
			args := make([]any, 0, 4*(hi-lo))
			if run.objects != nil {
				text = multiRowInsert(sqlInsertObjects, hi-lo)
				for _, o := range run.objects[lo:hi] {
					var txt, num any
					if o.Text != "" {
						txt = o.Text
					}
					if o.HasNumber {
						num = o.Number
					}
					args = append(args, int64(run.source), o.Accession, txt, num)
				}
			} else {
				for _, a := range run.assocs[lo:hi] {
					var ev any
					if a.Evidence != 0 {
						ev = a.Evidence
					}
					args = append(args, int64(run.rel), int64(a.Object1), int64(a.Object2), ev)
				}
			}
			var stmt *sqldb.Stmt
			if _, err := tr.timed(parent, req, "sqldb.prepare", "Prepare", func() (err error) {
				stmt, err = db.Prepare(text)
				return err
			}); err != nil {
				return err
			}
			if _, err := tr.timed(parent, req, "sqldb.exec", "INSERT", func() error {
				_, err := stmt.Exec(args...)
				return err
			}); err != nil {
				return err
			}
		}
	}
	return nil
}
