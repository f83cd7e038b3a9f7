package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"genmapper"
	"genmapper/internal/gam"
	"genmapper/internal/gen"
	"genmapper/internal/wal"
)

// importEnv is the set-up of import.durable: the universe rendered as
// native-format files, and the same files imported into memory as the
// reference every durable repetition must equal after its reopen.
type importEnv struct {
	uni   *gen.Universe
	dir   string
	files map[string]string
	ref   *genmapper.System
	stats *gam.Stats
}

func setUpImport(cfg config) (*importEnv, error) {
	e := &importEnv{uni: gen.NewUniverse(gen.Config{Seed: cfg.seed, Scale: cfg.scale})}
	var err error
	if e.dir, err = scratchDir(cfg, "import"); err != nil {
		return nil, err
	}
	if e.files, err = e.uni.WriteFiles(filepath.Join(e.dir, "files")); err != nil {
		e.close()
		return nil, err
	}
	// Flush the source files now: left dirty, they would be written back by
	// the first fsyncs of the measured import and be charged to the log.
	for _, path := range e.files {
		if err := syncFile(path); err != nil {
			e.close()
			return nil, err
		}
	}
	if e.ref, err = genmapper.New(); err != nil {
		e.close()
		return nil, err
	}
	if _, err := e.importAll(e.ref, nil); err != nil {
		e.close()
		return nil, err
	}
	if e.stats, err = e.ref.Stats(); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (e *importEnv) close() {
	//gmlint:ignore errdrop a scratch directory that cannot be removed is left for the next run's cleanup; the result stands
	_ = os.RemoveAll(e.dir)
}

func syncFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

// importAll imports every source file in SortedSpecs order, calling each
// (when non-nil) with the source and how long its ImportFile took.
func (e *importEnv) importAll(sys *genmapper.System, each func(spec gen.SourceSpec, d time.Duration)) (time.Duration, error) {
	start := time.Now()
	for _, spec := range e.uni.SortedSpecs() {
		t := time.Now()
		if _, err := sys.ImportFile(spec.Format, e.files[spec.Name], e.uni.SourceInfo(spec.Name), importOpts); err != nil {
			return 0, fmt.Errorf("import %s: %w", spec.Name, err)
		}
		if each != nil {
			each(spec, time.Since(t))
		}
	}
	return time.Since(start), nil
}

// repetition is one measured pass of import.durable.
type repetition struct {
	rows      int64
	importS   float64 // OpenDurable + every ImportFile + Close
	recoveryS float64 // OpenDurable on the directory just closed
	fileMS    []float64
	dir       string
	// before and after are the counters around the import, for the trace.
	before, after counters
}

// durableImport runs one repetition into a fresh directory: open with the
// given fsync policy, import every file, close, then a timed reopen whose
// Stats must equal the in-memory import's. The directory is left for the
// caller (the trace replays its log).
func (e *importEnv) durableImport(sync wal.SyncPolicy, res *result, each func(spec gen.SourceSpec, d time.Duration)) (*repetition, error) {
	dir, err := os.MkdirTemp(e.dir, "rep-")
	if err != nil {
		return nil, err
	}
	rep := &repetition{dir: dir}
	opts := genmapper.DurableOptions{Sync: sync}
	start := time.Now()
	sys, err := genmapper.OpenDurable(dir, opts)
	if err != nil {
		return nil, err
	}
	rep.before = snapshot(sys)
	_, err = e.importAll(sys, func(spec gen.SourceSpec, d time.Duration) {
		rep.fileMS = append(rep.fileMS, ms(d))
		if each != nil {
			each(spec, d)
		}
	})
	if err != nil {
		sys.Close()
		return nil, err
	}
	rep.after = snapshot(sys)
	if err := sys.Close(); err != nil {
		return nil, err
	}
	rep.importS = time.Since(start).Seconds()
	rep.rows = e.stats.Objects + e.stats.Associations

	start = time.Now()
	sys, err = genmapper.OpenDurable(dir, opts)
	if err != nil {
		return nil, fmt.Errorf("reopen: %w", err)
	}
	rep.recoveryS = time.Since(start).Seconds()
	st, err := sys.Stats()
	res.Attempted += int(rep.rows)
	if err != nil || !reflect.DeepEqual(st, e.stats) {
		res.fail(int(rep.rows), "reopened stats %v (err=%v) differ from the in-memory import's %v", st, err, e.stats)
	}
	if err := sys.Close(); err != nil {
		return nil, err
	}
	return rep, nil
}

// runImport is the untraced run of import.durable: single-client
// repetitions of the whole import until the window has passed. An op is an
// inserted row (objects + associations); a latency sample is one
// ImportFile call.
func runImport(cfg config) (*result, error) {
	e, setupS, err := timedSetUps(setUpRepeats,
		func() (*importEnv, error) { return setUpImport(cfg) },
		func(e *importEnv) { e.close() })
	if err != nil {
		return nil, err
	}
	defer e.close()
	fmt.Printf("# universe: %s in %d files, fsync=group, repetitions until %gs have passed\n",
		e.stats, len(e.files), cfg.seconds)
	res := newResult()
	res.set("setup_s", setupS, "s")
	res.set("heap_live_mb", heapLiveMB(), "MB")
	e.ref = nil // only its Stats are needed from here on

	var rates, recoveries []float64
	perFile := make([][]float64, len(e.files)) // per source file, one latency per repetition
	for begin := time.Now(); len(rates) == 0 || time.Since(begin) < window(cfg); {
		rep, err := e.durableImport(wal.SyncGroup, res, nil)
		if err != nil {
			return nil, err
		}
		rates = append(rates, float64(rep.rows)/rep.importS)
		recoveries = append(recoveries, rep.recoveryS)
		for i, d := range rep.fileMS {
			perFile[i] = append(perFile[i], d)
		}
	}
	// Medians over the repetitions first, as the request workloads take
	// medians over window slices: throughput per repetition, and each
	// file's latency across repetitions before the percentiles over files.
	fileMS := make([]float64, len(perFile))
	for i, v := range perFile {
		fileMS[i] = median(v)
	}
	res.set("throughput_ops_s", median(rates), "1/s")
	res.set("latency_p50_ms", percentile(fileMS, 50), "ms")
	res.set("latency_p95_ms", percentile(fileMS, 95), "ms")
	res.note("latency_p99_ms", percentile(fileMS, 99), "ms")
	res.note("recovery_s", median(recoveries), "s")
	res.note("repetitions", float64(len(rates)), "count")
	res.note("samples", float64(len(rates)*len(e.files)), "count")
	return res, nil
}
