// Command gmimport runs GenMapper's two-phase import (Parse + Import) for
// native source files or a whole generated universe, storing the result in
// a database snapshot.
//
// Usage:
//
//	gmimport -db gam.snap -universe -seed 1 -scale 0.02
//	gmimport -data-dir ./data -universe          # durable: WAL + checkpoints
//	gmimport -db gam.snap -format locuslink -source LocusLink -content gene locuslink.ll
//	gmimport -db gam.snap -stats
package main

import (
	"flag"
	"fmt"
	"os"

	"genmapper"
	"genmapper/internal/wal"
)

func main() {
	var (
		dbPath    = flag.String("db", "gam.snap", "database snapshot file (created when missing; ignored with -data-dir)")
		dataDir   = flag.String("data-dir", "", "durable data directory (WAL + checkpoints) instead of a snapshot file")
		fsync     = flag.String("fsync", "group", "WAL fsync policy with -data-dir: always, group, off (off is fastest for re-runnable bulk loads)")
		universe  = flag.Bool("universe", false, "import the full synthetic universe")
		seed      = flag.Int64("seed", 1, "universe seed")
		scale     = flag.Float64("scale", 0.02, "universe scale factor")
		format    = flag.String("format", "", "parser format for file imports (locuslink, obo, enzyme, tabular)")
		source    = flag.String("source", "", "source name for file imports")
		content   = flag.String("content", "other", "source content class (gene, protein, other)")
		structure = flag.String("structure", "flat", "source structure (flat, network)")
		release   = flag.String("release", "", "source release (audit info)")
		subsumed  = flag.Bool("subsumed", true, "derive Subsumed mappings from IS_A structures")
		stats     = flag.Bool("stats", false, "print database statistics and exit")
		verbose   = flag.Bool("v", false, "print per-source import statistics")
		engine    = flag.Bool("engine-stats", false, "print SQL engine statement-cache and planner counters after the run")
	)
	flag.Parse()

	sys, err := openSystem(*dbPath, *dataDir, *fsync)
	if err != nil {
		fail(err)
	}
	durable := *dataDir != ""
	if durable {
		defer sys.Close()
	}
	opts := genmapper.ImportOptions{DeriveSubsumed: *subsumed}

	switch {
	case *stats:
		st, err := sys.Stats()
		if err != nil {
			fail(err)
		}
		fmt.Println(st)
		return
	case *universe:
		u := genmapper.NewUniverse(genmapper.GenConfig{Seed: *seed, Scale: *scale})
		n := 0
		_, err := sys.ImportUniverse(u, opts, func(st *genmapper.ImportStats) {
			n++
			if *verbose {
				fmt.Println(st)
			} else {
				fmt.Printf("\r[%d/%d] %-24s", n, len(u.Names()), st.Source)
			}
		})
		if !*verbose {
			fmt.Println()
		}
		if err != nil {
			fail(err)
		}
	default:
		if flag.NArg() == 0 || *format == "" || *source == "" {
			fmt.Fprintln(os.Stderr, "gmimport: file import needs -format, -source and at least one file argument")
			flag.Usage()
			os.Exit(2)
		}
		info := genmapper.SourceInfo{
			Name: *source, Content: *content, Structure: *structure, Release: *release,
		}
		for _, path := range flag.Args() {
			st, err := sys.ImportFile(*format, path, info, opts)
			if err != nil {
				fail(err)
			}
			fmt.Println(st)
		}
	}

	st, err := sys.Stats()
	if err != nil {
		fail(err)
	}
	if durable {
		// Everything imported is already in the WAL; a checkpoint folds it
		// into a snapshot so the next open replays nothing.
		if err := sys.Checkpoint(); err != nil {
			fail(err)
		}
		fmt.Printf("checkpointed %s: %s\n", *dataDir, st)
	} else {
		if err := sys.SaveSnapshot(*dbPath); err != nil {
			fail(err)
		}
		fmt.Printf("saved %s: %s\n", *dbPath, st)
	}

	if *engine {
		sc := sys.SQLStmtCacheStats()
		fmt.Printf("stmt cache: %d hits / %d misses (%d/%d entries)\n",
			sc.Hits, sc.Misses, sc.Entries, sc.Capacity)
		ps := sys.SQLPlanStats()
		fmt.Printf("plans: eq=%d in=%d range=%d ordered=%d full=%d | joins idx=%d hash=%d nested=%d\n",
			ps.IndexEqScans, ps.IndexInScans, ps.IndexRangeScans, ps.OrderedScans, ps.FullScans,
			ps.IndexJoins, ps.HashJoins, ps.NestedJoins)
		if ws := sys.SQLWALStats(); ws.Enabled {
			fmt.Printf("wal: %d appends, %d fsyncs, %d group commits (max group %d), %d segments (%d bytes), %d replayed at open\n",
				ws.Appends, ws.Fsyncs, ws.GroupCommits, ws.MaxGroupSize, ws.Segments, ws.SizeBytes, ws.RecoveredRecords)
		}
	}
}

func openSystem(path, dataDir, fsync string) (*genmapper.System, error) {
	if dataDir != "" {
		policy, err := wal.ParseSyncPolicy(fsync)
		if err != nil {
			return nil, err
		}
		return genmapper.OpenDurable(dataDir, genmapper.DurableOptions{Sync: policy})
	}
	if _, err := os.Stat(path); err == nil {
		return genmapper.LoadSnapshot(path)
	}
	return genmapper.New()
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "gmimport:", err)
	os.Exit(1)
}
