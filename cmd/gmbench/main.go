// Command gmbench regenerates every table and figure of the paper's
// evaluation, plus the ablation experiments DESIGN.md calls out. Each
// experiment prints the rows/series the paper reports; absolute numbers
// differ from 2004 hardware, but the shape (who wins, by what factor,
// where crossovers fall) is the reproduction target.
//
// Usage:
//
//	gmbench -exp all -scale 0.01
//	gmbench -exp table1
//	gmbench -exp scale -scale 1.0      # full paper-scale universe
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// experiment is one reproducible table/figure.
type experiment struct {
	id   string
	desc string
	run  func(h *harness) error
}

var experiments = []experiment{
	{"table1", "Table 1: parsed EAV output for LocusLink locus 353", expTable1},
	{"table2", "Table 2: simple operations (Map, Domain, Range, Restrict*)", expTable2},
	{"figure3", "Figure 3: annotation view for LocusLink genes", expFigure3},
	{"figure5", "Figure 5: GenerateView sweep (targets x AND/OR x negation)", expFigure5},
	{"import", "Fig. 2/§4.1: two-phase import with duplicate elimination", expImport},
	{"derived", "§3: derived relationships (Compose, Subsumed)", expDerived},
	{"scale", "§5: deployment statistics (objects/sources/associations/mappings)", expScale},
	{"paths", "§5.1: mapping-path discovery in the source graph", expPaths},
	{"profile", "§5.2: large-scale gene functional profiling", expProfile},
	{"ablation-schema", "Ablation E10: generic GAM vs application-specific star schema", expAblationSchema},
	{"ablation-materialize", "Ablation E11: materialized Composed mapping vs on-the-fly Compose", expAblationMaterialize},
	{"ablation-srs", "Ablation E12: SRS-style link navigation vs set-oriented GenerateView", expAblationSRS},
	{"wal", "E13: durable write path — fsync policies and group commit", expWALDurability},
	{"vectorized", "E15: vectorized (columnar batch) vs row execution at 1/2/4/8 partitions", expVectorized},
	{"concurrency", "E16: MVCC vs lock-mode read/write throughput, writer-stall probe, multi-writer latch scaling", expConcurrency},
}

func main() {
	var (
		exp   = flag.String("exp", "all", "experiment id or 'all' (ids: "+idList()+")")
		seed  = flag.Int64("seed", 1, "universe seed")
		scale = flag.Float64("scale", 0.01, "universe scale factor (1.0 = paper scale)")
	)
	flag.Parse()

	h := newHarness(*seed, *scale)
	want := strings.Split(*exp, ",")
	runAll := len(want) == 1 && want[0] == "all"
	selected := make(map[string]bool)
	for _, id := range want {
		selected[strings.TrimSpace(id)] = true
	}

	ran := 0
	for _, e := range experiments {
		if !runAll && !selected[e.id] {
			continue
		}
		fmt.Printf("==[%s]== %s\n\n", e.id, e.desc)
		if err := e.run(h); err != nil {
			fmt.Fprintf(os.Stderr, "gmbench: %s: %v\n", e.id, err)
			os.Exit(1)
		}
		fmt.Println()
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "gmbench: no experiment matched %q (ids: %s)\n", *exp, idList())
		os.Exit(2)
	}
}

func idList() string {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	sort.Strings(ids)
	return strings.Join(ids, ", ")
}
