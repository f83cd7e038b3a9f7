package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"genmapper"
	"genmapper/internal/baseline/srs"
	"genmapper/internal/baseline/star"
	"genmapper/internal/eav"
	"genmapper/internal/gam"
	"genmapper/internal/gen"
	"genmapper/internal/ops"
	"genmapper/internal/parser"
	"genmapper/internal/profile"
	"genmapper/internal/sqldb"
	"genmapper/internal/wal"
)

// harness holds lazily-built shared fixtures so that one gmbench run
// imports the universe at most once.
type harness struct {
	seed    int64
	scale   float64
	uni     *gen.Universe
	sys     *genmapper.System
	elapsed time.Duration // universe import time, reported by expScale
}

func newHarness(seed int64, scale float64) *harness {
	return &harness{seed: seed, scale: scale, uni: gen.NewUniverse(gen.Config{Seed: seed, Scale: scale})}
}

// system imports the synthetic universe once and caches the result.
func (h *harness) system() (*genmapper.System, error) {
	if h.sys != nil {
		return h.sys, nil
	}
	sys, err := genmapper.New()
	if err != nil {
		return nil, err
	}
	fmt.Printf("(importing universe seed=%d scale=%g ...)\n", h.seed, h.scale)
	start := time.Now()
	if _, err := sys.ImportUniverse(h.uni, genmapper.ImportOptions{DeriveSubsumed: true}, nil); err != nil {
		return nil, err
	}
	h.elapsed = time.Since(start)
	st, _ := sys.Stats()
	fmt.Printf("(imported in %v: %s)\n\n", h.elapsed.Round(time.Millisecond), st)
	h.sys = sys
	return sys, nil
}

// ---------------------------------------------------------------------------
// E1 — Table 1

// table1Record is the locus of the paper's Figure 1 in LocusLink format.
const table1Record = `>>353
NAME: adenine phosphoribosyltransferase
HUGO: APRT | adenine phosphoribosyltransferase
LOCATION: 16q24
ENZYME: 2.4.2.7
GO: GO:0009116 | nucleoside metabolism
OMIM: 102600
UNIGENE: Hs.28914
`

func expTable1(h *harness) error {
	d, err := parser.Parse("locuslink", strings.NewReader(table1Record),
		eav.SourceInfo{Name: "LocusLink", Content: "gene"})
	if err != nil {
		return err
	}
	fmt.Printf("%-8s %-10s %-12s %s\n", "Locus", "Target", "Accession", "Text")
	for _, r := range d.Records {
		if r.Target == eav.TargetName {
			continue // Table 1 lists cross-references
		}
		fmt.Printf("%-8s %-10s %-12s %s\n", r.Accession, r.Target, r.TargetAccession, r.Text)
	}
	return nil
}

// ---------------------------------------------------------------------------
// E2 — Table 2

// buildPairMapping creates an isolated repo with one mapping of n
// associations for operator micro-measurements.
func buildPairMapping(n int) (*gam.Repo, *ops.Mapping, error) {
	repo, err := gam.Open(sqldb.NewDB())
	if err != nil {
		return nil, nil, err
	}
	s, _, _ := repo.EnsureSource(gam.Source{Name: "S"})
	t, _, _ := repo.EnsureSource(gam.Source{Name: "T"})
	sSpecs := make([]gam.ObjectSpec, n)
	tSpecs := make([]gam.ObjectSpec, n)
	for i := 0; i < n; i++ {
		sSpecs[i] = gam.ObjectSpec{Accession: fmt.Sprintf("s%d", i)}
		tSpecs[i] = gam.ObjectSpec{Accession: fmt.Sprintf("t%d", i)}
	}
	sIDs, _, err := repo.EnsureObjects(s.ID, sSpecs)
	if err != nil {
		return nil, nil, err
	}
	tIDs, _, err := repo.EnsureObjects(t.ID, tSpecs)
	if err != nil {
		return nil, nil, err
	}
	rel, _, _ := repo.EnsureSourceRel(s.ID, t.ID, gam.RelFact)
	assocs := make([]gam.Assoc, n)
	for i := 0; i < n; i++ {
		assocs[i] = gam.Assoc{Object1: sIDs[i], Object2: tIDs[(i*7)%n]}
	}
	if _, err := repo.AddAssociations(rel, assocs, false); err != nil {
		return nil, nil, err
	}
	m, err := ops.Map(repo, s.ID, t.ID)
	return repo, m, err
}

func expTable2(h *harness) error {
	fmt.Printf("%-18s %10s %12s %12s\n", "operation", "assocs", "result", "latency")
	for _, n := range []int{1000, 10000, 100000} {
		repo, m, err := buildPairMapping(n)
		if err != nil {
			return err
		}
		s := repo.SourceByName("S")
		t := repo.SourceByName("T")

		start := time.Now()
		mm, err := ops.Map(repo, s.ID, t.ID)
		if err != nil {
			return err
		}
		fmt.Printf("%-18s %10d %12d %12v\n", "Map(S,T)", n, mm.Len(), time.Since(start).Round(time.Microsecond))

		start = time.Now()
		dom := ops.Domain(m)
		fmt.Printf("%-18s %10d %12d %12v\n", "Domain", n, len(dom), time.Since(start).Round(time.Microsecond))

		start = time.Now()
		rng := ops.Range(m)
		fmt.Printf("%-18s %10d %12d %12v\n", "Range", n, len(rng), time.Since(start).Round(time.Microsecond))

		sub := ops.NewObjectSet(dom[:len(dom)/2]...)
		start = time.Now()
		rd := ops.RestrictDomain(m, sub)
		fmt.Printf("%-18s %10d %12d %12v\n", "RestrictDomain", n, rd.Len(), time.Since(start).Round(time.Microsecond))

		rsub := ops.NewObjectSet(rng[:len(rng)/2]...)
		start = time.Now()
		rr := ops.RestrictRange(m, rsub)
		fmt.Printf("%-18s %10d %12d %12v\n", "RestrictRange", n, rr.Len(), time.Since(start).Round(time.Microsecond))
	}
	return nil
}

// ---------------------------------------------------------------------------
// E3 — Figure 3

func expFigure3(h *harness) error {
	sys, err := h.system()
	if err != nil {
		return err
	}
	// A handful of loci, annotated by the same targets the figure shows.
	var accs []string
	for i := 1; i <= 8; i++ {
		accs = append(accs, h.uni.Accession("LocusLink", i*3))
	}
	table, err := sys.AnnotationView(genmapper.Query{
		Source:     "LocusLink",
		Accessions: accs,
		Targets: []genmapper.Target{
			{Source: "Hugo"}, {Source: "GO"}, {Source: "Location"}, {Source: "OMIM"},
		},
		Mode: "OR",
	})
	if err != nil {
		return err
	}
	return table.WriteText(fmtWriter{})
}

// fmtWriter adapts fmt printing to io.Writer for table output.
type fmtWriter struct{}

func (fmtWriter) Write(p []byte) (int, error) {
	fmt.Print(string(p))
	return len(p), nil
}

// ---------------------------------------------------------------------------
// E4 — Figure 5

func expFigure5(h *harness) error {
	sys, err := h.system()
	if err != nil {
		return err
	}
	targets := []string{"Hugo", "GO", "Location", "OMIM", "Unigene", "RefSeq", "Ensembl", "dbSNP"}
	fmt.Printf("%-3s %-5s %-8s %10s %12s\n", "m", "mode", "negated", "rows", "latency")
	for m := 1; m <= len(targets); m++ {
		for _, mode := range []string{"OR", "AND"} {
			for _, negate := range []bool{false, true} {
				specs := make([]genmapper.Target, m)
				for i := 0; i < m; i++ {
					specs[i] = genmapper.Target{Source: targets[i]}
				}
				if negate {
					specs[m-1].Negate = true
				}
				start := time.Now()
				table, err := sys.AnnotationView(genmapper.Query{
					Source: "LocusLink", Targets: specs, Mode: mode,
				})
				if err != nil {
					return err
				}
				lat := time.Since(start)
				neg := "-"
				if negate {
					neg = "last"
				}
				fmt.Printf("%-3d %-5s %-8s %10d %12v\n", m, mode, neg, table.RowCount(), lat.Round(time.Millisecond))
			}
		}
	}
	fmt.Println("\nexpected shape: AND prunes rows (and often time) vs OR; negation inverts selectivity")
	return nil
}

// ---------------------------------------------------------------------------
// E5 — import pipeline

func expImport(h *harness) error {
	// Fresh system so duplicate-elimination numbers are clean.
	sys, err := genmapper.New()
	if err != nil {
		return err
	}
	u := h.uni
	goData, err := u.Dataset("GO")
	if err != nil {
		return err
	}
	llData, err := u.Dataset("LocusLink")
	if err != nil {
		return err
	}

	report := func(label string, st *genmapper.ImportStats, d time.Duration) {
		fmt.Printf("%-28s objects(new=%d dup=%d) assocs(new=%d dup=%d) targets=%d in %v\n",
			label, st.ObjectsNew, st.ObjectsDup, st.AssocsNew, st.AssocsDup, st.TargetObjects,
			d.Round(time.Millisecond))
	}

	start := time.Now()
	st, err := sys.ImportDataset(goData, genmapper.ImportOptions{DeriveSubsumed: true})
	if err != nil {
		return err
	}
	report("import GO (first)", st, time.Since(start))

	start = time.Now()
	st, err = sys.ImportDataset(llData, genmapper.ImportOptions{})
	if err != nil {
		return err
	}
	report("import LocusLink (first)", st, time.Since(start))

	start = time.Now()
	st, err = sys.ImportDataset(llData, genmapper.ImportOptions{})
	if err != nil {
		return err
	}
	report("re-import LocusLink", st, time.Since(start))
	if st.ObjectsNew != 0 || st.AssocsNew != 0 {
		return fmt.Errorf("duplicate elimination failed: %d new objects, %d new assocs", st.ObjectsNew, st.AssocsNew)
	}
	fmt.Println("\nexpected shape: re-import creates 0 objects/assocs (duplicate elimination, §4.1)")
	return nil
}

// ---------------------------------------------------------------------------
// E6 — derived relationships

func expDerived(h *harness) error {
	sys, err := h.system()
	if err != nil {
		return err
	}
	paths := [][]string{
		{"NetAffx-HG-U133A", "Unigene"},
		{"NetAffx-HG-U133A", "Unigene", "LocusLink"},
		{"NetAffx-HG-U133A", "Unigene", "LocusLink", "GO"},
		{"Hugo", "LocusLink", "Unigene", "GenBank"},
		{"Hugo", "LocusLink", "Unigene", "dbEST"},
	}
	fmt.Printf("%-50s %8s %12s\n", "compose path", "assocs", "latency")
	for _, p := range paths {
		start := time.Now()
		m, err := sys.ComposePath(p)
		if err != nil {
			return err
		}
		fmt.Printf("%-50s %8d %12v\n", strings.Join(p, "->"), m.Len(), time.Since(start).Round(time.Millisecond))
	}

	start := time.Now()
	n, err := sys.DeriveSubsumed("GO")
	if err != nil {
		return err
	}
	fmt.Printf("\nSubsumed(GO): %d terms -> %d subsumed associations in %v\n",
		h.uni.Count("GO"), n, time.Since(start).Round(time.Millisecond))
	fmt.Println("\nexpected shape: composed size shrinks down long paths (fan-out x coverage); subsumption is superlinear in depth")
	return nil
}

// ---------------------------------------------------------------------------
// E7 — deployment scale

func expScale(h *harness) error {
	sys, err := h.system()
	if err != nil {
		return err
	}
	st, err := sys.Stats()
	if err != nil {
		return err
	}
	fmt.Printf("%-22s %12s %14s\n", "counter", "paper (§5)", "this run")
	paperObjects := 2_000_000.0
	paperAssocs := 5_000_000.0
	fmt.Printf("%-22s %12s %14d  (target ~%.0f at scale %g)\n", "objects", "~2,000,000", st.Objects, paperObjects*h.scale, h.scale)
	fmt.Printf("%-22s %12s %14d\n", "sources", ">60", st.Sources)
	fmt.Printf("%-22s %12s %14d  (target ~%.0f at scale %g)\n", "associations", "~5,000,000", st.Associations, paperAssocs*h.scale, h.scale)
	fmt.Printf("%-22s %12s %14d\n", "mappings", ">500", st.Mappings)
	fmt.Printf("\nassociations by type: ")
	for _, typ := range []gam.RelType{gam.RelFact, gam.RelSimilarity, gam.RelIsA, gam.RelContains, gam.RelSubsumed, gam.RelComposed} {
		fmt.Printf("%s=%d ", typ, st.ByType[typ])
	}
	fmt.Printf("\nimport wall-clock: %v\n", h.elapsed.Round(time.Millisecond))
	return nil
}

// ---------------------------------------------------------------------------
// E8 — path discovery

func expPaths(h *harness) error {
	sys, err := h.system()
	if err != nil {
		return err
	}
	pairs := [][2]string{
		{"NetAffx-HG-U133A", "GO"},
		{"NetAffx-HG-U95A", "OMIM"},
		{"Hugo", "SwissProt"},
		{"dbSNP", "GO"},
		{"PDB", "LocusLink"},
	}
	fmt.Printf("%-24s %-12s %12s  %s\n", "from", "to", "latency", "shortest path")
	for _, p := range pairs {
		start := time.Now()
		path, err := sys.FindPath(p[0], p[1])
		lat := time.Since(start)
		if err != nil {
			fmt.Printf("%-24s %-12s %12v  (no path: %v)\n", p[0], p[1], lat.Round(time.Microsecond), err)
			continue
		}
		fmt.Printf("%-24s %-12s %12v  %s\n", p[0], p[1], lat.Round(time.Microsecond), strings.Join(path, " -> "))
	}
	// Constrained path with an intermediate.
	path, err := sys.FindPathVia("NetAffx-HG-U133A", "LocusLink", "GO")
	if err != nil {
		return err
	}
	fmt.Printf("\nvia LocusLink: %s\n", strings.Join(path, " -> "))
	g := sys.Graph()
	fmt.Printf("graph: %d sources, %d traversable mappings\n", len(g.Sources()), g.EdgeCount())
	return nil
}

// ---------------------------------------------------------------------------
// E9 — functional profiling

func expProfile(h *harness) error {
	sys, err := h.system()
	if err != nil {
		return err
	}
	p, err := profile.NewPipeline(sys.Repo(), "NetAffx-HG-U133A", "Unigene", "LocusLink", "GO")
	if err != nil {
		return err
	}
	probes, err := p.ProbeAccessions()
	if err != nil {
		return err
	}
	annotations, err := p.ProbeAnnotations()
	if err != nil {
		return err
	}
	terms, err := p.TermAccessions()
	if err != nil {
		return err
	}
	cfg := profile.DefaultStudyConfig()
	cfg.Seed = h.seed
	study := profile.NewStudy(cfg, probes, annotations, terms)
	total, detected, differential := study.Counts()
	fmt.Printf("study: %d probes, %d detected, %d differential (paper: 40k/20k/2.5k shape)\n",
		total, detected, differential)

	start := time.Now()
	e, err := p.Run(study)
	if err != nil {
		return err
	}
	fmt.Printf("enrichment over %d terms in %v\n\n", len(e.Results), time.Since(start).Round(time.Millisecond))
	fmt.Print(e.FormatTable(10))

	// Recovery check: injected bias terms (or their ancestors) should rank
	// near the top.
	biased := make(map[string]bool)
	for _, t := range study.BiasedTerms {
		biased[t] = true
	}
	hits := 0
	for _, r := range e.TopK(25) {
		if biased[r.Term] {
			hits++
		}
	}
	fmt.Printf("\ninjected bias terms recovered in top 25: %d of %d\n", hits, len(study.BiasedTerms))
	return nil
}

// ---------------------------------------------------------------------------
// E10 — ablation: GAM vs star schema

func expAblationSchema(h *harness) error {
	u := h.uni
	llData, err := u.Dataset("LocusLink")
	if err != nil {
		return err
	}

	// Star warehouse path.
	w, err := star.Build(sqldb.NewDB())
	if err != nil {
		return err
	}
	ddlBefore := w.DDLCount()
	start := time.Now()
	loaded, dropped, err := w.LoadDataset(llData)
	if err != nil {
		return err
	}
	starLoad := time.Since(start)

	// GAM path.
	sys, err := genmapper.New()
	if err != nil {
		return err
	}
	start = time.Now()
	st, err := sys.ImportDataset(llData, genmapper.ImportOptions{})
	if err != nil {
		return err
	}
	gamLoad := time.Since(start)

	fmt.Printf("%-34s %14s %14s\n", "", "star schema", "generic GAM")
	fmt.Printf("%-34s %14d %14d\n", "DDL to create schema (one-time)", ddlBefore, gam.SchemaStatementCount())
	fmt.Printf("%-34s %14d %14d\n", "annotations stored", loaded, st.AssocsNew)
	fmt.Printf("%-34s %14d %14d\n", "annotations silently dropped", dropped, 0)
	fmt.Printf("%-34s %14v %14v\n", "load time", starLoad.Round(time.Millisecond), gamLoad.Round(time.Millisecond))

	// Schema churn: a new, unanticipated target source arrives.
	newTarget := eav.NewDataset(eav.SourceInfo{Name: "LocusLink"})
	newTarget.Add(u.Accession("LocusLink", 1), "InterPro", "IPR000001", "")
	before := w.DDLCount()
	if err := w.AddTarget("InterPro"); err != nil {
		return err
	}
	starDDL := w.DDLCount() - before
	if _, _, err := w.LoadDataset(newTarget); err != nil {
		return err
	}
	if _, err := sys.ImportDataset(newTarget, genmapper.ImportOptions{}); err != nil {
		return err
	}
	fmt.Printf("%-34s %14d %14d\n", "DDL to absorb new source", starDDL, 0)

	// Figure-3 query on both.
	accs := []string{u.Accession("LocusLink", 3), u.Accession("LocusLink", 6), u.Accession("LocusLink", 9)}
	start = time.Now()
	rs, err := w.AnnotationView(accs, []string{"Hugo", "GO"})
	if err != nil {
		return err
	}
	starQuery := time.Since(start)
	start = time.Now()
	table, err := sys.AnnotationView(genmapper.Query{
		Source: "LocusLink", Accessions: accs,
		Targets: []genmapper.Target{{Source: "Hugo"}, {Source: "GO"}},
	})
	if err != nil {
		return err
	}
	gamQuery := time.Since(start)
	fmt.Printf("%-34s %14d %14d\n", "Figure-3 view rows", len(rs.Rows), table.RowCount())
	fmt.Printf("%-34s %14v %14v\n", "Figure-3 view latency", starQuery.Round(time.Microsecond), gamQuery.Round(time.Microsecond))
	fmt.Println("\nexpected shape: star drops unanticipated data and needs DDL per new source; GAM needs none")
	return nil
}

// ---------------------------------------------------------------------------
// E11 — ablation: materialization

func expAblationMaterialize(h *harness) error {
	sys, err := h.system()
	if err != nil {
		return err
	}
	path := []string{"NetAffx-HG-U133A", "Unigene", "LocusLink", "GO"}
	const repeats = 10

	start := time.Now()
	var m *genmapper.Mapping
	for i := 0; i < repeats; i++ {
		m, err = sys.ComposePath(path)
		if err != nil {
			return err
		}
	}
	onTheFly := time.Since(start) / repeats

	start = time.Now()
	if err := sys.Materialize(m); err != nil {
		return err
	}
	matCost := time.Since(start)

	chip := sys.Repo().SourceByName(path[0])
	goSrc := sys.Repo().SourceByName("GO")
	start = time.Now()
	for i := 0; i < repeats; i++ {
		if _, err := ops.Map(sys.Repo(), chip.ID, goSrc.ID); err != nil {
			return err
		}
	}
	lookup := time.Since(start) / repeats

	fmt.Printf("composed mapping size: %d associations\n", m.Len())
	fmt.Printf("%-38s %12v\n", "on-the-fly Compose (per query)", onTheFly.Round(time.Microsecond))
	fmt.Printf("%-38s %12v\n", "one-time materialization cost", matCost.Round(time.Microsecond))
	fmt.Printf("%-38s %12v\n", "materialized Map lookup (per query)", lookup.Round(time.Microsecond))
	if lookup > 0 {
		breakeven := float64(matCost) / float64(onTheFly-lookup)
		if onTheFly > lookup {
			fmt.Printf("break-even after ~%.1f reuses\n", breakeven)
		}
	}
	fmt.Println("\nexpected shape: materialization pays off after a handful of reuses")
	return nil
}

// ---------------------------------------------------------------------------
// E12 — ablation: SRS navigation vs GenerateView

func expAblationSRS(h *harness) error {
	sys, err := h.system()
	if err != nil {
		return err
	}
	u := h.uni

	// Index the sources an SRS deployment would replicate.
	idx := srs.NewIndex()
	for _, name := range []string{"LocusLink", "Hugo", "GO", "OMIM"} {
		d, err := u.Dataset(name)
		if err != nil {
			return err
		}
		if err := idx.AddDataset(d); err != nil {
			return err
		}
	}
	targets := []string{"Hugo", "GO", "OMIM"}
	fmt.Printf("%-8s %16s %16s %16s %16s\n", "objects", "srs lookups", "srs latency", "gam latency", "gam rows")
	for _, k := range []int{10, 100, 1000} {
		if k > u.Count("LocusLink") {
			break
		}
		accs := make([]string, k)
		for i := 0; i < k; i++ {
			accs[i] = u.Accession("LocusLink", i)
		}
		idx.ResetLookups()
		start := time.Now()
		idx.AnnotateSet("LocusLink", accs, targets)
		srsLat := time.Since(start)
		lookups := idx.Lookups()

		start = time.Now()
		table, err := sys.AnnotationView(genmapper.Query{
			Source: "LocusLink", Accessions: accs,
			Targets: []genmapper.Target{{Source: "Hugo"}, {Source: "GO"}, {Source: "OMIM"}},
		})
		if err != nil {
			return err
		}
		gamLat := time.Since(start)
		fmt.Printf("%-8d %16d %16v %16v %16d\n", k, lookups, srsLat.Round(time.Microsecond), gamLat.Round(time.Microsecond), table.RowCount())
	}
	// The qualitative gap: SRS cannot reach indirect targets at all.
	probe := u.Accession("Unigene", 0)
	d, err := u.Dataset("Unigene")
	if err != nil {
		return err
	}
	if err := idx.AddDataset(d); err != nil {
		return err
	}
	direct := idx.Navigate("Unigene", probe, "GO")
	table, err := sys.AnnotationView(genmapper.Query{
		Source: "Unigene", Accessions: []string{probe},
		Targets: []genmapper.Target{{Source: "GO"}},
	})
	if err != nil {
		return err
	}
	viaCompose := 0
	for _, row := range table.Rows {
		if row[1] != "" {
			viaCompose++
		}
	}
	fmt.Printf("\nindirect target (Unigene -> GO): srs direct links=%d, gam composed annotations=%d\n",
		len(direct), viaCompose)
	fmt.Println("\nexpected shape: srs lookups grow as objects x targets and indirect targets stay unreachable")
	return nil
}

// ---------------------------------------------------------------------------
// E13 — durability: WAL write path under each fsync policy + group commit

// expWALDurability imports a small universe into a durable system under
// every fsync policy and measures the write-path cost against the
// in-memory baseline, then demonstrates group commit folding concurrent
// committers into fewer fsyncs.
func expWALDurability(h *harness) error {
	u := gen.NewUniverse(gen.Config{Seed: h.seed, Scale: min(h.scale, 0.005)})

	importInto := func(sys *genmapper.System) (time.Duration, error) {
		start := time.Now()
		_, err := sys.ImportUniverse(u, genmapper.ImportOptions{DeriveSubsumed: true}, nil)
		return time.Since(start), err
	}

	fmt.Printf("%-12s %12s %12s %12s %14s\n", "mode", "import", "appends", "fsyncs", "log bytes")
	memSys, err := genmapper.New()
	if err != nil {
		return err
	}
	memT, err := importInto(memSys)
	if err != nil {
		return err
	}
	fmt.Printf("%-12s %12v %12s %12s %14s\n", "memory", memT.Round(time.Millisecond), "-", "-", "-")

	for _, policy := range []wal.SyncPolicy{wal.SyncOff, wal.SyncGroup, wal.SyncAlways} {
		dir, err := os.MkdirTemp("", "gmbench-wal-")
		if err != nil {
			return err
		}
		sys, err := genmapper.OpenDurable(dir, genmapper.DurableOptions{Sync: policy})
		if err != nil {
			return err
		}
		t, err := importInto(sys)
		if err != nil {
			return err
		}
		ws := sys.SQLWALStats()
		fmt.Printf("wal-%-8s %12v %12d %12d %14d\n", policy, t.Round(time.Millisecond), ws.Appends, ws.Fsyncs, ws.SizeBytes)
		if err := sys.Close(); err != nil {
			return err
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}

	// Group commit: concurrent committers vs. fsync count.
	dir, err := os.MkdirTemp("", "gmbench-walgc-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	sys, err := genmapper.OpenDurable(dir, genmapper.DurableOptions{Sync: wal.SyncGroup})
	if err != nil {
		return err
	}
	defer sys.Close()
	db := sys.DB()
	if _, err := db.Exec("CREATE TABLE bench_gc (g INTEGER, i INTEGER)"); err != nil {
		return err
	}
	base := sys.SQLWALStats()
	const goroutines, perG = 8, 100
	start := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if _, err := db.Exec("INSERT INTO bench_gc (g, i) VALUES (?, ?)", g, i); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return err
	}
	elapsed := time.Since(start)
	ws := sys.SQLWALStats()
	commits := ws.Appends - base.Appends
	fsyncs := ws.Fsyncs - base.Fsyncs
	fmt.Printf("\ngroup commit: %d concurrent committers, %d commits in %v -> %d fsyncs (%.1f commits/fsync, max group %d)\n",
		goroutines, commits, elapsed.Round(time.Millisecond), fsyncs,
		float64(commits)/float64(max(fsyncs, 1)), ws.MaxGroupSize)
	fmt.Println("\nexpected shape: off ~ memory, group ~ always when single-writer, and commits/fsync > 1 under concurrency")
	return nil
}

// ---------------------------------------------------------------------------
// E16 — snapshot isolation under mixed read/write load

// expConcurrency measures snapshot readers beside writers: at 1/2/4/8
// reader clients plus one writer, each cell runs the same
// point-read/short-range mix for a fixed interval and reports reader and
// writer throughput. The second table is the stall probe: a bulk UPDATE
// holds the write path while one reader issues point reads, and the worst
// read latency is recorded — the reader keeps answering from its
// snapshot.
func expConcurrency(h *harness) error {
	const rows = 100000
	const interval = 250 * time.Millisecond
	db := sqldb.NewDB()
	if _, err := db.Exec("CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER, v TEXT)"); err != nil {
		return err
	}
	if _, err := db.Exec("CREATE INDEX idx_k ON t (k)"); err != nil {
		return err
	}
	fmt.Printf("(building %d-row table, GOMAXPROCS=%d ...)\n\n", rows, runtime.GOMAXPROCS(0))
	const chunk = 200
	for start := 0; start < rows; start += chunk {
		sql := "INSERT INTO t VALUES "
		args := make([]any, 0, chunk*3)
		for i := start; i < start+chunk; i++ {
			if i > start {
				sql += ", "
			}
			sql += "(?, ?, ?)"
			args = append(args, i, i%97, fmt.Sprintf("val%d", i))
		}
		if _, err := db.Exec(sql, args...); err != nil {
			return err
		}
	}

	// One mixed-cell run: readers hammer point and short-range reads while
	// one writer updates single rows; returns reads/sec and writes/sec.
	cell := func(readers int) (readsPerSec, writesPerSec float64, err error) {
		var stop atomic.Bool
		var reads, writes atomic.Int64
		var firstErr error
		var mu sync.Mutex
		fail := func(e error) {
			mu.Lock()
			if firstErr == nil {
				firstErr = e
			}
			mu.Unlock()
		}
		var wg sync.WaitGroup
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				n := int64(0)
				for i := r; !stop.Load(); i++ {
					var qerr error
					if i%4 == 3 {
						_, qerr = db.Query("SELECT COUNT(*) FROM t WHERE k = ?", i%97)
					} else {
						_, qerr = db.Query("SELECT v FROM t WHERE id = ?", (i*2654435761)%rows)
					}
					if qerr != nil {
						fail(qerr)
						return
					}
					n++
				}
				reads.Add(n)
			}(r)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The writer is paced (2k updates/s target, caught up in bursts
			// because sleep granularity is coarse) so every cell faces the
			// same write pressure and reads/s compares like for like across
			// reader counts; unpaced, the comparison degenerates into CPU
			// arbitration.
			const writeRate = 2000.0
			start := time.Now()
			n := int64(0)
			for !stop.Load() {
				if n >= int64(time.Since(start).Seconds()*writeRate) {
					time.Sleep(200 * time.Microsecond)
					continue
				}
				if _, werr := db.Exec("UPDATE t SET v = ? WHERE id = ?", "w", int(n)%rows); werr != nil {
					fail(werr)
					return
				}
				n++
			}
			writes.Add(n)
		}()
		time.Sleep(interval)
		stop.Store(true)
		wg.Wait()
		if firstErr != nil {
			return 0, 0, firstErr
		}
		secs := interval.Seconds()
		return float64(reads.Load()) / secs, float64(writes.Load()) / secs, nil
	}

	fmt.Printf("%-8s %14s %14s %14s\n", "readers", "reads/s", "writes/s", "read scaling")
	var oneReader float64
	for _, readers := range []int{1, 2, 4, 8} {
		r, w, err := cell(readers)
		if err != nil {
			return err
		}
		if readers == 1 {
			oneReader = r
		}
		fmt.Printf("%-8d %14.0f %14.0f %13.2fx\n", readers, r, w, r/oneReader)
	}

	// Stall probe: while a bulk UPDATE runs, measure the worst latency of
	// a point read issued every millisecond.
	fmt.Println("\nreader latency while a bulk UPDATE holds the write path:")
	probe := func() (worst time.Duration, updateTook time.Duration, err error) {
		done := make(chan error, 1)
		started := make(chan struct{})
		go func() {
			close(started)
			t0 := time.Now()
			_, uerr := db.Exec("UPDATE t SET v = ? WHERE k < 97", "bulk")
			updateTook = time.Since(t0)
			done <- uerr
		}()
		<-started
		for {
			select {
			case uerr := <-done:
				return worst, updateTook, uerr
			default:
			}
			t0 := time.Now()
			if _, rerr := db.Query("SELECT v FROM t WHERE id = 1"); rerr != nil {
				return 0, 0, rerr
			}
			if d := time.Since(t0); d > worst {
				worst = d
			}
			time.Sleep(time.Millisecond)
		}
	}
	worst, took, err := probe()
	if err != nil {
		return err
	}
	fmt.Printf("  worst read latency %12v   (bulk UPDATE took %v)\n", worst.Round(time.Microsecond), took.Round(time.Millisecond))
	st := db.MVCCStats()
	fmt.Printf("\nmvcc: epoch=%d commits=%d background_vacuums=%d vacuum_runs=%d versions_vacuumed=%d\n",
		st.Epoch, st.Commits, st.BackgroundVacuums, st.VacuumRuns, st.VersionsVacuumed)
	fmt.Println("expected shape: read throughput scales with readers on 4+ cores, and the worst")
	fmt.Println("read latency stays orders of magnitude below the bulk UPDATE duration")
	return nil
}
