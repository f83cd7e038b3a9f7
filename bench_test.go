package genmapper

// One benchmark family per experiment of DESIGN.md §4 (E1–E12). The gmbench
// command prints the paper-style tables; these testing.B benches measure
// the same code paths so `go test -bench=.` regenerates every number.

import (
	"fmt"
	"strings"
	"testing"

	"genmapper/internal/baseline/srs"
	"genmapper/internal/baseline/star"
	"genmapper/internal/eav"
	"genmapper/internal/gam"
	"genmapper/internal/gen"
	"genmapper/internal/importer"
	"genmapper/internal/ops"
	"genmapper/internal/parser"
	"genmapper/internal/profile"
	"genmapper/internal/sqldb"
)

// benchUniverse caches one imported universe across benchmarks (importing
// per-iteration would dominate every measurement).
var benchState struct {
	scale float64
	uni   *gen.Universe
	sys   *System
}

const benchScale = 0.005

func benchSystem(b *testing.B) (*System, *gen.Universe) {
	b.Helper()
	if benchState.sys != nil && benchState.scale == benchScale {
		return benchState.sys, benchState.uni
	}
	u := gen.NewUniverse(gen.Config{Seed: 1, Scale: benchScale})
	sys, err := New()
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sys.ImportUniverse(u, ImportOptions{DeriveSubsumed: true}, nil); err != nil {
		b.Fatal(err)
	}
	benchState.scale, benchState.uni, benchState.sys = benchScale, u, sys
	return sys, u
}

// ---------------------------------------------------------------------------
// E0 — SQL engine substrate: the repository's hot statements through the
// prepared-statement cache. The parse-per-call baseline is
// internal/sqldb's BenchmarkQueryParsePerCall.

func BenchmarkRepoHotStatementCached(b *testing.B) {
	sys, _ := benchSystem(b)
	repo := sys.Repo()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		obj, err := repo.Object(gam.ObjectID(i%1000 + 1))
		if err != nil {
			b.Fatal(err)
		}
		if obj == nil {
			b.Fatal("missing object")
		}
	}
}

// ---------------------------------------------------------------------------
// E1 — Table 1: Parse step

const table1Record = `>>353
NAME: adenine phosphoribosyltransferase
HUGO: APRT | adenine phosphoribosyltransferase
LOCATION: 16q24
ENZYME: 2.4.2.7
GO: GO:0009116 | nucleoside metabolism
OMIM: 102600
UNIGENE: Hs.28914
`

func BenchmarkTable1Parse(b *testing.B) {
	info := eav.SourceInfo{Name: "LocusLink", Content: "gene"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := parser.Parse("locuslink", strings.NewReader(table1Record), info); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// E2 — Table 2: simple operations at three mapping sizes

func table2Mapping(b *testing.B, n int) (*gam.Repo, *ops.Mapping) {
	b.Helper()
	repo, err := gam.Open(sqldb.NewDB())
	if err != nil {
		b.Fatal(err)
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
		b.Fatal(err)
	}
	tIDs, _, err := repo.EnsureObjects(t.ID, tSpecs)
	if err != nil {
		b.Fatal(err)
	}
	rel, _, _ := repo.EnsureSourceRel(s.ID, t.ID, gam.RelFact)
	assocs := make([]gam.Assoc, n)
	for i := 0; i < n; i++ {
		assocs[i] = gam.Assoc{Object1: sIDs[i], Object2: tIDs[(i*7)%n]}
	}
	if _, err := repo.AddAssociations(rel, assocs, false); err != nil {
		b.Fatal(err)
	}
	m, err := ops.Map(repo, s.ID, t.ID)
	if err != nil {
		b.Fatal(err)
	}
	return repo, m
}

func benchTable2Size(b *testing.B, n int) {
	repo, m := table2Mapping(b, n)
	s := repo.SourceByName("S")
	t := repo.SourceByName("T")
	dom := ops.Domain(m)
	sub := ops.NewObjectSet(dom[:len(dom)/2]...)

	b.Run("Map", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ops.Map(repo, s.ID, t.ID); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Domain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ops.Domain(m)
		}
	})
	b.Run("Range", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ops.Range(m)
		}
	})
	b.Run("RestrictDomain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ops.RestrictDomain(m, sub)
		}
	})
	b.Run("RestrictRange", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ops.RestrictRange(m, sub)
		}
	})
}

func BenchmarkTable2Ops1k(b *testing.B)   { benchTable2Size(b, 1000) }
func BenchmarkTable2Ops10k(b *testing.B)  { benchTable2Size(b, 10000) }
func BenchmarkTable2Ops100k(b *testing.B) { benchTable2Size(b, 100000) }

// ---------------------------------------------------------------------------
// E3 — Figure 3: the canonical annotation view

func BenchmarkFigure3View(b *testing.B) {
	sys, u := benchSystem(b)
	var accs []string
	for i := 1; i <= 8; i++ {
		accs = append(accs, u.Accession("LocusLink", i*3))
	}
	q := Query{
		Source:     "LocusLink",
		Accessions: accs,
		Targets:    []Target{{Source: "Hugo"}, {Source: "GO"}, {Source: "Location"}, {Source: "OMIM"}},
		Mode:       "OR",
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.AnnotationView(q); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// E4 — Figure 5: GenerateView parameter sweep

func benchFigure5(b *testing.B, m int, mode string, negate bool) {
	sys, _ := benchSystem(b)
	targets := []string{"Hugo", "GO", "Location", "OMIM", "Unigene", "RefSeq", "Ensembl", "dbSNP"}
	specs := make([]Target, m)
	for i := 0; i < m; i++ {
		specs[i] = Target{Source: targets[i]}
	}
	if negate {
		specs[m-1].Negate = true
	}
	q := Query{Source: "LocusLink", Targets: specs, Mode: mode}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.AnnotationView(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure5GenerateView1TargetOR(b *testing.B)   { benchFigure5(b, 1, "OR", false) }
func BenchmarkFigure5GenerateView4TargetsOR(b *testing.B)  { benchFigure5(b, 4, "OR", false) }
func BenchmarkFigure5GenerateView8TargetsOR(b *testing.B)  { benchFigure5(b, 8, "OR", false) }
func BenchmarkFigure5GenerateView1TargetAND(b *testing.B)  { benchFigure5(b, 1, "AND", false) }
func BenchmarkFigure5GenerateView4TargetsAND(b *testing.B) { benchFigure5(b, 4, "AND", false) }
func BenchmarkFigure5GenerateView8TargetsAND(b *testing.B) { benchFigure5(b, 8, "AND", false) }
func BenchmarkFigure5GenerateViewNegated(b *testing.B)     { benchFigure5(b, 4, "AND", true) }

// ---------------------------------------------------------------------------
// E5 — import pipeline

func BenchmarkImportParse(b *testing.B) {
	u := gen.NewUniverse(gen.Config{Seed: 1, Scale: benchScale})
	var sb strings.Builder
	if err := u.Render("LocusLink", &sb); err != nil {
		b.Fatal(err)
	}
	text := sb.String()
	info := u.SourceInfo("LocusLink")
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := parser.Parse("locuslink", strings.NewReader(text), info); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkImportFirst(b *testing.B) {
	u := gen.NewUniverse(gen.Config{Seed: 1, Scale: benchScale})
	d, err := u.Dataset("LocusLink")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		repo, err := gam.Open(sqldb.NewDB())
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := importer.Import(repo, d, importer.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkImportDuplicate(b *testing.B) {
	u := gen.NewUniverse(gen.Config{Seed: 1, Scale: benchScale})
	d, err := u.Dataset("LocusLink")
	if err != nil {
		b.Fatal(err)
	}
	repo, err := gam.Open(sqldb.NewDB())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := importer.Import(repo, d, importer.Options{}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := importer.Import(repo, d, importer.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if st.ObjectsNew != 0 || st.AssocsNew != 0 {
			b.Fatalf("duplicate elimination failed: %+v", st)
		}
	}
}

// ---------------------------------------------------------------------------
// E6 — derived relationships
//
// The ComposeChain benchmarks run System.ComposePath against a warm
// executor: after the first iteration each is a path-cache hit plus the
// copy MapPath hands out, not a composition. BenchmarkCompose in
// internal/ops times Compose itself.

func BenchmarkComposeChain2(b *testing.B) {
	benchComposeChain(b, []string{"NetAffx-HG-U133A", "Unigene", "LocusLink"})
}
func BenchmarkComposeChain3(b *testing.B) {
	benchComposeChain(b, []string{"NetAffx-HG-U133A", "Unigene", "LocusLink", "GO"})
}
func BenchmarkComposeChain4(b *testing.B) {
	benchComposeChain(b, []string{"Hugo", "LocusLink", "Unigene", "GenBank"})
}

func benchComposeChain(b *testing.B, path []string) {
	sys, _ := benchSystem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.ComposePath(path); err != nil {
			b.Fatal(err)
		}
	}
}

// E6b — executor: cached, parallel mapping-path execution vs. the cold
// sequential path. The acceptance gate of the executor PR compares
// ExecutorMapPathWarm against ExecutorMapPathCold on the 3-hop chain.

func benchExecutorPath(b *testing.B) (*ops.Executor, []gam.SourceID) {
	b.Helper()
	sys, _ := benchSystem(b)
	names := []string{"NetAffx-HG-U133A", "Unigene", "LocusLink", "GO"}
	path := make([]gam.SourceID, len(names))
	for i, n := range names {
		src := sys.Repo().SourceByName(n)
		if src == nil {
			b.Fatalf("unknown source %s", n)
		}
		path[i] = src.ID
	}
	return sys.Executor(), path
}

func BenchmarkExecutorMapPathCold(b *testing.B) {
	exec, path := benchExecutorPath(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exec.Reset()
		if _, err := exec.MapPath(path); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExecutorMapPathWarm(b *testing.B) {
	exec, path := benchExecutorPath(b)
	exec.Reset()
	if _, err := exec.MapPath(path); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exec.MapPath(path); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecutorMapPathSequential measures the uncached ops.MapPath,
// which loads every edge and composes it as the executor does, for
// reference against the executor's cold batched run.
func BenchmarkExecutorMapPathSequential(b *testing.B) {
	sys, _ := benchSystem(b)
	_, path := benchExecutorPath(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ops.MapPath(sys.Repo(), path); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSubsumedDerivation(b *testing.B) {
	sys, _ := benchSystem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.DeriveSubsumed("GO"); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// E7 — scale: full universe import

func BenchmarkScaleImport(b *testing.B) {
	u := gen.NewUniverse(gen.Config{Seed: 1, Scale: benchScale})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys, err := New()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sys.ImportUniverse(u, ImportOptions{DeriveSubsumed: true}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// E8 — path discovery

func BenchmarkPathFinding(b *testing.B) {
	sys, _ := benchSystem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.FindPath("NetAffx-HG-U95A", "OMIM"); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// E9 — functional profiling

func BenchmarkProfilePipeline(b *testing.B) {
	sys, _ := benchSystem(b)
	p, err := profile.NewPipeline(sys.Repo(), "NetAffx-HG-U133A", "Unigene", "LocusLink", "GO")
	if err != nil {
		b.Fatal(err)
	}
	probes, err := p.ProbeAccessions()
	if err != nil {
		b.Fatal(err)
	}
	annotations, err := p.ProbeAnnotations()
	if err != nil {
		b.Fatal(err)
	}
	terms, err := p.TermAccessions()
	if err != nil {
		b.Fatal(err)
	}
	study := profile.NewStudy(profile.DefaultStudyConfig(), probes, annotations, terms)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Run(study); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// E10 — ablation: star schema vs GAM

func BenchmarkAblationStarSchemaLoad(b *testing.B) {
	u := gen.NewUniverse(gen.Config{Seed: 1, Scale: benchScale})
	d, err := u.Dataset("LocusLink")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		w, err := star.Build(sqldb.NewDB())
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, _, err := w.LoadDataset(d); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationStarSchemaQuery(b *testing.B) {
	u := gen.NewUniverse(gen.Config{Seed: 1, Scale: benchScale})
	d, err := u.Dataset("LocusLink")
	if err != nil {
		b.Fatal(err)
	}
	w, err := star.Build(sqldb.NewDB())
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := w.LoadDataset(d); err != nil {
		b.Fatal(err)
	}
	accs := []string{u.Accession("LocusLink", 3), u.Accession("LocusLink", 6), u.Accession("LocusLink", 9)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.AnnotationView(accs, []string{"Hugo", "GO"}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationGAMQuery(b *testing.B) {
	sys, u := benchSystem(b)
	accs := []string{u.Accession("LocusLink", 3), u.Accession("LocusLink", 6), u.Accession("LocusLink", 9)}
	q := Query{Source: "LocusLink", Accessions: accs, Targets: []Target{{Source: "Hugo"}, {Source: "GO"}}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.AnnotationView(q); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// E11 — ablation: materialization

func BenchmarkAblationComposeOnTheFly(b *testing.B) {
	sys, _ := benchSystem(b)
	path := []string{"NetAffx-HG-U133A", "Unigene", "LocusLink", "GO"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.ComposePath(path); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationMaterializedLookup(b *testing.B) {
	sys, _ := benchSystem(b)
	path := []string{"NetAffx-HG-U133A", "Unigene", "LocusLink", "GO"}
	m, err := sys.ComposePath(path)
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.Materialize(m); err != nil {
		b.Fatal(err)
	}
	chip := sys.Repo().SourceByName(path[0])
	goSrc := sys.Repo().SourceByName("GO")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ops.Map(sys.Repo(), chip.ID, goSrc.ID); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// E12 — ablation: SRS navigation vs GenerateView

func srsIndex(b *testing.B, u *gen.Universe) *srs.Index {
	b.Helper()
	idx := srs.NewIndex()
	for _, name := range []string{"LocusLink", "Hugo", "GO", "OMIM"} {
		d, err := u.Dataset(name)
		if err != nil {
			b.Fatal(err)
		}
		if err := idx.AddDataset(d); err != nil {
			b.Fatal(err)
		}
	}
	return idx
}

func BenchmarkAblationSRSNavigation(b *testing.B) {
	_, u := benchSystem(b)
	idx := srsIndex(b, u)
	accs := make([]string, 100)
	for i := range accs {
		accs[i] = u.Accession("LocusLink", i)
	}
	targets := []string{"Hugo", "GO", "OMIM"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.AnnotateSet("LocusLink", accs, targets)
	}
}

func BenchmarkAblationSRSEquivalentView(b *testing.B) {
	sys, u := benchSystem(b)
	accs := make([]string, 100)
	for i := range accs {
		accs[i] = u.Accession("LocusLink", i)
	}
	q := Query{
		Source: "LocusLink", Accessions: accs,
		Targets: []Target{{Source: "Hugo"}, {Source: "GO"}, {Source: "OMIM"}},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.AnnotationView(q); err != nil {
			b.Fatal(err)
		}
	}
}
