package genmapper

// End-to-end integration tests: generate native source files, run the full
// Parse+Import pipeline from disk, query through every access path
// (operators, views, HTTP-level rendering, exports), persist and reload.

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"genmapper/internal/gam"
	"genmapper/internal/gen"
	"genmapper/internal/profile"
)

// osWriteFile is aliased for test readability.
var osWriteFile = os.WriteFile

func TestEndToEndFromFiles(t *testing.T) {
	// 1. Generate native files for a small universe.
	u := gen.NewUniverse(gen.Config{Seed: 9, Scale: 0.001})
	dir := t.TempDir()
	paths, err := u.WriteFiles(dir)
	if err != nil {
		t.Fatal(err)
	}

	// 2. Import a meaningful subset from disk, GO before its referrers so
	// incremental linking is exercised both ways.
	sys, err := New()
	if err != nil {
		t.Fatal(err)
	}
	order := []struct {
		name   string
		format string
	}{
		{"GO", "obo"},
		{"LocusLink", "locuslink"},
		{"Enzyme", "enzyme"},
		{"Hugo", "tabular"},
		{"Unigene", "tabular"},
		{"OMIM", "tabular"},
		{"NetAffx-HG-U133A", "tabular"},
	}
	for _, src := range order {
		st, err := sys.ImportFile(src.format, paths[src.name], u.SourceInfo(src.name),
			ImportOptions{DeriveSubsumed: true})
		if err != nil {
			t.Fatalf("import %s: %v", src.name, err)
		}
		// Earlier imports may have created this source's objects as bare
		// cross-reference targets; either way the import must have seen
		// every object.
		if st.ObjectsNew+st.ObjectsDup == 0 {
			t.Fatalf("import %s processed no objects", src.name)
		}
	}

	// 3. Sanity: counts match the generator's accounting.
	stats, err := sys.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Sources < int64(len(order)) {
		t.Fatalf("sources = %d", stats.Sources)
	}
	repo := sys.Repo()
	goSrc := repo.SourceByName("GO")
	n, _ := repo.ObjectCount(goSrc.ID)
	if n < int64(u.Count("GO")) {
		t.Fatalf("GO objects = %d, want >= %d", n, u.Count("GO"))
	}

	// 4. Query: direct, transitive, negated.
	accs := []string{u.Accession("LocusLink", 0), u.Accession("LocusLink", 1), u.Accession("LocusLink", 2)}
	table, err := sys.AnnotationView(Query{
		Source: "LocusLink", Accessions: accs,
		Targets: []Target{{Source: "Hugo"}, {Source: "GO"}},
		Mode:    "OR",
	})
	if err != nil {
		t.Fatal(err)
	}
	if table.RowCount() < len(accs) {
		t.Fatalf("view rows = %d", table.RowCount())
	}

	// Transitive: chip probes to GO via the graph.
	probe := u.Accession("NetAffx-HG-U133A", 0)
	_, err = sys.AnnotationView(Query{
		Source: "NetAffx-HG-U133A", Accessions: []string{probe},
		Targets: []Target{{Source: "GO"}},
	})
	if err != nil {
		t.Fatalf("transitive chip->GO view: %v", err)
	}

	// 5. Exports round-trip.
	var tsv, csvBuf, jsonBuf bytes.Buffer
	if err := table.WriteTSV(&tsv); err != nil {
		t.Fatal(err)
	}
	if err := table.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	if err := table.WriteJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	header := "LocusLink\tHugo\tGO"
	if !strings.HasPrefix(tsv.String(), header) {
		t.Errorf("TSV header = %q", strings.SplitN(tsv.String(), "\n", 2)[0])
	}

	// 6. Persist, reload, re-query: identical row count.
	snap := filepath.Join(dir, "e2e.snap")
	if err := sys.SaveSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	table2, err := loaded.AnnotationView(Query{
		Source: "LocusLink", Accessions: accs,
		Targets: []Target{{Source: "Hugo"}, {Source: "GO"}},
		Mode:    "OR",
	})
	if err != nil {
		t.Fatal(err)
	}
	if table2.RowCount() != table.RowCount() {
		t.Fatalf("rows after reload = %d, want %d", table2.RowCount(), table.RowCount())
	}
	for i := range table.Rows {
		if strings.Join(table.Rows[i], "|") != strings.Join(table2.Rows[i], "|") {
			t.Fatalf("row %d differs after reload", i)
		}
	}
}

func TestEndToEndProfilingOverUniverse(t *testing.T) {
	if testing.Short() {
		t.Skip("universe profiling skipped in -short mode")
	}
	sys, err := New()
	if err != nil {
		t.Fatal(err)
	}
	u := gen.NewUniverse(gen.Config{Seed: 4, Scale: 0.005})
	if _, err := sys.ImportUniverse(u, ImportOptions{DeriveSubsumed: true}, nil); err != nil {
		t.Fatal(err)
	}
	p, err := profile.NewPipeline(sys.Repo(), "NetAffx-HG-U133A", "Unigene", "LocusLink", "GO")
	if err != nil {
		t.Fatal(err)
	}
	probes, err := p.ProbeAccessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(probes) != u.Count("NetAffx-HG-U133A") {
		t.Fatalf("probes = %d, want %d", len(probes), u.Count("NetAffx-HG-U133A"))
	}
	annotations, err := p.ProbeAnnotations()
	if err != nil {
		t.Fatal(err)
	}
	if len(annotations) == 0 {
		t.Fatal("no probe annotations derived through the 3-hop chain")
	}
	terms, err := p.TermAccessions()
	if err != nil {
		t.Fatal(err)
	}
	study := profile.NewStudy(profile.DefaultStudyConfig(), probes, annotations, terms)
	e, err := p.Run(study)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Results) == 0 {
		t.Fatal("no enrichment results")
	}
	// p-values well-formed and sorted.
	prev := -1.0
	for _, r := range e.Results {
		if r.PValue < 0 || r.PValue > 1 {
			t.Fatalf("p-value %g out of range for %s", r.PValue, r.Term)
		}
		if r.PValue < prev {
			t.Fatal("results not sorted by p-value")
		}
		prev = r.PValue
		if r.Differential > r.Detected {
			t.Fatalf("term %s: differential %d > detected %d", r.Term, r.Differential, r.Detected)
		}
	}
}

// Re-importing the universe is a no-op, in lock mode and under MVCC, with
// the Subsumed mappings derived inside each import's transaction: the two
// modes must end with identical content (an import that could not read its
// own IS_A rows would derive nothing under MVCC).
func TestUniverseReimportIdempotent(t *testing.T) {
	if testing.Short() {
		t.Skip("double universe import skipped in -short mode")
	}
	opts := ImportOptions{DeriveSubsumed: true}
	var lockStats *Stats
	for _, mvcc := range []bool{false, true} {
		sys, err := New()
		if err != nil {
			t.Fatal(err)
		}
		sys.SetMVCC(mvcc)
		u := gen.NewUniverse(gen.Config{Seed: 2, Scale: 0.001})
		if _, err := sys.ImportUniverse(u, opts, nil); err != nil {
			t.Fatal(err)
		}
		before, err := sys.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if before.ByType[gam.RelSubsumed] == 0 {
			t.Fatalf("mvcc=%v: no Subsumed associations derived: %s", mvcc, before)
		}
		stats, err := sys.ImportUniverse(u, opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range stats {
			if st.ObjectsNew != 0 || st.AssocsNew != 0 {
				t.Fatalf("mvcc=%v: source %s not idempotent: %s", mvcc, st.Source, st)
			}
		}
		after, err := sys.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(before, after) {
			t.Fatalf("mvcc=%v: stats changed on re-import: %s vs %s", mvcc, before, after)
		}
		if lockStats == nil {
			lockStats = after
		} else if !reflect.DeepEqual(lockStats, after) {
			t.Fatalf("MVCC import differs from lock mode: %s vs %s", after, lockStats)
		}
		if err := sys.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFailureInjection(t *testing.T) {
	sys, err := New()
	if err != nil {
		t.Fatal(err)
	}
	// A valid import first, so there is state a bad import could corrupt.
	u := gen.NewUniverse(gen.Config{Seed: 6, Scale: 0.001})
	d, err := u.Dataset("LocusLink")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.ImportDataset(d, ImportOptions{}); err != nil {
		t.Fatal(err)
	}
	before, _ := sys.Stats()
	gen0 := sys.Repo().Generation()

	dir := t.TempDir()
	cases := []struct {
		name    string
		format  string
		content string
	}{
		{"truncated-locuslink", "locuslink", "HUGO: orphan annotation before any record\n"},
		{"malformed-obo", "obo", "[Term]\nname: missing id tag\n"},
		{"bad-enzyme", "enzyme", "ZZ   unknown line code\n"},
		{"bad-tabular", "tabular", "acc\tname\tBroken:\n"},
		{"bad-evidence", "tabular", "acc\tname\tT:x|2.5\n"},
	}
	for _, c := range cases {
		path := filepath.Join(dir, c.name)
		if err := writeFile(t, path, c.content); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.ImportFile(c.format, path, SourceInfo{Name: "Broken-" + c.name}, ImportOptions{}); err == nil {
			t.Errorf("%s: malformed file accepted", c.name)
		}
	}

	// Cyclic IS_A rejected by subsumption derivation.
	cyclic := filepath.Join(dir, "cycle.obo")
	writeFile(t, cyclic, "[Term]\nid: A\nis_a: B\n\n[Term]\nid: B\nis_a: A\n")
	if _, err := sys.ImportFile("obo", cyclic, SourceInfo{Name: "Cyclic", Structure: "network"},
		ImportOptions{DeriveSubsumed: true}); err == nil {
		t.Error("cyclic taxonomy accepted by subsumption derivation")
	}

	// A failed import leaves nothing — the cyclic source got as far as its
	// objects and IS_A mapping before it was rejected — and the prior data
	// is still intact and queryable.
	after, _ := sys.Stats()
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("failed imports changed the database: %s vs %s", before, after)
	}
	if src := sys.Repo().SourceByName("Cyclic"); src != nil {
		t.Fatalf("rejected source is still cached: %+v", src)
	}
	if g := sys.Repo().Generation(); g != gen0 {
		t.Fatalf("failed imports moved the mapping generation %d -> %d", gen0, g)
	}
	if _, err := sys.AnnotationView(Query{
		Source:  "LocusLink",
		Targets: []Target{{Source: "Hugo"}},
	}); err != nil {
		t.Fatalf("system unusable after failed imports: %v", err)
	}
}

func writeFile(t *testing.T, path, content string) error {
	t.Helper()
	return osWriteFile(path, []byte(content), 0o644)
}

func TestGraphConnectivityOverUniverse(t *testing.T) {
	sys, err := New()
	if err != nil {
		t.Fatal(err)
	}
	u := gen.NewUniverse(gen.Config{Seed: 5, Scale: 0.001})
	if _, err := sys.ImportUniverse(u, ImportOptions{}, nil); err != nil {
		t.Fatal(err)
	}
	// Every catalog source with cross-references must reach GO, the hub of
	// functional annotation, through some mapping path.
	reachable, total := 0, 0
	for _, name := range u.Names() {
		if name == "GO" {
			continue
		}
		spec := u.Spec(name)
		if len(spec.XRefs) == 0 {
			continue
		}
		total++
		if _, err := sys.FindPath(name, "GO"); err == nil {
			reachable++
		}
	}
	if total == 0 {
		t.Fatal("no sources with xrefs")
	}
	if reachable < total*9/10 {
		t.Fatalf("only %d of %d xref-bearing sources reach GO", reachable, total)
	}
}
