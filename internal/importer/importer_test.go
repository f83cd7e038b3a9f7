package importer

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"genmapper/internal/eav"
	"genmapper/internal/gam"
	"genmapper/internal/sqldb"
)

// eachMode runs a test on a fresh repository in lock mode and under MVCC:
// an import reads back what it just wrote (duplicate elimination, the IS_A
// rows under DeriveSubsumed), which only works under MVCC when those reads
// go through the import's own transaction. Afterwards the repository's
// maintained Stats must equal the recount (checkStats).
func eachMode(t *testing.T, test func(t *testing.T, repo *gam.Repo)) {
	for _, mode := range []struct {
		name string
		mvcc bool
	}{{"lock", false}, {"mvcc", true}} {
		t.Run(mode.name, func(t *testing.T) {
			db := sqldb.NewDB()
			db.SetMVCC(mode.mvcc)
			t.Cleanup(func() { db.Close() })
			repo, err := gam.Open(db)
			if err != nil {
				t.Fatal(err)
			}
			test(t, repo)
			checkStats(t, repo)
		})
	}
}

// checkStats asserts that the repository's maintained Stats equal those of
// a repository freshly opened over the same database, which counts with
// SQL.
func checkStats(t *testing.T, repo *gam.Repo) {
	t.Helper()
	fresh, err := gam.Open(repo.DB())
	if err != nil {
		t.Fatal(err)
	}
	got, _ := repo.Stats()
	want, _ := fresh.Stats()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("maintained stats %v, recount %v", got, want)
	}
}

// table1Dataset reproduces the paper's Table 1 (parsed LocusLink data).
func table1Dataset() *eav.Dataset {
	d := eav.NewDataset(eav.SourceInfo{Name: "LocusLink", Content: "gene", Structure: "flat", Release: "r1"})
	d.Add("353", eav.TargetName, "", "adenine phosphoribosyltransferase")
	d.Add("353", "Hugo", "APRT", "adenine phosphoribosyltransferase")
	d.Add("353", "Location", "16q24", "")
	d.Add("353", "Enzyme", "2.4.2.7", "")
	d.Add("353", "GO", "GO:0009116", "nucleoside metabolism")
	return d
}

func TestImportTable1(t *testing.T) { eachMode(t, testImportTable1) }

func testImportTable1(t *testing.T, repo *gam.Repo) {
	st, err := Import(repo, table1Dataset(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !st.SourceCreated || st.ObjectsNew != 1 || st.TargetObjects != 4 || st.AssocsNew != 4 {
		t.Fatalf("stats = %+v", st)
	}
	// LocusLink object carries its NAME text.
	src := repo.SourceByName("LocusLink")
	id, _ := repo.LookupObject(src.ID, "353")
	obj, _ := repo.Object(id)
	if obj.Text != "adenine phosphoribosyltransferase" {
		t.Errorf("object text = %q", obj.Text)
	}
	// Four target sources auto-created, each with one mapping.
	for _, name := range []string{"Hugo", "Location", "Enzyme", "GO"} {
		tgt := repo.SourceByName(name)
		if tgt == nil {
			t.Fatalf("target source %s missing", name)
		}
		rel, _, err := repo.FindMapping(src.ID, tgt.ID)
		if err != nil || rel == nil {
			t.Fatalf("mapping LocusLink->%s missing: %v", name, err)
		}
		if rel.Type != gam.RelFact {
			t.Errorf("mapping type = %s, want fact", rel.Type)
		}
	}
}

func TestReImportIsIdempotent(t *testing.T) { eachMode(t, testReImportIsIdempotent) }

func testReImportIsIdempotent(t *testing.T, repo *gam.Repo) {
	if _, err := Import(repo, table1Dataset(), Options{}); err != nil {
		t.Fatal(err)
	}
	st, err := Import(repo, table1Dataset(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.SourceCreated {
		t.Error("source re-created on re-import")
	}
	if st.ObjectsNew != 0 || st.ObjectsDup != 1 {
		t.Errorf("objects new=%d dup=%d", st.ObjectsNew, st.ObjectsDup)
	}
	if st.AssocsNew != 0 || st.AssocsDup != 4 {
		t.Errorf("assocs new=%d dup=%d", st.AssocsNew, st.AssocsDup)
	}
	gstats, _ := repo.Stats()
	if gstats.Objects != 5 || gstats.Associations != 4 {
		t.Fatalf("duplicated data after re-import: %s", gstats)
	}
}

func TestIncrementalImportRelatesToExisting(t *testing.T) {
	eachMode(t, testIncrementalImportRelatesToExisting)
}

func testIncrementalImportRelatesToExisting(t *testing.T, repo *gam.Repo) {
	// The paper's scenario: GO is already integrated; importing LocusLink
	// afterwards must relate new LocusLink objects to existing GO terms.
	goData := eav.NewDataset(eav.SourceInfo{Name: "GO", Structure: "network"})
	goData.Add("GO:0009116", eav.TargetName, "", "nucleoside metabolism")
	goData.Add("GO:0009117", eav.TargetName, "", "nucleotide metabolism")
	goData.Add("GO:0009116", eav.TargetIsA, "GO:0009117", "")
	if _, err := Import(repo, goData, Options{}); err != nil {
		t.Fatal(err)
	}
	goSrc := repo.SourceByName("GO")
	before, _ := repo.ObjectCount(goSrc.ID)

	st, err := Import(repo, table1Dataset(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	after, _ := repo.ObjectCount(goSrc.ID)
	if after != before {
		t.Fatalf("GO objects grew from %d to %d; GO:0009116 should be reused", before, after)
	}
	if st.TargetObjects != 3 { // Hugo, Location, Enzyme objects; GO reused
		t.Errorf("target objects = %d, want 3", st.TargetObjects)
	}
	// The association lands on the existing GO term.
	ll := repo.SourceByName("LocusLink")
	rel, _, _ := repo.FindMapping(ll.ID, goSrc.ID)
	assocs, _ := repo.Associations(rel.ID)
	if len(assocs) != 1 {
		t.Fatalf("LocusLink->GO assocs = %d", len(assocs))
	}
	goID, _ := repo.LookupObject(goSrc.ID, "GO:0009116")
	if assocs[0].Object2 != goID {
		t.Error("association does not point at the pre-existing GO term")
	}
}

func TestTextBackFill(t *testing.T) { eachMode(t, testTextBackFill) }

func testTextBackFill(t *testing.T, repo *gam.Repo) {
	// LocusLink references GO terms before GO itself is imported; the
	// later GO import must attach names to the pre-created bare objects.
	if _, err := Import(repo, table1Dataset(), Options{}); err != nil {
		t.Fatal(err)
	}
	goSrc := repo.SourceByName("GO")
	id, _ := repo.LookupObject(goSrc.ID, "GO:0009116")
	obj, _ := repo.Object(id)
	if obj.Text != "" {
		t.Fatalf("bare target object has text %q", obj.Text)
	}

	goData := eav.NewDataset(eav.SourceInfo{Name: "GO", Structure: "network"})
	goData.Add("GO:0009116", eav.TargetName, "", "nucleoside metabolism")
	if _, err := Import(repo, goData, Options{}); err != nil {
		t.Fatal(err)
	}
	obj, _ = repo.Object(id)
	if obj.Text != "nucleoside metabolism" {
		t.Fatalf("text not back-filled: %q", obj.Text)
	}
	// Existing text is never overwritten.
	goData2 := eav.NewDataset(eav.SourceInfo{Name: "GO", Structure: "network"})
	goData2.Add("GO:0009116", eav.TargetName, "", "a different name")
	if _, err := Import(repo, goData2, Options{}); err != nil {
		t.Fatal(err)
	}
	obj, _ = repo.Object(id)
	if obj.Text != "nucleoside metabolism" {
		t.Fatalf("text overwritten to %q", obj.Text)
	}
}

func TestImportStructuralRelationships(t *testing.T) { eachMode(t, testImportStructuralRelationships) }

func testImportStructuralRelationships(t *testing.T, repo *gam.Repo) {
	d := eav.NewDataset(eav.SourceInfo{Name: "GO", Structure: "network"})
	d.Add("biological_process", eav.TargetName, "", "Biological Process")
	d.Add("GO:1", eav.TargetName, "", "root term")
	d.Add("GO:2", eav.TargetName, "", "child term")
	d.Add("GO:2", eav.TargetIsA, "GO:1", "")
	d.Add("biological_process", eav.TargetContains, "GO:1", "")
	d.Add("biological_process", eav.TargetContains, "GO:2", "")
	st, err := Import(repo, d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.AssocsNew != 3 {
		t.Fatalf("structural assocs = %d, want 3", st.AssocsNew)
	}
	src := repo.SourceByName("GO")
	if src.Structure != gam.StructureNetwork {
		t.Errorf("structure = %s, want network", src.Structure)
	}
	isaRel, ok, _ := repo.FindIsARel(src.ID)
	if !ok {
		t.Fatal("IS_A mapping missing")
	}
	isa, _ := repo.Associations(isaRel)
	if len(isa) != 1 {
		t.Fatalf("IS_A assocs = %d", len(isa))
	}
	containsRel, ok, _ := repo.FindRel(src.ID, src.ID, gam.RelContains)
	if !ok {
		t.Fatal("Contains mapping missing")
	}
	contains, _ := repo.Associations(containsRel)
	if len(contains) != 2 {
		t.Fatalf("Contains assocs = %d", len(contains))
	}
}

func TestDeriveSubsumed(t *testing.T) { eachMode(t, testDeriveSubsumed) }

func testDeriveSubsumed(t *testing.T, repo *gam.Repo) {
	d := eav.NewDataset(eav.SourceInfo{Name: "GO", Structure: "network"})
	// Chain GO:3 -> GO:2 -> GO:1.
	d.Add("GO:1", eav.TargetName, "", "root")
	d.Add("GO:2", eav.TargetIsA, "GO:1", "")
	d.Add("GO:3", eav.TargetIsA, "GO:2", "")
	st, err := Import(repo, d, Options{DeriveSubsumed: true})
	if err != nil {
		t.Fatal(err)
	}
	// Subsumed: GO:1 -> {GO:2, GO:3}, GO:2 -> {GO:3}.
	if st.SubsumedAssocs != 3 {
		t.Fatalf("subsumed = %d, want 3", st.SubsumedAssocs)
	}
	src := repo.SourceByName("GO")
	rel, ok, _ := repo.FindRel(src.ID, src.ID, gam.RelSubsumed)
	if !ok {
		t.Fatal("Subsumed mapping missing")
	}
	assocs, _ := repo.Associations(rel)
	if len(assocs) != 3 {
		t.Fatalf("stored subsumed = %d", len(assocs))
	}
	// Re-derivation replaces, not duplicates.
	n, err := DeriveSubsumed(repo, src.ID)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("re-derive = %d", n)
	}
}

func TestDeriveSubsumedFlatSource(t *testing.T) { eachMode(t, testDeriveSubsumedFlatSource) }

func testDeriveSubsumedFlatSource(t *testing.T, repo *gam.Repo) {
	if _, err := Import(repo, table1Dataset(), Options{}); err != nil {
		t.Fatal(err)
	}
	src := repo.SourceByName("LocusLink")
	n, err := DeriveSubsumed(repo, src.ID)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("flat source derived %d subsumed assocs", n)
	}
}

func TestDeriveSubsumedRejectsCycle(t *testing.T) { eachMode(t, testDeriveSubsumedRejectsCycle) }

func testDeriveSubsumedRejectsCycle(t *testing.T, repo *gam.Repo) {
	d := eav.NewDataset(eav.SourceInfo{Name: "Broken", Structure: "network"})
	d.Add("a", eav.TargetIsA, "b", "")
	d.Add("b", eav.TargetIsA, "a", "")
	if _, err := Import(repo, d, Options{DeriveSubsumed: true}); err == nil {
		t.Fatal("cyclic IS_A accepted by subsumption derivation")
	}
}

func TestSimilarityMappings(t *testing.T) { eachMode(t, testSimilarityMappings) }

func testSimilarityMappings(t *testing.T, repo *gam.Repo) {
	d := eav.NewDataset(eav.SourceInfo{Name: "NetAffx-HG-U95A", Content: "gene"})
	d.AddEvidence("100_at", "Unigene", "Hs.1", "", 0.87)
	d.Add("100_at", "Unigene", "Hs.2", "") // curated fact
	st, err := Import(repo, d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.MappingsTouched != 2 {
		t.Fatalf("mappings touched = %d, want 2 (fact + similarity)", st.MappingsTouched)
	}
	src := repo.SourceByName("NetAffx-HG-U95A")
	tgt := repo.SourceByName("Unigene")
	factRel, ok, _ := repo.FindRel(src.ID, tgt.ID, gam.RelFact)
	if !ok {
		t.Fatal("fact mapping missing")
	}
	simRel, ok, _ := repo.FindRel(src.ID, tgt.ID, gam.RelSimilarity)
	if !ok {
		t.Fatal("similarity mapping missing")
	}
	facts, _ := repo.Associations(factRel)
	sims, _ := repo.Associations(simRel)
	if len(facts) != 1 || len(sims) != 1 {
		t.Fatalf("facts=%d sims=%d", len(facts), len(sims))
	}
	if sims[0].Evidence != 0.87 {
		t.Errorf("similarity evidence = %g", sims[0].Evidence)
	}
}

func TestContentHints(t *testing.T) { eachMode(t, testContentHints) }

func testContentHints(t *testing.T, repo *gam.Repo) {
	st, err := Import(repo, table1Dataset(), Options{
		ContentHints: map[string]gam.Content{"hugo": gam.ContentGene},
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = st
	if got := repo.SourceByName("Hugo").Content; got != gam.ContentGene {
		t.Errorf("Hugo content = %s, want gene (hinted)", got)
	}
	if got := repo.SourceByName("Enzyme").Content; got != gam.ContentOther {
		t.Errorf("Enzyme content = %s, want other (default)", got)
	}
}

func TestImportNumberRecords(t *testing.T) { eachMode(t, testImportNumberRecords) }

func testImportNumberRecords(t *testing.T, repo *gam.Repo) {
	d := eav.NewDataset(eav.SourceInfo{Name: "Scores"})
	d.Add("s1", eav.TargetNumber, "", "3.25")
	if _, err := Import(repo, d, Options{}); err != nil {
		t.Fatal(err)
	}
	src := repo.SourceByName("Scores")
	id, _ := repo.LookupObject(src.ID, "s1")
	obj, _ := repo.Object(id)
	if !obj.HasNumber || obj.Number != 3.25 {
		t.Fatalf("number = %+v", obj)
	}
	bad := eav.NewDataset(eav.SourceInfo{Name: "Scores"})
	bad.Add("s2", eav.TargetNumber, "", "NaN-ish")
	if _, err := Import(repo, bad, Options{}); err == nil {
		t.Fatal("bad NUMBER accepted")
	}
}

func TestImportInvalidDataset(t *testing.T) { eachMode(t, testImportInvalidDataset) }

func testImportInvalidDataset(t *testing.T, repo *gam.Repo) {
	d := eav.NewDataset(eav.SourceInfo{}) // missing name
	if _, err := Import(repo, d, Options{}); err == nil {
		t.Fatal("invalid dataset accepted")
	}
}

func TestImportFile(t *testing.T) { eachMode(t, testImportFile) }

func testImportFile(t *testing.T, repo *gam.Repo) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ll.txt")
	content := ">>353\nNAME: adenine phosphoribosyltransferase\nGO: GO:0009116 | nucleoside metabolism\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := ImportFile(repo, "locuslink", path, eav.SourceInfo{Name: "LocusLink", Content: "gene"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.ObjectsNew != 1 || st.AssocsNew != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if _, err := ImportFile(repo, "locuslink", filepath.Join(dir, "missing"), eav.SourceInfo{Name: "X"}, Options{}); err == nil {
		t.Fatal("missing file accepted")
	}
	bad := filepath.Join(dir, "bad.txt")
	os.WriteFile(bad, []byte("HUGO: before record\n"), 0o644)
	if _, err := ImportFile(repo, "locuslink", bad, eav.SourceInfo{Name: "X"}, Options{}); err == nil {
		t.Fatal("malformed file accepted")
	}
}

func TestStatsString(t *testing.T) {
	st := &Stats{Source: "X", ObjectsNew: 1}
	if !strings.Contains(st.String(), "source=X") {
		t.Errorf("String = %q", st.String())
	}
}
