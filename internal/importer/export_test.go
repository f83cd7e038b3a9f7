package importer

import (
	"sort"
	"strings"
	"testing"

	"genmapper/internal/eav"
	"genmapper/internal/gam"
	"genmapper/internal/gen"
)

// recordKey canonicalizes a record for set comparison.
func recordKey(r eav.Record) string {
	var sb strings.Builder
	sb.WriteString(r.Accession)
	sb.WriteByte('\x00')
	sb.WriteString(r.Target)
	sb.WriteByte('\x00')
	sb.WriteString(r.TargetAccession)
	return sb.String()
}

func recordSet(d *eav.Dataset) []string {
	out := make([]string, 0, len(d.Records))
	seen := make(map[string]bool)
	for _, r := range d.Records {
		k := recordKey(r)
		if r.Target == eav.TargetName && r.Text == "" {
			continue
		}
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

func TestExportRoundTrip(t *testing.T) { eachMode(t, testExportRoundTrip) }

func testExportRoundTrip(t *testing.T, repo *gam.Repo) {
	orig := eav.NewDataset(eav.SourceInfo{Name: "LocusLink", Content: "gene", Release: "r1", Date: "d1"})
	orig.Add("353", eav.TargetName, "", "adenine phosphoribosyltransferase")
	orig.Add("353", "Hugo", "APRT", "")
	orig.Add("353", "GO", "GO:0009116", "")
	orig.AddEvidence("353", "Unigene", "Hs.28914", "", 0.91)
	orig.Add("354", eav.TargetName, "", "locus two")
	orig.Add("354", eav.TargetNumber, "", "7.25")
	if _, err := Import(repo, orig, Options{}); err != nil {
		t.Fatal(err)
	}
	src := repo.SourceByName("LocusLink")

	exported, err := Export(repo, src.ID)
	if err != nil {
		t.Fatal(err)
	}
	if exported.Source.Name != "LocusLink" || exported.Source.Release != "r1" {
		t.Fatalf("exported source info = %+v", exported.Source)
	}

	// Record sets match (order-independent; NAME text preserved).
	got, want := recordSet(exported), recordSet(orig)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("export record set differs:\n got: %v\nwant: %v", got, want)
	}
	// Evidence survives.
	foundEv := false
	for _, r := range exported.Records {
		if r.Target == "Unigene" {
			foundEv = true
			if r.Evidence != 0.91 {
				t.Errorf("evidence = %g", r.Evidence)
			}
		}
	}
	if !foundEv {
		t.Fatal("similarity record lost")
	}

	// Import(Export(s)) changes nothing.
	st, err := Import(repo, exported, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.ObjectsNew != 0 || st.AssocsNew != 0 || st.TargetObjects != 0 {
		t.Fatalf("re-import of export not a no-op: %s", st)
	}
}

func TestExportStructure(t *testing.T) { eachMode(t, testExportStructure) }

func testExportStructure(t *testing.T, repo *gam.Repo) {
	orig := eav.NewDataset(eav.SourceInfo{Name: "GO", Structure: "network"})
	orig.Add("GO:1", eav.TargetName, "", "root")
	orig.Add("GO:2", eav.TargetName, "", "child")
	orig.Add("GO:2", eav.TargetIsA, "GO:1", "")
	orig.Add("bp", eav.TargetContains, "GO:1", "")
	orig.Add("bp", eav.TargetContains, "GO:2", "")
	if _, err := Import(repo, orig, Options{DeriveSubsumed: true}); err != nil {
		t.Fatal(err)
	}
	src := repo.SourceByName("GO")
	exported, err := Export(repo, src.ID)
	if err != nil {
		t.Fatal(err)
	}
	var isa, contains, subsumed int
	for _, r := range exported.Records {
		switch r.Target {
		case eav.TargetIsA:
			isa++
		case eav.TargetContains:
			contains++
		case "GO":
			subsumed++ // would indicate leaked derived mapping
		}
	}
	if isa != 1 || contains != 2 {
		t.Fatalf("structural records: isa=%d contains=%d", isa, contains)
	}
	if subsumed != 0 {
		t.Fatal("derived Subsumed mapping leaked into export")
	}
}

func TestExportUnknownSource(t *testing.T) { eachMode(t, testExportUnknownSource) }

func testExportUnknownSource(t *testing.T, repo *gam.Repo) {
	if _, err := Export(repo, 12345); err == nil {
		t.Fatal("unknown source accepted")
	}
}

// TestExportImportRoundTripProperty runs the round-trip over generated
// universe sources with diverse shapes.
func TestExportImportRoundTripProperty(t *testing.T) {
	eachMode(t, testExportImportRoundTripProperty)
}

func testExportImportRoundTripProperty(t *testing.T, repo *gam.Repo) {
	u := gen.NewUniverse(gen.Config{Seed: 13, Scale: 0.001})
	for _, name := range []string{"GO", "LocusLink", "Enzyme", "Unigene", "NetAffx-HG-U95A"} {
		d, err := u.Dataset(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Import(repo, d, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"GO", "LocusLink", "Enzyme", "Unigene", "NetAffx-HG-U95A"} {
		src := repo.SourceByName(name)
		exported, err := Export(repo, src.ID)
		if err != nil {
			t.Fatalf("export %s: %v", name, err)
		}
		st, err := Import(repo, exported, Options{})
		if err != nil {
			t.Fatalf("re-import %s: %v", name, err)
		}
		if st.ObjectsNew != 0 || st.AssocsNew != 0 {
			t.Fatalf("source %s: Import(Export(s)) not a no-op: %s", name, st)
		}
	}
}
