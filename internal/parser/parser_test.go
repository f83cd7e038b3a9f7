package parser

import (
	"strings"
	"testing"

	"genmapper/internal/eav"
)

func info(name string) eav.SourceInfo {
	return eav.SourceInfo{Name: name, Content: "gene", Structure: "flat", Release: "r1", Date: "2004-01-01"}
}

func TestRegistry(t *testing.T) {
	formats := Formats()
	want := []string{"enzyme", "locuslink", "obo", "tabular"}
	if strings.Join(formats, ",") != strings.Join(want, ",") {
		t.Fatalf("Formats = %v, want %v", formats, want)
	}
	if Lookup("LOCUSLINK") == nil {
		t.Error("Lookup should be case-insensitive")
	}
	if Lookup("nope") != nil {
		t.Error("unknown format should return nil")
	}
	if _, err := Parse("nope", strings.NewReader(""), info("X")); err == nil {
		t.Error("Parse with unknown format should fail")
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	Register("locuslink", ParseLocusLink)
}

// --- LocusLink -------------------------------------------------------------

const locusLinkSample = `
# LocusLink-style dump
>>353
NAME: adenine phosphoribosyltransferase
HUGO: APRT | adenine phosphoribosyltransferase
LOCATION: 16q24
ENZYME: 2.4.2.7
GO: GO:0009116 | nucleoside metabolism
OMIM: 102600
>>354
NAME: second locus
UNIGENE: Hs.28914
`

func TestParseLocusLink(t *testing.T) {
	d, err := Parse("locuslink", strings.NewReader(locusLinkSample), info("LocusLink"))
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Accessions(); len(got) != 2 || got[0] != "353" {
		t.Fatalf("accessions = %v", got)
	}
	// Table 1 shape: locus 353 has Hugo/Location/Enzyme/GO targets.
	_, groups := d.ByAccession()
	recs := groups["353"]
	if len(recs) != 6 {
		t.Fatalf("locus 353 records = %d, want 6", len(recs))
	}
	if recs[0].Target != eav.TargetName || !strings.Contains(recs[0].Text, "phosphoribosyl") {
		t.Errorf("NAME record = %+v", recs[0])
	}
	if recs[1].Target != "Hugo" || recs[1].TargetAccession != "APRT" {
		t.Errorf("Hugo record = %+v", recs[1])
	}
	if recs[1].Text != "adenine phosphoribosyltransferase" {
		t.Errorf("Hugo text = %q", recs[1].Text)
	}
	if recs[4].Target != "GO" || recs[4].TargetAccession != "GO:0009116" || recs[4].Text != "nucleoside metabolism" {
		t.Errorf("GO record = %+v", recs[4])
	}
	// Key canonicalization: LOCATION -> Location.
	if recs[2].Target != "Location" {
		t.Errorf("Location target = %q", recs[2].Target)
	}
}

func TestParseLocusLinkErrors(t *testing.T) {
	cases := []string{
		"HUGO: APRT\n",            // annotation before record
		">>353\nmalformed line\n", // no colon
		">>353\nHUGO:\n",          // empty value
		">>\nNAME: x\n",           // empty accession
	}
	for _, in := range cases {
		if _, err := Parse("locuslink", strings.NewReader(in), info("LocusLink")); err == nil {
			t.Errorf("expected error for %q", in)
		}
	}
}

// --- OBO ---------------------------------------------------------------------

const oboSample = `format-version: 1.2
ontology: go

[Term]
id: GO:0008150
name: biological_process
namespace: biological_process

[Term]
id: GO:0009117
name: nucleotide metabolism
namespace: biological_process
is_a: GO:0008150 ! biological_process

[Term]
id: GO:0009116
name: nucleoside metabolism
namespace: biological_process
is_a: GO:0009117 ! nucleotide metabolism
is_a: GO:0008150 ! biological_process

[Typedef]
id: part_of
name: part of
`

func TestParseOBO(t *testing.T) {
	d, err := Parse("obo", strings.NewReader(oboSample), eav.SourceInfo{Name: "GO", Structure: "network"})
	if err != nil {
		t.Fatal(err)
	}
	var names, isa, contains int
	for _, r := range d.Records {
		switch r.Target {
		case eav.TargetName:
			names++
		case eav.TargetIsA:
			isa++
		case eav.TargetContains:
			contains++
		}
	}
	if names != 3 {
		t.Errorf("NAME records = %d, want 3", names)
	}
	if isa != 3 {
		t.Errorf("IS_A records = %d, want 3", isa)
	}
	if contains != 3 {
		t.Errorf("CONTAINS records = %d, want 3 (namespace partitions)", contains)
	}
	// is_a comments after "!" are stripped.
	for _, r := range d.Records {
		if r.Target == eav.TargetIsA && strings.Contains(r.TargetAccession, "!") {
			t.Errorf("is_a target not cleaned: %q", r.TargetAccession)
		}
	}
}

func TestParseOBOErrors(t *testing.T) {
	missingID := "[Term]\nname: no id\n"
	if _, err := Parse("obo", strings.NewReader(missingID), info("GO")); err == nil {
		t.Error("term without id accepted")
	}
	badTag := "[Term]\nid: GO:1\nnocolonline\n"
	if _, err := Parse("obo", strings.NewReader(badTag), info("GO")); err == nil {
		t.Error("malformed tag accepted")
	}
	emptyIsA := "[Term]\nid: GO:1\nis_a: ! comment only\n"
	if _, err := Parse("obo", strings.NewReader(emptyIsA), info("GO")); err == nil {
		t.Error("empty is_a accepted")
	}
}

// --- Enzyme ------------------------------------------------------------------

const enzymeSample = `ID   2.4.2.7
DE   Adenine phosphoribosyltransferase.
DR   P07741, APT_HUMAN; P36135, APT_YEAST;
//
ID   1.1.1.1
DE   Alcohol dehydrogenase.
//
`

func TestParseEnzyme(t *testing.T) {
	d, err := Parse("enzyme", strings.NewReader(enzymeSample), eav.SourceInfo{Name: "Enzyme", Structure: "network"})
	if err != nil {
		t.Fatal(err)
	}
	var isa, swissprot, names int
	for _, r := range d.Records {
		switch r.Target {
		case eav.TargetIsA:
			isa++
		case "SwissProt":
			swissprot++
		case eav.TargetName:
			names++
		}
	}
	// Each 4-part EC number contributes 3 hierarchy links.
	if isa != 6 {
		t.Errorf("IS_A records = %d, want 6", isa)
	}
	if swissprot != 2 {
		t.Errorf("SwissProt xrefs = %d, want 2", swissprot)
	}
	// 2 entries + 6 distinct class entries (2.4.2.-, 2.4.-.-, 2.-.-.-,
	// 1.1.1.-, 1.1.-.-, 1.-.-.-).
	if names != 8 {
		t.Errorf("NAME records = %d, want 8", names)
	}
	// Hierarchy: 2.4.2.7 IS_A 2.4.2.-
	found := false
	for _, r := range d.Records {
		if r.Target == eav.TargetIsA && r.Accession == "2.4.2.7" && r.TargetAccession == "2.4.2.-" {
			found = true
		}
	}
	if !found {
		t.Error("missing 2.4.2.7 IS_A 2.4.2.-")
	}
}

func TestParseEnzymeErrors(t *testing.T) {
	cases := []string{
		"DE   before id.\n",
		"XX   unknown code\n",
		"ID\n",
		"X\n",
	}
	for _, in := range cases {
		if _, err := Parse("enzyme", strings.NewReader(in), info("Enzyme")); err == nil {
			t.Errorf("expected error for %q", in)
		}
	}
}

// --- Tabular -----------------------------------------------------------------

const tabularSample = "#accession\tname\txrefs\n" +
	"Hs.28914\tAPRT cluster\tLocusLink:353;GO:GO:0009116\n" +
	"Hs.2\tsecond\tLocusLink:354|0.92\n" +
	"Hs.3\tno refs\t\n"

func TestParseTabular(t *testing.T) {
	d, err := Parse("tabular", strings.NewReader(tabularSample), info("Unigene"))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Accessions()) != 3 {
		t.Fatalf("accessions = %v", d.Accessions())
	}
	var goRef, evRef *eav.Record
	for i, r := range d.Records {
		if r.Target == "GO" {
			goRef = &d.Records[i]
		}
		if r.Evidence != 0 {
			evRef = &d.Records[i]
		}
	}
	// GO accessions contain ':' themselves; only the first ':' splits.
	if goRef == nil || goRef.TargetAccession != "GO:0009116" {
		t.Errorf("GO xref = %+v", goRef)
	}
	if evRef == nil || evRef.Evidence != 0.92 || evRef.Target != "LocusLink" {
		t.Errorf("evidence xref = %+v", evRef)
	}
}

func TestParseTabularErrors(t *testing.T) {
	cases := []string{
		"onlyonecolumn\n",
		"acc\tname\tbadxref\n",
		"acc\tname\tTarget:\n",
		"acc\tname\tTarget:x|notanumber\n",
		"acc\tname\tTarget:x|1.5\n", // evidence out of range
		"\tname\tTarget:x\n",        // empty accession
	}
	for _, in := range cases {
		if _, err := Parse("tabular", strings.NewReader(in), info("X")); err == nil {
			t.Errorf("expected error for %q", in)
		}
	}
}

// TestParseTabularEvidence: the evidence suffix is the whole trimmed field
// as one float in [0,1]; trailing garbage is an error, not a shorter number.
func TestParseTabularEvidence(t *testing.T) {
	cases := []struct {
		field   string
		want    float64
		wantErr string // substring of the error; "" = accepted
	}{
		{"1e-3", 0.001, ""},
		{" 0.5 ", 0.5, ""},
		{"1", 1, ""},
		{"abc", 0, `bad evidence "abc"`},
		{"0.5x", 0, `bad evidence "0.5x"`},
		{"0.9abc", 0, `bad evidence "0.9abc"`},
		{"", 0, `bad evidence ""`},
		{"-0.1", 0, "evidence -0.1 out of [0,1]"},
		{"1.1", 0, "evidence 1.1 out of [0,1]"},
		{"NaN", 0, "evidence NaN out of [0,1]"},
	}
	for _, c := range cases {
		d, err := Parse("tabular", strings.NewReader("acc\tname\tTarget:x|"+c.field+"\n"), info("X"))
		if c.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("evidence %q: error = %v, want one containing %q", c.field, err, c.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("evidence %q: %v", c.field, err)
			continue
		}
		var got []float64
		for _, r := range d.Records {
			if r.Target == "Target" {
				got = append(got, r.Evidence)
			}
		}
		if len(got) != 1 || got[0] != c.want {
			t.Errorf("evidence %q parsed as %v, want [%v]", c.field, got, c.want)
		}
	}
}

func TestParseTabularSkipsComments(t *testing.T) {
	in := "# comment\n\nacc1\tname one\t\n# another\nacc2\tname two\t\n"
	d, err := Parse("tabular", strings.NewReader(in), info("X"))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Accessions()) != 2 {
		t.Fatalf("accessions = %v", d.Accessions())
	}
}
