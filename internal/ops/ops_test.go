package ops

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"genmapper/internal/gam"
	"genmapper/internal/sqldb"
)

// fixture sets up the paper's running example: LocusLink genes annotated
// with GO terms, plus Unigene clusters mapped to LocusLink.
type fixture struct {
	repo    *gam.Repo
	locus   *gam.Source
	unigene *gam.Source
	gene    *gam.Source // GO stand-in
	loci    []gam.ObjectID
	clus    []gam.ObjectID
	terms   []gam.ObjectID
	relLG   gam.SourceRelID // LocusLink <-> GO
	relUL   gam.SourceRelID // Unigene  <-> LocusLink
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	repo, err := gam.Open(sqldb.NewDB())
	if err != nil {
		t.Fatal(err)
	}
	f := &fixture{repo: repo}
	f.locus, _, _ = repo.EnsureSource(gam.Source{Name: "LocusLink", Content: gam.ContentGene})
	f.unigene, _, _ = repo.EnsureSource(gam.Source{Name: "Unigene", Content: gam.ContentGene})
	f.gene, _, _ = repo.EnsureSource(gam.Source{Name: "GO", Structure: gam.StructureNetwork})

	f.loci, _, err = repo.EnsureObjects(f.locus.ID, []gam.ObjectSpec{
		{Accession: "353"}, {Accession: "354"}, {Accession: "355"}, {Accession: "356"},
	})
	if err != nil {
		t.Fatal(err)
	}
	f.clus, _, err = repo.EnsureObjects(f.unigene.ID, []gam.ObjectSpec{
		{Accession: "Hs.1"}, {Accession: "Hs.2"}, {Accession: "Hs.3"},
	})
	if err != nil {
		t.Fatal(err)
	}
	f.terms, _, err = repo.EnsureObjects(f.gene.ID, []gam.ObjectSpec{
		{Accession: "GO:1"}, {Accession: "GO:2"}, {Accession: "GO:3"},
	})
	if err != nil {
		t.Fatal(err)
	}

	f.relLG, _, _ = repo.EnsureSourceRel(f.locus.ID, f.gene.ID, gam.RelFact)
	// locus 353 -> GO:1, GO:2 ; locus 354 -> GO:2 ; locus 355 -> GO:3
	// locus 356 has no GO annotation.
	_, err = repo.AddAssociations(f.relLG, []gam.Assoc{
		{Object1: f.loci[0], Object2: f.terms[0]},
		{Object1: f.loci[0], Object2: f.terms[1]},
		{Object1: f.loci[1], Object2: f.terms[1]},
		{Object1: f.loci[2], Object2: f.terms[2]},
	}, false)
	if err != nil {
		t.Fatal(err)
	}

	f.relUL, _, _ = repo.EnsureSourceRel(f.unigene.ID, f.locus.ID, gam.RelFact)
	// Hs.1 -> 353 ; Hs.2 -> 354 ; Hs.3 -> 356
	_, err = repo.AddAssociations(f.relUL, []gam.Assoc{
		{Object1: f.clus[0], Object2: f.loci[0]},
		{Object1: f.clus[1], Object2: f.loci[1]},
		{Object1: f.clus[2], Object2: f.loci[3]},
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestMapDirect(t *testing.T) {
	f := newFixture(t)
	m, err := Map(f.repo, f.locus.ID, f.gene.ID)
	if err != nil {
		t.Fatal(err)
	}
	if m.From != f.locus.ID || m.To != f.gene.ID || m.Len() != 4 {
		t.Fatalf("Map = %+v", m)
	}
}

func TestMapReversed(t *testing.T) {
	f := newFixture(t)
	// The mapping is stored as LocusLink->GO; asking for GO->LocusLink
	// must flip the associations.
	m, err := Map(f.repo, f.gene.ID, f.locus.ID)
	if err != nil {
		t.Fatal(err)
	}
	if m.From != f.gene.ID || m.To != f.locus.ID {
		t.Fatalf("reversed Map endpoints = %d -> %d", m.From, m.To)
	}
	dom := Domain(m)
	if len(dom) != 3 {
		t.Fatalf("reversed domain = %v (want the 3 GO terms)", dom)
	}
}

func TestMapMissing(t *testing.T) {
	f := newFixture(t)
	if _, err := Map(f.repo, f.unigene.ID, f.gene.ID); err == nil {
		t.Fatal("expected no-mapping error for Unigene<->GO")
	}
}

func TestDomainRange(t *testing.T) {
	f := newFixture(t)
	m, _ := Map(f.repo, f.locus.ID, f.gene.ID)
	dom := Domain(m)
	if len(dom) != 3 { // 353, 354, 355 (356 unmapped)
		t.Errorf("Domain = %v", dom)
	}
	rng := Range(m)
	if len(rng) != 3 {
		t.Errorf("Range = %v", rng)
	}
}

func TestRestrictDomainRange(t *testing.T) {
	f := newFixture(t)
	m, _ := Map(f.repo, f.locus.ID, f.gene.ID)
	rd := RestrictDomain(m, NewObjectSet(f.loci[0]))
	if rd.Len() != 2 {
		t.Errorf("RestrictDomain = %d assocs", rd.Len())
	}
	rr := RestrictRange(m, NewObjectSet(f.terms[1]))
	if rr.Len() != 2 { // 353->GO:2, 354->GO:2
		t.Errorf("RestrictRange = %d assocs", rr.Len())
	}
	// Table 2's example: RestrictDomain(map, {s1}) = {s1<->t1}.
	both := RestrictRange(RestrictDomain(m, NewObjectSet(f.loci[0])), NewObjectSet(f.terms[0]))
	if both.Len() != 1 || both.Assocs[0].Object1 != f.loci[0] || both.Assocs[0].Object2 != f.terms[0] {
		t.Errorf("combined restriction = %+v", both.Assocs)
	}
	// nil set = no restriction, and the result is an independent copy.
	cp := RestrictDomain(m, nil)
	if cp.Len() != m.Len() {
		t.Errorf("nil restriction changed size")
	}
	cp.Assocs[0].Object1 = 999
	if m.Assocs[0].Object1 == 999 {
		t.Error("RestrictDomain(nil) aliases the input")
	}
}

func TestCompose(t *testing.T) {
	f := newFixture(t)
	ul, _ := Map(f.repo, f.unigene.ID, f.locus.ID)
	lg, _ := Map(f.repo, f.locus.ID, f.gene.ID)
	// The paper's example: Unigene<->GO = Unigene<->LocusLink o LocusLink<->GO.
	ug, err := Compose(ul, lg)
	if err != nil {
		t.Fatal(err)
	}
	if ug.From != f.unigene.ID || ug.To != f.gene.ID || ug.Type != gam.RelComposed {
		t.Fatalf("composed mapping = %+v", ug)
	}
	// Hs.1 -> 353 -> {GO:1, GO:2}; Hs.2 -> 354 -> {GO:2}; Hs.3 -> 356 -> {}.
	if ug.Len() != 3 {
		t.Fatalf("composed associations = %d, want 3", ug.Len())
	}
	dom := Domain(ug)
	if len(dom) != 2 {
		t.Errorf("composed domain = %v", dom)
	}
}

func TestComposeMismatch(t *testing.T) {
	f := newFixture(t)
	lg, _ := Map(f.repo, f.locus.ID, f.gene.ID)
	if _, err := Compose(lg, lg); err == nil {
		t.Fatal("mismatched compose accepted")
	}
}

func TestComposeEvidence(t *testing.T) {
	a := &Mapping{From: 1, To: 2, Assocs: []gam.Assoc{{Object1: 10, Object2: 20, Evidence: 0.5}}}
	b := &Mapping{From: 2, To: 3, Assocs: []gam.Assoc{{Object1: 20, Object2: 30, Evidence: 0.4}}}
	c, err := Compose(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Assocs) != 1 || c.Assocs[0].Evidence != 0.2 {
		t.Fatalf("evidence = %+v", c.Assocs)
	}
	// Unset evidence treated as certain.
	b.Assocs[0].Evidence = 0
	c, _ = Compose(a, b)
	if c.Assocs[0].Evidence != 0.5 {
		t.Fatalf("evidence with unset = %v", c.Assocs[0].Evidence)
	}
	// Both unset stays unset.
	a.Assocs[0].Evidence = 0
	c, _ = Compose(a, b)
	if c.Assocs[0].Evidence != 0 {
		t.Fatalf("both-unset evidence = %v", c.Assocs[0].Evidence)
	}
}

func TestComposeDedup(t *testing.T) {
	// Two distinct middle objects leading to the same (s, t) pair collapse,
	// keeping the stronger evidence.
	a := &Mapping{From: 1, To: 2, Assocs: []gam.Assoc{
		{Object1: 10, Object2: 20, Evidence: 0.9},
		{Object1: 10, Object2: 21, Evidence: 0.3},
	}}
	b := &Mapping{From: 2, To: 3, Assocs: []gam.Assoc{
		{Object1: 20, Object2: 30},
		{Object1: 21, Object2: 30},
	}}
	c, err := Compose(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Assocs) != 1 {
		t.Fatalf("dedup failed: %+v", c.Assocs)
	}
	if c.Assocs[0].Evidence != 0.9 {
		t.Fatalf("kept evidence = %v, want the stronger 0.9", c.Assocs[0].Evidence)
	}
}

func TestMapPath(t *testing.T) {
	f := newFixture(t)
	m, err := MapPath(f.repo, []gam.SourceID{f.unigene.ID, f.locus.ID, f.gene.ID})
	if err != nil {
		t.Fatal(err)
	}
	if m.From != f.unigene.ID || m.To != f.gene.ID || m.Len() != 3 {
		t.Fatalf("MapPath = %+v", m)
	}
	// Length-2 path is just Map.
	m2, err := MapPath(f.repo, []gam.SourceID{f.locus.ID, f.gene.ID})
	if err != nil {
		t.Fatal(err)
	}
	if m2.Len() != 4 {
		t.Fatalf("length-2 MapPath = %d", m2.Len())
	}
	if _, err := MapPath(f.repo, []gam.SourceID{f.locus.ID}); err == nil {
		t.Fatal("single-source path accepted")
	}
}

func TestInvert(t *testing.T) {
	f := newFixture(t)
	m, _ := Map(f.repo, f.locus.ID, f.gene.ID)
	inv := Invert(m)
	if inv.From != f.gene.ID || inv.To != f.locus.ID || inv.Len() != m.Len() {
		t.Fatalf("Invert = %+v", inv)
	}
	back := Invert(inv)
	for i := range m.Assocs {
		if back.Assocs[i] != m.Assocs[i] {
			t.Fatalf("double inversion differs at %d", i)
		}
	}
}

func TestMaterialize(t *testing.T) {
	f := newFixture(t)
	ul, _ := Map(f.repo, f.unigene.ID, f.locus.ID)
	lg, _ := Map(f.repo, f.locus.ID, f.gene.ID)
	ug, _ := Compose(ul, lg)

	rel, err := Materialize(f.repo, ug)
	if err != nil {
		t.Fatal(err)
	}
	if rel == 0 || ug.Rel != rel {
		t.Fatalf("materialize rel = %d", rel)
	}
	// The materialized mapping is now found by Map.
	found, err := Map(f.repo, f.unigene.ID, f.gene.ID)
	if err != nil {
		t.Fatal(err)
	}
	if found.Len() != 3 || found.Type != gam.RelComposed {
		t.Fatalf("materialized Map = %+v", found)
	}
	// Re-materializing replaces rather than duplicates.
	rel2, err := Materialize(f.repo, ug)
	if err != nil {
		t.Fatal(err)
	}
	found2, _ := Map(f.repo, f.unigene.ID, f.gene.ID)
	if found2.Len() != 3 {
		t.Fatalf("re-materialize duplicated: %d assocs", found2.Len())
	}
	if rel2 == rel {
		t.Fatal("refresh should assign a fresh mapping ID")
	}
}

func TestComposeEvidenceTable(t *testing.T) {
	// Evidence combination rules: unset (0) is a curated fact and acts as
	// the multiplicative identity; two facts stay a fact; an explicitly
	// asserted 1.0 survives as 1.0 instead of collapsing to "unset".
	cases := []struct {
		name     string
		ev1, ev2 float64
		want     float64
	}{
		{"both unset", 0, 0, 0},
		{"unset left", 0, 0.4, 0.4},
		{"unset right", 0.4, 0, 0.4},
		{"explicit certain pair", 1.0, 1.0, 1.0},
		{"explicit certain left", 1.0, 0.4, 0.4},
		{"explicit certain with unset", 1.0, 0, 1.0},
		{"fractional", 0.5, 0.4, 0.2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := &Mapping{From: 1, To: 2, Assocs: []gam.Assoc{{Object1: 10, Object2: 20, Evidence: tc.ev1}}}
			b := &Mapping{From: 2, To: 3, Assocs: []gam.Assoc{{Object1: 20, Object2: 30, Evidence: tc.ev2}}}
			c, err := Compose(a, b)
			if err != nil {
				t.Fatal(err)
			}
			if len(c.Assocs) != 1 || c.Assocs[0].Evidence != tc.want {
				t.Fatalf("Compose(%v, %v) evidence = %+v, want %v", tc.ev1, tc.ev2, c.Assocs, tc.want)
			}
		})
	}
}

func TestMaterializeAtomicOnFailure(t *testing.T) {
	f := newFixture(t)
	ul, _ := Map(f.repo, f.unigene.ID, f.locus.ID)
	lg, _ := Map(f.repo, f.locus.ID, f.gene.ID)
	ug, _ := Compose(ul, lg)
	if _, err := Materialize(f.repo, ug); err != nil {
		t.Fatal(err)
	}
	want, err := Map(f.repo, f.unigene.ID, f.gene.ID)
	if err != nil {
		t.Fatal(err)
	}

	// Inject a failure between the delete of the old mapping and the
	// commit of its replacement: the refresh must roll back and leave the
	// previously materialized mapping fully intact.
	for _, stage := range []string{"after-delete", "after-insert"} {
		f.repo.SetReplaceMappingHook(func(s string) error {
			if s == stage {
				return fmt.Errorf("injected %s failure", s)
			}
			return nil
		})
		broken := ug.clone()
		broken.Assocs = broken.Assocs[:1]
		if _, err := Materialize(f.repo, broken); err == nil {
			t.Fatalf("%s: injected failure not reported", stage)
		}
		f.repo.SetReplaceMappingHook(nil)

		got, err := Map(f.repo, f.unigene.ID, f.gene.ID)
		if err != nil {
			t.Fatalf("%s: materialized mapping destroyed by failed refresh: %v", stage, err)
		}
		if got.Rel != want.Rel || got.Len() != want.Len() {
			t.Fatalf("%s: mapping after failed refresh = rel %d / %d assocs, want rel %d / %d",
				stage, got.Rel, got.Len(), want.Rel, want.Len())
		}
		wantSet := make(map[[2]gam.ObjectID]bool, len(want.Assocs))
		for _, a := range want.Assocs {
			wantSet[[2]gam.ObjectID{a.Object1, a.Object2}] = true
		}
		for _, a := range got.Assocs {
			if !wantSet[[2]gam.ObjectID{a.Object1, a.Object2}] {
				t.Fatalf("%s: unexpected association %+v after rollback", stage, a)
			}
		}
	}

	// After the failed refreshes, a clean re-materialize still works.
	if _, err := Materialize(f.repo, ug); err != nil {
		t.Fatal(err)
	}
}

func TestMinEvidence(t *testing.T) {
	m := &Mapping{Assocs: []gam.Assoc{
		{Object1: 1, Object2: 2, Evidence: 0.9},
		{Object1: 1, Object2: 3, Evidence: 0.2},
		{Object1: 2, Object2: 3}, // fact: passes any threshold
	}}
	out := MinEvidence(m, 0.5)
	if len(out.Assocs) != 2 {
		t.Fatalf("MinEvidence = %+v", out.Assocs)
	}
}

// ---------------------------------------------------------------------------
// GenerateView

func TestGenerateViewOR(t *testing.T) {
	f := newFixture(t)
	v, err := GenerateView(f.repo, f.locus.ID, nil,
		[]TargetSpec{{Source: f.gene.ID}}, CombineOR, nil)
	if err != nil {
		t.Fatal(err)
	}
	// OR = left outer join: all 4 loci appear; 353 twice (two GO terms).
	if len(v.Rows) != 5 {
		t.Fatalf("OR view rows = %d, want 5", len(v.Rows))
	}
	if got := v.SourceObjects(); len(got) != 4 {
		t.Fatalf("OR view source objects = %v", got)
	}
	// Locus 356 must appear with a NULL target.
	foundNull := false
	for _, r := range v.Rows {
		if r[0] == f.loci[3] && r[1] == 0 {
			foundNull = true
		}
	}
	if !foundNull {
		t.Error("unannotated locus lost its NULL row")
	}
}

func TestGenerateViewAND(t *testing.T) {
	f := newFixture(t)
	v, err := GenerateView(f.repo, f.locus.ID, nil,
		[]TargetSpec{{Source: f.gene.ID}}, CombineAND, nil)
	if err != nil {
		t.Fatal(err)
	}
	// AND = inner join: locus 356 disappears.
	if len(v.Rows) != 4 {
		t.Fatalf("AND view rows = %d, want 4", len(v.Rows))
	}
	for _, r := range v.Rows {
		if r[1] == 0 {
			t.Errorf("AND view contains NULL row %v", r)
		}
	}
}

func TestGenerateViewRestrictedSource(t *testing.T) {
	f := newFixture(t)
	v, err := GenerateView(f.repo, f.locus.ID, NewObjectSet(f.loci[0], f.loci[1]),
		[]TargetSpec{{Source: f.gene.ID}}, CombineOR, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Rows) != 3 { // 353 x2, 354 x1
		t.Fatalf("restricted view rows = %d", len(v.Rows))
	}
}

func TestGenerateViewRestrictedTarget(t *testing.T) {
	f := newFixture(t)
	v, err := GenerateView(f.repo, f.locus.ID, nil,
		[]TargetSpec{{Source: f.gene.ID, Restrict: NewObjectSet(f.terms[1])}}, CombineAND, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Only loci annotated with GO:2 survive: 353 and 354.
	if len(v.Rows) != 2 {
		t.Fatalf("target-restricted rows = %v", v.Rows)
	}
	for _, r := range v.Rows {
		if r[1] != f.terms[1] {
			t.Errorf("row %v has target outside restriction", r)
		}
	}
}

func TestGenerateViewNegation(t *testing.T) {
	f := newFixture(t)
	// "Not annotated with GO:2": loci 355 (GO:3 only) and 356 (nothing).
	v, err := GenerateView(f.repo, f.locus.ID, nil,
		[]TargetSpec{{Source: f.gene.ID, Restrict: NewObjectSet(f.terms[1]), Negate: true}},
		CombineAND, nil)
	if err != nil {
		t.Fatal(err)
	}
	src := v.SourceObjects()
	if len(src) != 2 || src[0] != f.loci[2] || src[1] != f.loci[3] {
		t.Fatalf("negated view sources = %v, want [355 356]", src)
	}
	// Figure 5 keeps the associations the negated objects do have: locus
	// 355 shows GO:3, locus 356 shows NULL.
	for _, r := range v.Rows {
		switch r[0] {
		case f.loci[2]:
			if r[1] != f.terms[2] {
				t.Errorf("locus 355 target = %v, want GO:3", r[1])
			}
		case f.loci[3]:
			if r[1] != 0 {
				t.Errorf("locus 356 target = %v, want NULL", r[1])
			}
		}
	}
}

func TestGenerateViewMultiTargetAND(t *testing.T) {
	f := newFixture(t)
	// Loci that have a GO term AND a Unigene cluster.
	// Unigene mapping is stored Unigene->LocusLink; view target resolution
	// must handle the reversed direction.
	v, err := GenerateView(f.repo, f.locus.ID, nil,
		[]TargetSpec{{Source: f.gene.ID}, {Source: f.unigene.ID}}, CombineAND, nil)
	if err != nil {
		t.Fatal(err)
	}
	src := v.SourceObjects()
	// 353: GO yes, Unigene yes. 354: yes, yes. 355: GO yes, Unigene no.
	// 356: GO no. -> {353, 354}
	if len(src) != 2 || src[0] != f.loci[0] || src[1] != f.loci[1] {
		t.Fatalf("AND multi-target sources = %v", src)
	}
	if len(v.Targets) != 2 {
		t.Fatalf("view targets = %v", v.Targets)
	}
}

func TestGenerateViewExplicitPath(t *testing.T) {
	f := newFixture(t)
	// Annotate Unigene clusters with GO terms through the explicit
	// Unigene -> LocusLink -> GO mapping path (no direct mapping exists).
	v, err := GenerateView(f.repo, f.unigene.ID, nil,
		[]TargetSpec{{Source: f.gene.ID, Path: []gam.SourceID{f.unigene.ID, f.locus.ID, f.gene.ID}}},
		CombineOR, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Hs.1 -> GO:1, GO:2 ; Hs.2 -> GO:2 ; Hs.3 -> NULL.
	if len(v.Rows) != 4 {
		t.Fatalf("path view rows = %v", v.Rows)
	}
	// Bad path endpoints rejected.
	_, err = GenerateView(f.repo, f.unigene.ID, nil,
		[]TargetSpec{{Source: f.gene.ID, Path: []gam.SourceID{f.locus.ID, f.gene.ID}}},
		CombineOR, nil)
	if err == nil {
		t.Fatal("mismatched path endpoints accepted")
	}
}

func TestGenerateViewMinEvidence(t *testing.T) {
	f := newFixture(t)
	// Add a similarity mapping LocusLink -> Unigene with mixed evidence.
	rel, _, _ := f.repo.EnsureSourceRel(f.locus.ID, f.unigene.ID, gam.RelSimilarity)
	f.repo.AddAssociations(rel, []gam.Assoc{
		{Object1: f.loci[0], Object2: f.clus[0], Evidence: 0.95},
		{Object1: f.loci[1], Object2: f.clus[1], Evidence: 0.40},
		{Object1: f.loci[2], Object2: f.clus[2]}, // fact: always passes
	}, false)
	// Delete the stored fact mapping so the similarity one is used.
	facts, _, _ := f.repo.FindRel(f.unigene.ID, f.locus.ID, gam.RelFact)
	if facts != 0 {
		f.repo.DeleteMapping(facts)
	}

	withThreshold, err := GenerateView(f.repo, f.locus.ID, nil,
		[]TargetSpec{{Source: f.unigene.ID, MinEvidence: 0.5}}, CombineAND, nil)
	if err != nil {
		t.Fatal(err)
	}
	src := withThreshold.SourceObjects()
	// 0.40 association dropped: loci[1] disappears; loci[0] (0.95) and
	// loci[2] (fact) stay.
	if len(src) != 2 || src[0] != f.loci[0] || src[1] != f.loci[2] {
		t.Fatalf("thresholded sources = %v", src)
	}

	without, err := GenerateView(f.repo, f.locus.ID, nil,
		[]TargetSpec{{Source: f.unigene.ID}}, CombineAND, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(without.SourceObjects()) != 3 {
		t.Fatalf("unthresholded sources = %v", without.SourceObjects())
	}
}

func TestGenerateViewNoTargets(t *testing.T) {
	f := newFixture(t)
	if _, err := GenerateView(f.repo, f.locus.ID, nil, nil, CombineOR, nil); err == nil {
		t.Fatal("empty target list accepted")
	}
}

// ---------------------------------------------------------------------------
// Property-based tests

func randomMapping(rng *rand.Rand, from, to gam.SourceID, nd, nr int) *Mapping {
	m := &Mapping{From: from, To: to, Type: gam.RelFact}
	n := rng.Intn(30)
	for i := 0; i < n; i++ {
		m.Assocs = append(m.Assocs, gam.Assoc{
			Object1: gam.ObjectID(rng.Intn(nd) + 1),
			Object2: gam.ObjectID(rng.Intn(nr) + 1000),
		})
	}
	return Dedup(m)
}

func TestRestrictDomainAlgebraProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomMapping(rng, 1, 2, 10, 10)
		sub := make(ObjectSet)
		for i := 0; i < 5; i++ {
			sub[gam.ObjectID(rng.Intn(10)+1)] = true
		}
		restricted := RestrictDomain(m, sub)
		// Domain(RestrictDomain(m, s)) ⊆ s
		for _, id := range Domain(restricted) {
			if !sub[id] {
				return false
			}
		}
		// RestrictDomain(m, Domain(m)) = m
		full := RestrictDomain(m, NewObjectSet(Domain(m)...))
		return full.Len() == m.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestComposeAssociativityProperty composes chains of 2 to 5 mappings with
// evidence unset or scored in (2⁻²⁰, 1], in every bracketing, and compares
// each with the left fold: the pairs must be the same, and each pair's
// evidence within hops−1 ulp, the rounding a product of hops factors picks
// up in another order. (Each of the hops−1 roundings is less than one ulp
// of the product, so two orders are less than 2(hops−1) ulp apart; none
// of 300 000 drawn chains was further apart than hops−1.) The seed is fixed.
func TestComposeAssociativityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		hops := 2 + rng.Intn(4)
		maps := make([]*Mapping, hops)
		for i := range maps {
			var as []gam.Assoc
			from, to := gam.ObjectID(100*i), gam.ObjectID(100*(i+1))
			for k := rng.Intn(30); k >= 0; k-- {
				ev := 0.0
				if rng.Intn(3) > 0 {
					ev = 1 - rng.Float64()*(1-0x1p-20)
				}
				as = append(as, gam.Assoc{Object1: from + gam.ObjectID(rng.Intn(8)), Object2: to + gam.ObjectID(rng.Intn(8)), Evidence: ev})
			}
			maps[i] = operand(as, gam.SourceID(i+1), operandForms[rng.Intn(len(operandForms))])
		}
		want := composeAlong(maps, leftFold(hops))
		for _, split := range bracketings(hops) {
			got := composeAlong(maps, split)
			if len(got) != len(want) {
				t.Logf("seed %d: %s derives %d pairs, the left fold %d", seed, brackets(split, hops, 0, hops-1), len(got), len(want))
				return false
			}
			for i, a := range got {
				w := want[i]
				if a.Object1 != w.Object1 || a.Object2 != w.Object2 || (a.Evidence == 0) != (w.Evidence == 0) ||
					ulps(a.Evidence, w.Evidence) > uint64(hops-1) {
					t.Logf("seed %d: %s derives %v, the left fold %v", seed, brackets(split, hops, 0, hops-1), a, w)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// ulps is the distance between two non-negative float64s in units in the
// last place: the number of float64s between them, one end included.
func ulps(a, b float64) uint64 {
	x, y := math.Float64bits(a), math.Float64bits(b)
	if x < y {
		x, y = y, x
	}
	return x - y
}

func TestComposeIdentityProperty(t *testing.T) {
	// Composing with an identity mapping over the domain yields the
	// original mapping.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomMapping(rng, 2, 3, 8, 8)
		ident := &Mapping{From: 1, To: 2}
		for i := 1; i <= 8; i++ {
			ident.Assocs = append(ident.Assocs, gam.Assoc{Object1: gam.ObjectID(i), Object2: gam.ObjectID(i)})
		}
		out, err := Compose(ident, m)
		if err != nil {
			return false
		}
		return out.Len() == m.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// referenceGenerateView is a deliberately naive nested-loop implementation
// of Figure 5 used to cross-check the production implementation.
func referenceGenerateView(repo *gam.Repo, s gam.SourceID, sSet ObjectSet, targets []TargetSpec, mode Combine) (*View, error) {
	if sSet == nil {
		objs, err := repo.ObjectsBySource(s)
		if err != nil {
			return nil, err
		}
		sSet = make(ObjectSet)
		for _, o := range objs {
			sSet[o.ID] = true
		}
	}
	rows := [][]gam.ObjectID{}
	for _, id := range sSet.Sorted() {
		rows = append(rows, []gam.ObjectID{id})
	}
	view := &View{Source: s}
	for _, tgt := range targets {
		view.Targets = append(view.Targets, tgt.Source)
		var mi *Mapping
		var err error
		if len(tgt.Path) > 0 {
			mi, err = MapPath(repo, tgt.Path)
		} else {
			mi, err = Map(repo, s, tgt.Source)
		}
		if err != nil {
			return nil, err
		}
		pairs := map[gam.ObjectID]map[gam.ObjectID]bool{}
		for _, a := range mi.Assocs {
			if !sSet[a.Object1] {
				continue
			}
			if tgt.Restrict != nil && !tgt.Restrict[a.Object2] {
				continue
			}
			if pairs[a.Object1] == nil {
				pairs[a.Object1] = map[gam.ObjectID]bool{}
			}
			pairs[a.Object1][a.Object2] = true
		}
		if tgt.Negate {
			negPairs := map[gam.ObjectID]map[gam.ObjectID]bool{}
			for id := range sSet {
				if pairs[id] != nil {
					continue
				}
				negPairs[id] = map[gam.ObjectID]bool{}
				for _, a := range mi.Assocs {
					if a.Object1 == id {
						negPairs[id][a.Object2] = true
					}
				}
				if len(negPairs[id]) == 0 {
					negPairs[id][0] = true
				}
			}
			pairs = negPairs
		}
		var next [][]gam.ObjectID
		for _, row := range rows {
			match := pairs[row[0]]
			if len(match) == 0 {
				if mode == CombineAND {
					continue
				}
				next = append(next, append(append([]gam.ObjectID{}, row...), 0))
				continue
			}
			tgtIDs := make([]gam.ObjectID, 0, len(match))
			for id := range match {
				tgtIDs = append(tgtIDs, id)
			}
			for i := 1; i < len(tgtIDs); i++ {
				for j := i; j > 0 && tgtIDs[j] < tgtIDs[j-1]; j-- {
					tgtIDs[j], tgtIDs[j-1] = tgtIDs[j-1], tgtIDs[j]
				}
			}
			for _, tid := range tgtIDs {
				next = append(next, append(append([]gam.ObjectID{}, row...), tid))
			}
		}
		rows = next
	}
	for _, r := range rows {
		view.Rows = append(view.Rows, ViewRow(r))
	}
	sortViewRows(view.Rows)
	return view, nil
}

func TestGenerateViewMatchesReference(t *testing.T) {
	f := newFixture(t)
	combos := []struct {
		targets []TargetSpec
		mode    Combine
	}{
		{[]TargetSpec{{Source: f.gene.ID}}, CombineOR},
		{[]TargetSpec{{Source: f.gene.ID}}, CombineAND},
		{[]TargetSpec{{Source: f.gene.ID}, {Source: f.unigene.ID}}, CombineOR},
		{[]TargetSpec{{Source: f.gene.ID}, {Source: f.unigene.ID}}, CombineAND},
		{[]TargetSpec{{Source: f.gene.ID, Negate: true}}, CombineOR},
		{[]TargetSpec{{Source: f.gene.ID, Restrict: NewObjectSet(f.terms[1])}, {Source: f.unigene.ID, Negate: true}}, CombineAND},
	}
	for ci, combo := range combos {
		got, err := GenerateView(f.repo, f.locus.ID, nil, combo.targets, combo.mode, nil)
		if err != nil {
			t.Fatalf("combo %d: %v", ci, err)
		}
		want, err := referenceGenerateView(f.repo, f.locus.ID, nil, combo.targets, combo.mode)
		if err != nil {
			t.Fatalf("combo %d reference: %v", ci, err)
		}
		if len(got.Rows) != len(want.Rows) {
			t.Fatalf("combo %d: %d rows vs reference %d\n got: %v\nwant: %v",
				ci, len(got.Rows), len(want.Rows), got.Rows, want.Rows)
		}
		for i := range got.Rows {
			for j := range got.Rows[i] {
				if got.Rows[i][j] != want.Rows[i][j] {
					t.Fatalf("combo %d row %d: %v vs reference %v", ci, i, got.Rows[i], want.Rows[i])
				}
			}
		}
	}
}

func TestGenerateViewRandomizedAgainstReference(t *testing.T) {
	f := newFixture(t)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		var sSet ObjectSet
		if rng.Intn(2) == 0 {
			sSet = make(ObjectSet)
			for _, id := range f.loci {
				if rng.Intn(2) == 0 {
					sSet[id] = true
				}
			}
			if len(sSet) == 0 {
				sSet[f.loci[0]] = true
			}
		}
		var targets []TargetSpec
		for _, src := range []gam.SourceID{f.gene.ID, f.unigene.ID} {
			if rng.Intn(2) == 0 {
				continue
			}
			spec := TargetSpec{Source: src, Negate: rng.Intn(3) == 0}
			targets = append(targets, spec)
		}
		if len(targets) == 0 {
			targets = []TargetSpec{{Source: f.gene.ID}}
		}
		mode := Combine(rng.Intn(2))
		got, err := GenerateView(f.repo, f.locus.ID, sSet, targets, mode, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := referenceGenerateView(f.repo, f.locus.ID, sSet, targets, mode)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) {
			t.Fatalf("trial %d diverged:\n got %v\nwant %v", trial, got.Rows, want.Rows)
		}
	}
}
