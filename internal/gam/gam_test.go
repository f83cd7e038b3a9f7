package gam

import (
	"fmt"
	"sync/atomic"
	"testing"

	"genmapper/internal/sqldb"
)

func newRepo(t *testing.T) *Repo {
	t.Helper()
	r, err := Open(sqldb.NewDB())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestOpenCreatesSchema(t *testing.T) {
	db := sqldb.NewDB()
	if _, err := Open(db); err != nil {
		t.Fatal(err)
	}
	want := []string{"object", "object_rel", "source", "source_rel"}
	got := db.TableNames()
	if len(got) != len(want) {
		t.Fatalf("tables = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tables = %v, want %v", got, want)
		}
	}
	// Idempotent: opening again must not fail.
	if _, err := Open(db); err != nil {
		t.Fatalf("second Open: %v", err)
	}
}

func TestEnsureSource(t *testing.T) {
	r := newRepo(t)
	s, created, err := r.EnsureSource(Source{Name: "LocusLink", Content: ContentGene, Structure: StructureFlat, Release: "r1"})
	if err != nil {
		t.Fatal(err)
	}
	if !created || s.ID == 0 {
		t.Fatalf("created=%v id=%d", created, s.ID)
	}
	// Duplicate elimination by name (case-insensitive).
	s2, created, err := r.EnsureSource(Source{Name: "locuslink"})
	if err != nil {
		t.Fatal(err)
	}
	if created || s2.ID != s.ID {
		t.Fatalf("dup source: created=%v id=%d", created, s2.ID)
	}
	// New release updates audit info.
	s3, created, err := r.EnsureSource(Source{Name: "LocusLink", Release: "r2", Date: "2004-02-01"})
	if err != nil {
		t.Fatal(err)
	}
	if created || s3.Release != "r2" {
		t.Fatalf("audit update: created=%v release=%q", created, s3.Release)
	}
	if got := r.SourceByName("LOCUSLINK"); got == nil || got.ID != s.ID {
		t.Error("SourceByName case-insensitive lookup failed")
	}
	if got := r.SourceByID(s.ID); got == nil || got.Name != "LocusLink" {
		t.Error("SourceByID failed")
	}
	if r.SourceByName("nope") != nil {
		t.Error("unknown source should be nil")
	}
}

func TestEnsureSourceValidation(t *testing.T) {
	r := newRepo(t)
	if _, _, err := r.EnsureSource(Source{Name: ""}); err == nil {
		t.Error("empty name accepted")
	}
	if _, _, err := r.EnsureSource(Source{Name: "X", Content: "weird"}); err == nil {
		t.Error("bad content accepted")
	}
	if _, _, err := r.EnsureSource(Source{Name: "X", Structure: "weird"}); err == nil {
		t.Error("bad structure accepted")
	}
	// Empty content/structure default sensibly.
	s, _, err := r.EnsureSource(Source{Name: "Defaulted"})
	if err != nil {
		t.Fatal(err)
	}
	if s.Content != ContentOther || s.Structure != StructureFlat {
		t.Errorf("defaults = %s/%s", s.Content, s.Structure)
	}
}

func TestEnsureObjects(t *testing.T) {
	r := newRepo(t)
	s, _, _ := r.EnsureSource(Source{Name: "GO", Structure: StructureNetwork})

	specs := []ObjectSpec{
		{Accession: "GO:0001", Text: "term one"},
		{Accession: "GO:0002", Text: "term two"},
		{Accession: "GO:0001"}, // batch-internal duplicate
	}
	ids, created, err := r.EnsureObjects(s.ID, specs)
	if err != nil {
		t.Fatal(err)
	}
	if created != 2 {
		t.Fatalf("created = %d, want 2", created)
	}
	if ids[0] != ids[2] {
		t.Errorf("batch-internal dup got different IDs: %d vs %d", ids[0], ids[2])
	}
	if ids[0] == ids[1] {
		t.Error("distinct objects share an ID")
	}

	// Re-import: everything already present.
	ids2, created, err := r.EnsureObjects(s.ID, specs[:2])
	if err != nil {
		t.Fatal(err)
	}
	if created != 0 {
		t.Fatalf("re-import created %d objects", created)
	}
	if ids2[0] != ids[0] || ids2[1] != ids[1] {
		t.Error("re-import returned different IDs")
	}

	n, err := r.ObjectCount(s.ID)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("ObjectCount = %d, want 2", n)
	}
}

func TestEnsureObjectsDuplicateNotFirst(t *testing.T) {
	// Regression: a batch-internal duplicate whose first occurrence is NOT
	// at index 0 must resolve to that occurrence's ID, not to ids[0].
	r := newRepo(t)
	s, _, _ := r.EnsureSource(Source{Name: "S"})
	specs := []ObjectSpec{
		{Accession: "a"},
		{Accession: "b"},
		{Accession: "b"}, // dup of index 1
		{Accession: "c"},
		{Accession: "b"}, // dup of index 1 again
	}
	ids, created, err := r.EnsureObjects(s.ID, specs)
	if err != nil {
		t.Fatal(err)
	}
	if created != 3 {
		t.Fatalf("created = %d, want 3", created)
	}
	if ids[2] != ids[1] || ids[4] != ids[1] {
		t.Fatalf("duplicate IDs = %v; positions 2 and 4 must equal position 1", ids)
	}
	if ids[2] == ids[0] {
		t.Fatal("duplicate wrongly collapsed onto index 0")
	}
	// The stored accessions resolve back correctly.
	m, _ := r.LookupObjects(s.ID, []string{"a", "b", "c"})
	if m[0] != ids[0] || m[1] != ids[1] || m[2] != ids[3] {
		t.Fatalf("lookup mismatch: %v vs %v", m, ids)
	}
}

func TestEnsureObjectsErrors(t *testing.T) {
	r := newRepo(t)
	if _, _, err := r.EnsureObjects(999, []ObjectSpec{{Accession: "x"}}); err == nil {
		t.Error("unknown source accepted")
	}
	s, _, _ := r.EnsureSource(Source{Name: "S"})
	if _, _, err := r.EnsureObjects(s.ID, []ObjectSpec{{}}); err == nil {
		t.Error("empty accession accepted")
	}
}

func TestObjectRoundTrip(t *testing.T) {
	r := newRepo(t)
	s, _, _ := r.EnsureSource(Source{Name: "S"})
	id, _, err := r.EnsureObject(s.ID, ObjectSpec{Accession: "A1", Text: "alpha", HasNumber: true, Number: 16.24})
	if err != nil {
		t.Fatal(err)
	}
	o, err := r.Object(id)
	if err != nil {
		t.Fatal(err)
	}
	if o == nil || o.Accession != "A1" || o.Text != "alpha" || !o.HasNumber || o.Number != 16.24 {
		t.Fatalf("object = %+v", o)
	}
	missing, err := r.Object(9999)
	if err != nil {
		t.Fatal(err)
	}
	if missing != nil {
		t.Error("missing object should be nil")
	}

	objs, err := r.ObjectsBySource(s.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 1 || objs[0].ID != id {
		t.Fatalf("ObjectsBySource = %v", objs)
	}
}

func TestLookupObjects(t *testing.T) {
	r := newRepo(t)
	s, _, _ := r.EnsureSource(Source{Name: "S"})
	ids, _, err := r.EnsureObjects(s.ID, []ObjectSpec{{Accession: "a"}, {Accession: "b"}})
	if err != nil {
		t.Fatal(err)
	}
	m, err := r.LookupObjects(s.ID, []string{"a", "b", "missing"})
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 3 || m[0] != ids[0] || m[1] != ids[1] || m[2] != 0 {
		t.Fatalf("lookup = %v", m)
	}
	id, err := r.LookupObject(s.ID, "a")
	if err != nil || id != ids[0] {
		t.Fatalf("LookupObject = %d, %v", id, err)
	}
}

func TestSourceRels(t *testing.T) {
	r := newRepo(t)
	s1, _, _ := r.EnsureSource(Source{Name: "LocusLink"})
	s2, _, _ := r.EnsureSource(Source{Name: "GO"})

	rel, created, err := r.EnsureSourceRel(s1.ID, s2.ID, RelFact)
	if err != nil {
		t.Fatal(err)
	}
	if !created {
		t.Fatal("first EnsureSourceRel should create")
	}
	rel2, created, err := r.EnsureSourceRel(s1.ID, s2.ID, RelFact)
	if err != nil {
		t.Fatal(err)
	}
	if created || rel2 != rel {
		t.Fatalf("dup mapping: created=%v id=%d want %d", created, rel2, rel)
	}
	// Different type is a different mapping.
	rel3, created, err := r.EnsureSourceRel(s1.ID, s2.ID, RelComposed)
	if err != nil {
		t.Fatal(err)
	}
	if !created || rel3 == rel {
		t.Fatal("different type should create a new mapping")
	}

	if _, _, err := r.EnsureSourceRel(s1.ID, 999, RelFact); err == nil {
		t.Error("unknown target source accepted")
	}
	if _, _, err := r.EnsureSourceRel(s1.ID, s2.ID, "bogus"); err == nil {
		t.Error("bogus rel type accepted")
	}

	sr, err := r.SourceRelByID(rel)
	if err != nil {
		t.Fatal(err)
	}
	if sr == nil || sr.Source1 != s1.ID || sr.Source2 != s2.ID || sr.Type != RelFact {
		t.Fatalf("SourceRelByID = %+v", sr)
	}
	all, err := r.SourceRels()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 {
		t.Fatalf("SourceRels = %d, want 2", len(all))
	}
}

func TestFindMappingDirectionAndPreference(t *testing.T) {
	r := newRepo(t)
	a, _, _ := r.EnsureSource(Source{Name: "A"})
	b, _, _ := r.EnsureSource(Source{Name: "B"})
	c, _, _ := r.EnsureSource(Source{Name: "C"})

	relAB, _, _ := r.EnsureSourceRel(a.ID, b.ID, RelSimilarity)
	// Reversed direction must be found too.
	found, reversed, err := r.FindMapping(b.ID, a.ID)
	if err != nil {
		t.Fatal(err)
	}
	if found == nil || found.ID != relAB || !reversed {
		t.Fatalf("reverse find = %+v reversed=%v", found, reversed)
	}
	// Fact is preferred over Similarity.
	relABFact, _, _ := r.EnsureSourceRel(a.ID, b.ID, RelFact)
	found, reversed, err = r.FindMapping(a.ID, b.ID)
	if err != nil {
		t.Fatal(err)
	}
	if found.ID != relABFact || reversed {
		t.Fatalf("preference find = %+v", found)
	}
	// No mapping between a and c.
	found, _, err = r.FindMapping(a.ID, c.ID)
	if err != nil {
		t.Fatal(err)
	}
	if found != nil {
		t.Fatalf("unexpected mapping %+v", found)
	}
}

func TestAssociations(t *testing.T) {
	r := newRepo(t)
	s1, _, _ := r.EnsureSource(Source{Name: "A"})
	s2, _, _ := r.EnsureSource(Source{Name: "B"})
	ids1, _, _ := r.EnsureObjects(s1.ID, []ObjectSpec{{Accession: "a1"}, {Accession: "a2"}})
	ids2, _, _ := r.EnsureObjects(s2.ID, []ObjectSpec{{Accession: "b1"}, {Accession: "b2"}})
	rel, _, _ := r.EnsureSourceRel(s1.ID, s2.ID, RelFact)

	assocs := []Assoc{
		{Object1: ids1[0], Object2: ids2[0], Evidence: 0.9},
		{Object1: ids1[0], Object2: ids2[1]},
		{Object1: ids1[1], Object2: ids2[1]},
		{Object1: ids1[1], Object2: ids2[1]}, // duplicate in batch
	}
	n, err := r.AddAssociations(rel, assocs, true)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("inserted %d, want 3 (dup collapsed)", n)
	}
	// Re-adding with dedup inserts nothing.
	n, err = r.AddAssociations(rel, assocs, true)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("re-insert with dedup added %d", n)
	}
	got, err := r.Associations(rel)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("associations = %d", len(got))
	}
	if got[0].Evidence != 0.9 {
		t.Errorf("evidence = %v", got[0].Evidence)
	}
	if got[1].Evidence != 0 {
		t.Errorf("unset evidence = %v", got[1].Evidence)
	}
	cnt, err := r.AssociationCount(rel)
	if err != nil || cnt != 3 {
		t.Fatalf("AssociationCount = %d, %v", cnt, err)
	}
	total, err := r.AssociationCount(0)
	if err != nil || total != 3 {
		t.Fatalf("total AssociationCount = %d, %v", total, err)
	}
}

func TestDeleteMapping(t *testing.T) {
	r := newRepo(t)
	s1, _, _ := r.EnsureSource(Source{Name: "A"})
	s2, _, _ := r.EnsureSource(Source{Name: "B"})
	o1, _, _ := r.EnsureObject(s1.ID, ObjectSpec{Accession: "a"})
	o2, _, _ := r.EnsureObject(s2.ID, ObjectSpec{Accession: "b"})
	rel, _, _ := r.EnsureSourceRel(s1.ID, s2.ID, RelComposed)
	if _, err := r.AddAssociations(rel, []Assoc{{Object1: o1, Object2: o2}}, false); err != nil {
		t.Fatal(err)
	}
	if err := r.DeleteMapping(rel); err != nil {
		t.Fatal(err)
	}
	cnt, _ := r.AssociationCount(rel)
	if cnt != 0 {
		t.Fatalf("associations survived delete: %d", cnt)
	}
	// The mapping can be re-created after deletion.
	rel2, created, err := r.EnsureSourceRel(s1.ID, s2.ID, RelComposed)
	if err != nil || !created {
		t.Fatalf("re-create after delete: created=%v err=%v", created, err)
	}
	if rel2 == rel {
		t.Error("recreated mapping should have a new ID")
	}
}

func TestStats(t *testing.T) {
	r := newRepo(t)
	s1, _, _ := r.EnsureSource(Source{Name: "A"})
	s2, _, _ := r.EnsureSource(Source{Name: "B"})
	ids1, _, _ := r.EnsureObjects(s1.ID, []ObjectSpec{{Accession: "a1"}, {Accession: "a2"}})
	ids2, _, _ := r.EnsureObjects(s2.ID, []ObjectSpec{{Accession: "b1"}})
	relF, _, _ := r.EnsureSourceRel(s1.ID, s2.ID, RelFact)
	relC, _, _ := r.EnsureSourceRel(s1.ID, s1.ID, RelIsA)
	r.AddAssociations(relF, []Assoc{{Object1: ids1[0], Object2: ids2[0]}, {Object1: ids1[1], Object2: ids2[0]}}, false)
	r.AddAssociations(relC, []Assoc{{Object1: ids1[0], Object2: ids1[1]}}, false)

	st, err := r.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Sources != 2 || st.Objects != 3 || st.Mappings != 2 || st.Associations != 3 {
		t.Fatalf("stats = %+v", st)
	}
	if st.ByType[RelFact] != 2 || st.ByType[RelIsA] != 1 {
		t.Fatalf("by type = %v", st.ByType)
	}
	if st.String() == "" {
		t.Error("empty stats string")
	}
}

func TestRelTypeHelpers(t *testing.T) {
	if !RelComposed.IsDerived() || !RelSubsumed.IsDerived() {
		t.Error("derived classification wrong")
	}
	if RelFact.IsDerived() || RelIsA.IsDerived() {
		t.Error("non-derived misclassified")
	}
	if !RelIsA.IsStructural() || !RelContains.IsStructural() {
		t.Error("structural classification wrong")
	}
	if RelFact.IsStructural() {
		t.Error("fact is not structural")
	}
}

func TestRepoReopenKeepsData(t *testing.T) {
	db := sqldb.NewDB()
	r1, err := Open(db)
	if err != nil {
		t.Fatal(err)
	}
	s, _, _ := r1.EnsureSource(Source{Name: "Persist"})
	r1.EnsureObject(s.ID, ObjectSpec{Accession: "x"})

	// A second repo over the same database adopts existing data.
	r2, err := Open(db)
	if err != nil {
		t.Fatal(err)
	}
	got := r2.SourceByName("Persist")
	if got == nil || got.ID != s.ID {
		t.Fatal("reopened repo lost sources")
	}
	id, err := r2.LookupObject(s.ID, "x")
	if err != nil || id == 0 {
		t.Fatalf("reopened repo lost objects: %d, %v", id, err)
	}
}

func TestBulkScale(t *testing.T) {
	if testing.Short() {
		t.Skip("bulk test skipped in -short mode")
	}
	r := newRepo(t)
	s, _, _ := r.EnsureSource(Source{Name: "Bulk"})
	specs := make([]ObjectSpec, 5000)
	for i := range specs {
		specs[i] = ObjectSpec{Accession: fmt.Sprintf("OBJ:%05d", i)}
	}
	ids, created, err := r.EnsureObjects(s.ID, specs)
	if err != nil {
		t.Fatal(err)
	}
	if created != 5000 {
		t.Fatalf("created = %d", created)
	}
	unique := make(map[ObjectID]bool, len(ids))
	for _, id := range ids {
		unique[id] = true
	}
	if len(unique) != 5000 {
		t.Fatalf("non-unique IDs: %d", len(unique))
	}
}

// The streaming iteration APIs must visit the same data the materializing
// accessors return, in the same order, and stop early on callback error.
func TestStreamingIterationAPIs(t *testing.T) {
	r := newRepo(t)
	s1, _, _ := r.EnsureSource(Source{Name: "A", Content: ContentGene})
	s2, _, _ := r.EnsureSource(Source{Name: "B", Content: ContentGene})
	var specs []ObjectSpec
	for i := 0; i < 50; i++ {
		specs = append(specs, ObjectSpec{Accession: fmt.Sprintf("a%03d", i), Text: fmt.Sprintf("t%d", i)})
	}
	ids1, _, err := r.EnsureObjects(s1.ID, specs)
	if err != nil {
		t.Fatal(err)
	}
	ids2, _, err := r.EnsureObjects(s2.ID, specs)
	if err != nil {
		t.Fatal(err)
	}
	rel, _, err := r.EnsureSourceRel(s1.ID, s2.ID, RelFact)
	if err != nil {
		t.Fatal(err)
	}
	var assocs []Assoc
	for i := range ids1 {
		assocs = append(assocs, Assoc{Object1: ids1[i], Object2: ids2[i], Evidence: float64(i%3) / 2})
	}
	if _, err := r.AddAssociations(rel, assocs, false); err != nil {
		t.Fatal(err)
	}

	want, err := r.Associations(rel)
	if err != nil {
		t.Fatal(err)
	}
	var streamed []Assoc
	if err := r.AssociationsEach(rel, func(a Assoc) error {
		streamed = append(streamed, a)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(streamed) != fmt.Sprint(want) {
		t.Fatalf("AssociationsEach mismatch:\n got %v\nwant %v", streamed, want)
	}

	wantObjs, err := r.ObjectsBySource(s1.ID)
	if err != nil {
		t.Fatal(err)
	}
	var gotObjs []Object
	if err := r.ObjectsBySourceEach(s1.ID, func(o *Object) error {
		gotObjs = append(gotObjs, *o) // must copy: o is reused
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(gotObjs) != len(wantObjs) {
		t.Fatalf("ObjectsBySourceEach = %d objects, want %d", len(gotObjs), len(wantObjs))
	}
	for i := range gotObjs {
		if gotObjs[i] != *wantObjs[i] {
			t.Fatalf("object %d = %+v, want %+v", i, gotObjs[i], *wantObjs[i])
		}
	}

	// Early stop: the callback error propagates and iteration halts.
	n := 0
	errStop := fmt.Errorf("stop")
	if err := r.AssociationsEach(rel, func(Assoc) error {
		n++
		if n == 5 {
			return errStop
		}
		return nil
	}); err != errStop {
		t.Fatalf("early-stop error = %v, want errStop", err)
	}
	if n != 5 {
		t.Fatalf("iterated %d rows after stop, want 5", n)
	}
}

// AssociationsEach must stream one consistent statement snapshot: while a
// concurrent ReplaceMapping swaps the association set between A and B, a
// reader may observe all-A, all-B, or the empty mid-transaction state —
// never a torn half-A/half-B mix.
func TestAssociationsEachSnapshotUnderReplace(t *testing.T) {
	r := newRepo(t)
	s1, _, _ := r.EnsureSource(Source{Name: "A", Content: ContentGene})
	s2, _, _ := r.EnsureSource(Source{Name: "B", Content: ContentGene})
	mkSpecs := func(n int) []ObjectSpec {
		specs := make([]ObjectSpec, n)
		for i := range specs {
			specs[i] = ObjectSpec{Accession: fmt.Sprintf("o%04d", i)}
		}
		return specs
	}
	ids1, _, _ := r.EnsureObjects(s1.ID, mkSpecs(150))
	ids2, _, _ := r.EnsureObjects(s2.ID, mkSpecs(150))
	mkAssocs := func(ev float64) []Assoc {
		out := make([]Assoc, len(ids1))
		for i := range ids1 {
			out[i] = Assoc{Object1: ids1[i], Object2: ids2[i], Evidence: ev}
		}
		return out
	}
	setA, setB := mkAssocs(0.25), mkAssocs(0.75)

	first, err := r.ReplaceMapping(s1.ID, s2.ID, RelComposed, setA)
	if err != nil {
		t.Fatal(err)
	}
	var rel atomic.Int64
	rel.Store(int64(first))
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 40; i++ {
			set := setA
			if i%2 == 0 {
				set = setB
			}
			id, err := r.ReplaceMapping(s1.ID, s2.ID, RelComposed, set)
			if err != nil {
				t.Error(err)
				return
			}
			rel.Store(int64(id))
		}
	}()
	for i := 0; i < 200; i++ {
		var evs []float64
		if err := r.AssociationsEach(SourceRelID(rel.Load()), func(a Assoc) error {
			evs = append(evs, a.Evidence)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for _, ev := range evs {
			if ev != evs[0] {
				t.Fatalf("torn association snapshot: mixed evidence %v and %v in one read", evs[0], ev)
			}
		}
	}
	<-done
}
