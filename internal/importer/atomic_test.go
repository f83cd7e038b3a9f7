package importer

import (
	"fmt"
	"reflect"
	"testing"

	"genmapper/internal/eav"
	"genmapper/internal/gam"
)

// taxonomyDataset is a network source with names, cross-references and an
// IS_A chain t1 <- t2 <- t3; cyclic adds t1 -> t3, closing the loop.
func taxonomyDataset(cyclic bool) *eav.Dataset {
	d := eav.NewDataset(eav.SourceInfo{Name: "Tax", Structure: "network", Release: "r1"})
	for i := 1; i <= 3; i++ {
		acc := fmt.Sprintf("t%d", i)
		d.Add(acc, eav.TargetName, "", "term "+acc)
		d.Add(acc, "LocusLink", "353", "")
	}
	d.Add("t2", eav.TargetIsA, "t1", "")
	d.Add("t3", eav.TargetIsA, "t2", "")
	if cyclic {
		d.Add("t1", eav.TargetIsA, "t3", "")
	}
	return d
}

// A dataset rejected in the last phase — after its source, objects,
// cross-references and IS_A mapping were written — leaves nothing, in the
// database or in the repository caches, and the corrected dataset then
// imports as if the failure never happened.
//
// (importStructure's own "references missing object" failure cannot be
// provoked from a valid dataset: importOwnObjects creates every structural
// endpoint. The cyclic IS_A graph fails one phase later still.)
func TestFailedImportLeavesNothing(t *testing.T) { eachMode(t, testFailedImportLeavesNothing) }

func testFailedImportLeavesNothing(t *testing.T, repo *gam.Repo) {
	if _, err := Import(repo, table1Dataset(), Options{}); err != nil {
		t.Fatal(err)
	}
	before, err := repo.Stats()
	if err != nil {
		t.Fatal(err)
	}
	gen := repo.Generation()
	locus := repo.SourceByName("LocusLink")

	bad := eav.NewDataset(eav.SourceInfo{Name: "Counts"})
	bad.Add("c1", eav.TargetNumber, "", "not a number")
	for name, d := range map[string]*eav.Dataset{"cyclic is_a": taxonomyDataset(true), "bad number": bad} {
		if _, err := Import(repo, d, Options{DeriveSubsumed: true}); err == nil {
			t.Fatalf("%s: import accepted", name)
		}
		after, err := repo.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(before, after) {
			t.Fatalf("%s: stats after failed import = %v, want %v", name, after, before)
		}
		if repo.Generation() != gen {
			t.Fatalf("%s: generation moved %d -> %d", name, gen, repo.Generation())
		}
		if s := repo.SourceByName(d.Source.Name); s != nil {
			t.Fatalf("%s: source of the failed import is still cached: %+v", name, s)
		}
		checkStats(t, repo)
	}
	// The failed import's cross-reference target row in LocusLink is gone
	// from the object cache as well (353 itself predates it).
	if id, err := repo.LookupObject(locus.ID, "353"); err != nil || id != 1 {
		t.Fatalf("LocusLink 353 = %d (%v), want the pre-existing object 1", id, err)
	}

	st, err := Import(repo, taxonomyDataset(false), Options{DeriveSubsumed: true})
	if err != nil {
		t.Fatal(err)
	}
	if !st.SourceCreated || st.ObjectsNew != 3 || st.AssocsNew != 5 || st.SubsumedAssocs != 3 {
		t.Fatalf("corrected import stats = %+v", st)
	}
	checkStats(t, repo)
	// Dense IDs: the failed imports burnt none.
	tax := repo.SourceByName("Tax")
	if want := gam.SourceID(before.Sources + 1); tax.ID != want {
		t.Fatalf("source Tax has ID %d, want %d", tax.ID, want)
	}
	if id, _ := repo.LookupObject(tax.ID, "t1"); id != gam.ObjectID(before.Objects+1) {
		t.Fatalf("object t1 has ID %d, want %d", id, before.Objects+1)
	}
	rels, err := repo.SourceRels()
	if err != nil {
		t.Fatal(err)
	}
	for i, rel := range rels {
		if rel.ID != gam.SourceRelID(i+1) {
			t.Fatalf("mapping IDs are not dense: %d at position %d", rel.ID, i)
		}
	}
	if repo.Generation() != gen+1 {
		t.Fatalf("generation = %d after one import, want %d", repo.Generation(), gen+1)
	}
}

// A Subsumed refresh that fails after the old mapping was deleted keeps
// the old mapping, ID and rows: delete, re-create and insert are one batch.
func TestDeriveSubsumedRefreshIsAtomic(t *testing.T) { eachMode(t, testDeriveSubsumedRefreshIsAtomic) }

func testDeriveSubsumedRefreshIsAtomic(t *testing.T, repo *gam.Repo) {
	if _, err := Import(repo, taxonomyDataset(false), Options{DeriveSubsumed: true}); err != nil {
		t.Fatal(err)
	}
	tax := repo.SourceByName("Tax")
	rel, ok, _ := repo.FindRel(tax.ID, tax.ID, gam.RelSubsumed)
	if !ok {
		t.Fatal("Subsumed mapping missing")
	}
	want, err := repo.Associations(rel)
	if err != nil || len(want) != 3 {
		t.Fatalf("subsumed rows = %v (%v)", want, err)
	}
	gen := repo.Generation()

	for _, stage := range []string{"after-delete", "after-insert"} {
		repo.SetReplaceMappingHook(func(s string) error {
			if s == stage {
				return fmt.Errorf("injected %s failure", s)
			}
			return nil
		})
		_, err := DeriveSubsumed(repo, tax.ID)
		repo.SetReplaceMappingHook(nil)
		if err == nil {
			t.Fatalf("%s: injected failure not reported", stage)
		}
		got, ok, _ := repo.FindRel(tax.ID, tax.ID, gam.RelSubsumed)
		if !ok || got != rel {
			t.Fatalf("%s: Subsumed mapping = %d (%v), want the old %d", stage, got, ok, rel)
		}
		if m, _ := repo.SourceRelByID(rel); m == nil {
			t.Fatalf("%s: Subsumed mapping row deleted", stage)
		}
		rows, err := repo.Associations(rel)
		if err != nil || !reflect.DeepEqual(rows, want) {
			t.Fatalf("%s: subsumed rows = %v (%v), want %v", stage, rows, err, want)
		}
		if repo.Generation() != gen {
			t.Fatalf("%s: generation moved on a failed refresh", stage)
		}
	}
	if n, err := DeriveSubsumed(repo, tax.ID); err != nil || n != 3 {
		t.Fatalf("refresh after the failures = %d (%v)", n, err)
	}
}
