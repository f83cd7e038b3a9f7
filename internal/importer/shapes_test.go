package importer

import (
	"testing"

	"genmapper/internal/gam"
	"genmapper/internal/gen"
)

// TestInsertShapesAreBounded: bulk writes are cut over gam's fixed ladder of
// INSERT sizes, all prepared by gam.Open, so a whole universe — 62 sources
// with every tail length between 1 and 199 somewhere — adds no statement
// text to the engine's cache (the 18 ladder texts stay the only bulk
// INSERTs in it), and one more source on the warm repository is imported
// without a single statement-cache miss, i.e. without parsing anything.
func TestInsertShapesAreBounded(t *testing.T) { eachMode(t, testInsertShapesAreBounded) }

func testInsertShapesAreBounded(t *testing.T, repo *gam.Repo) {
	uni := gen.NewUniverse(gen.Config{Seed: 3, Scale: 0.002})
	names := uni.Names()
	last := names[len(names)-1]
	opened := repo.DB().StmtCacheStats()
	for _, name := range names[:len(names)-1] {
		d, err := uni.Dataset(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Import(repo, d, Options{DeriveSubsumed: true}); err != nil {
			t.Fatalf("import %s: %v", name, err)
		}
	}
	warm := repo.DB().StmtCacheStats()
	if warm.Entries != opened.Entries {
		t.Errorf("importing %d sources grew the statement cache from %d to %d texts; every statement of an import should be one gam.Open prepared",
			len(names)-1, opened.Entries, warm.Entries)
	}
	d, err := uni.Dataset(last)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Import(repo, d, Options{DeriveSubsumed: true}); err != nil {
		t.Fatalf("import %s: %v", last, err)
	}
	if after := repo.DB().StmtCacheStats(); after.Misses != warm.Misses {
		t.Errorf("importing one more source missed the statement cache %d times, want 0", after.Misses-warm.Misses)
	}
}
