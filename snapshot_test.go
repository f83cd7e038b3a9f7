package genmapper

import (
	"fmt"
	"testing"

	"genmapper/internal/gam"
)

// Readers beside an open gam batch see the repository exactly as it was
// before the batch — through the SQL engine, the maintained Stats and the
// mapping executor alike — and once the batch commits the executor serves
// the new rows, not anything it loaded while the batch was open. The batch
// is a ReplaceMapping held open after it deleted the old associations and
// inserted the new ones.
func TestReadersNeverSeeAnOpenBatch(t *testing.T) {
	sys, err := New()
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	repo := sys.Repo()
	a, _, err := repo.EnsureSource(gam.Source{Name: "A", Content: gam.ContentGene})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := repo.EnsureSource(gam.Source{Name: "B"})
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]gam.ObjectSpec, 9)
	for i := range specs {
		specs[i] = gam.ObjectSpec{Accession: fmt.Sprintf("acc%d", i)}
	}
	idsA, _, err := repo.EnsureObjects(a.ID, specs)
	if err != nil {
		t.Fatal(err)
	}
	idsB, _, err := repo.EnsureObjects(b.ID, specs)
	if err != nil {
		t.Fatal(err)
	}
	assocs := func(n int, ev float64) []gam.Assoc {
		out := make([]gam.Assoc, n)
		for i := range out {
			out[i] = gam.Assoc{Object1: idsA[i], Object2: idsB[i], Evidence: ev}
		}
		return out
	}
	if _, err := repo.ReplaceMapping(a.ID, b.ID, gam.RelSimilarity, assocs(5, 0.5)); err != nil {
		t.Fatal(err)
	}
	path := []gam.SourceID{a.ID, b.ID}

	// check asserts what a reader outside the batch observes: n
	// associations of evidence ev, through every read surface.
	check := func(when string, n int, ev float64) {
		t.Helper()
		rs, err := sys.DB().Query("SELECT COUNT(*) FROM object_rel")
		if err != nil {
			t.Fatal(err)
		}
		if got := rs.Rows[0][0]; got != int64(n) {
			t.Errorf("%s: SELECT COUNT(*) FROM object_rel = %v, want %d", when, got, n)
		}
		st, err := repo.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.Associations != int64(n) || st.ByType[gam.RelSimilarity] != int64(n) {
			t.Errorf("%s: Stats = %s, want %d Similarity associations", when, st, n)
		}
		m, err := sys.Executor().MapPath(path)
		if err != nil {
			t.Fatalf("%s: MapPath: %v", when, err)
		}
		if len(m.Assocs) != n {
			t.Fatalf("%s: MapPath returned %d associations, want %d", when, len(m.Assocs), n)
		}
		for _, as := range m.Assocs {
			if as.Evidence != ev {
				t.Fatalf("%s: MapPath returned evidence %v, want %v", when, as.Evidence, ev)
			}
		}
	}

	reached, release := make(chan struct{}), make(chan struct{})
	repo.SetReplaceMappingHook(func(stage string) error {
		if stage == "after-insert" {
			close(reached)
			<-release
		}
		return nil
	})
	done := make(chan error, 1)
	go func() {
		_, err := repo.ReplaceMapping(a.ID, b.ID, gam.RelSimilarity, assocs(9, 0.9))
		done <- err
	}()
	<-reached
	check("while the batch is open", 5, 0.5)
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	repo.SetReplaceMappingHook(nil)
	check("after the commit", 9, 0.9)
}
