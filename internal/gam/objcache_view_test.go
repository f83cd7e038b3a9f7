package gam_test

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"genmapper/internal/gam"
	"genmapper/internal/ops"
	"genmapper/internal/sqldb"
	"genmapper/internal/view"
)

func openRepo(t *testing.T) *gam.Repo {
	t.Helper()
	r, err := gam.Open(sqldb.NewDB())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// selfView is a view of a source onto itself: each row shows one object
// in both columns.
func selfView(src gam.SourceID, ids ...gam.ObjectID) *ops.View {
	v := &ops.View{Source: src, Targets: []gam.SourceID{src}}
	for _, id := range ids {
		v.Rows = append(v.Rows, ops.ViewRow{id, id})
	}
	return v
}

func renderCells(t *testing.T, r *gam.Repo, v *ops.View) string {
	t.Helper()
	tbl, err := view.Render(r, v, view.Options{WithText: true})
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprint(tbl.Rows)
}

// A view rendered with text before a fill shows the bare accession, one
// rendered after it the filled text.
func TestObjectCacheViewSeesFill(t *testing.T) {
	r := openRepo(t)
	s, _, err := r.EnsureSource(gam.Source{Name: "S"})
	if err != nil {
		t.Fatal(err)
	}
	x, _, err := r.EnsureObject(s.ID, gam.ObjectSpec{Accession: "x"})
	if err != nil {
		t.Fatal(err)
	}
	v := selfView(s.ID, x)
	if got := renderCells(t, r, v); got != "[[x x]]" {
		t.Fatalf("before the fill: %s", got)
	}
	if n, err := r.FillMissingObjectInfo(s.ID, []gam.ObjectSpec{{Accession: "x", Text: "T"}}); err != nil || n != 1 {
		t.Fatalf("fill = %d, %v", n, err)
	}
	if got := renderCells(t, r, v); got != "[[x (T) x (T)]]" {
		t.Fatalf("after the fill: %s", got)
	}
}

// The documented rule for writes around gam: a row Object has read stays
// served as read until Reload; after it, a deleted row is gone and a view
// over it reports the dangling ID.
func TestObjectCacheWriteAroundGamUntilReload(t *testing.T) {
	r := openRepo(t)
	s, _, err := r.EnsureSource(gam.Source{Name: "S"})
	if err != nil {
		t.Fatal(err)
	}
	x, _, err := r.EnsureObject(s.ID, gam.ObjectSpec{Accession: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if o, err := r.Object(x); err != nil || o == nil {
		t.Fatalf("Object = %+v, %v", o, err)
	}
	if _, err := r.DB().Exec("DELETE FROM object WHERE object_id = ?", int64(x)); err != nil {
		t.Fatal(err)
	}
	if o, err := r.Object(x); err != nil || o == nil || o.Accession != "x" {
		t.Fatalf("Object after a delete around gam = %+v, %v; want the cached row", o, err)
	}
	if err := r.Reload(); err != nil {
		t.Fatal(err)
	}
	if o, err := r.Object(x); err != nil || o != nil {
		t.Fatalf("Object after Reload = %+v, %v; want nil", o, err)
	}
	var out strings.Builder
	err = view.Stream(r, selfView(s.ID, x), view.Options{}, &out, "tsv", 0, nil)
	if err == nil || !strings.Contains(err.Error(), "dangling object id") {
		t.Fatalf("Stream after Reload = %v, want a dangling object id", err)
	}
}

// TestObjectCacheBesideFills runs readers (Object, and Render with text)
// beside a writer that fills bare objects, one round per batch, back to
// back: each fill retires the cache while readers are re-reading the next
// round's still bare rows. A reader never sees a row's text disappear
// again, the writer sees each round's text right after its fill, and
// afterwards every ID's row equals its row in the database.
func TestObjectCacheBesideFills(t *testing.T) {
	r := openRepo(t)
	s, _, err := r.EnsureSource(gam.Source{Name: "S"})
	if err != nil {
		t.Fatal(err)
	}
	const rounds, perRound, readers = 60, 4, 3
	specs := make([]gam.ObjectSpec, rounds*perRound)
	for i := range specs {
		specs[i] = gam.ObjectSpec{Accession: fmt.Sprintf("o%d", i)}
	}
	ids, _, err := r.EnsureObjects(s.ID, specs)
	if err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	halt := func() { stop.Store(true); wg.Wait() }
	defer halt() // a failing writer still stops the readers
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			filled := make(map[gam.ObjectID]bool)
			for n := 0; !stop.Load(); n++ {
				for _, id := range ids {
					o, err := r.Object(id)
					if err != nil {
						t.Error(err)
						return
					}
					if o.Text != "" {
						filled[id] = true
					} else if filled[id] {
						t.Errorf("reader %d: object %d lost its text", i, id)
						return
					}
				}
				v := selfView(s.ID, ids[n%len(ids)], ids[(n+i)%len(ids)])
				if _, err := view.Render(r, v, view.Options{WithText: true}); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	for k := 0; k < rounds; k++ {
		round := specs[k*perRound : (k+1)*perRound]
		for i := range round {
			round[i].Text = fmt.Sprintf("text %s", round[i].Accession)
			round[i].HasNumber, round[i].Number = true, float64(k)
		}
		if n, err := r.FillMissingObjectInfo(s.ID, round); err != nil || n != perRound {
			t.Fatalf("fill round %d = %d, %v", k, n, err)
		}
		for _, id := range ids[k*perRound : (k+1)*perRound] {
			if o, err := r.Object(id); err != nil || o.Text == "" {
				t.Fatalf("round %d: Object(%d) = %+v, %v right after its fill", k, id, o, err)
			}
		}
	}
	halt()
	for _, id := range ids {
		got, err := r.Object(id)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := r.DB().Query("SELECT object_id, source_id, accession, text, number FROM object WHERE object_id = ?", int64(id))
		if err != nil || len(rs.Rows) != 1 {
			t.Fatalf("row %d: %v, %v", id, rs, err)
		}
		row := rs.Rows[0]
		want := &gam.Object{ID: id, Source: s.ID, Accession: row[2].(string), Text: row[3].(string),
			HasNumber: true, Number: row[4].(float64)}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Object(%d) = %+v, database has %+v", id, got, want)
		}
	}
}
