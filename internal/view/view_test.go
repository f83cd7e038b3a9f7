package view

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"testing"

	"genmapper/internal/gam"
	"genmapper/internal/ops"
	"genmapper/internal/sqldb"
)

func setup(t *testing.T) (*gam.Repo, *ops.View) {
	t.Helper()
	repo, err := gam.Open(sqldb.NewDB())
	if err != nil {
		t.Fatal(err)
	}
	ll, _, _ := repo.EnsureSource(gam.Source{Name: "LocusLink", Content: gam.ContentGene})
	goSrc, _, _ := repo.EnsureSource(gam.Source{Name: "GO", Structure: gam.StructureNetwork})
	loci, _, _ := repo.EnsureObjects(ll.ID, []gam.ObjectSpec{
		{Accession: "353", Text: "adenine phosphoribosyltransferase"},
		{Accession: "354"},
	})
	terms, _, _ := repo.EnsureObjects(goSrc.ID, []gam.ObjectSpec{
		{Accession: "GO:0009116", Text: "nucleoside metabolism"},
	})
	v := &ops.View{
		Source:  ll.ID,
		Targets: []gam.SourceID{goSrc.ID},
		Rows: []ops.ViewRow{
			{loci[0], terms[0]},
			{loci[1], 0}, // NULL annotation
		},
	}
	return repo, v
}

func TestRenderBasic(t *testing.T) {
	repo, v := setup(t)
	tbl, err := Render(repo, v, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(tbl.Columns, ",") != "LocusLink,GO" {
		t.Errorf("columns = %v", tbl.Columns)
	}
	if tbl.RowCount() != 2 {
		t.Fatalf("rows = %d", tbl.RowCount())
	}
	if tbl.Rows[0][0] != "353" || tbl.Rows[0][1] != "GO:0009116" {
		t.Errorf("row 0 = %v", tbl.Rows[0])
	}
	if tbl.Rows[1][1] != "" {
		t.Errorf("NULL cell = %q", tbl.Rows[1][1])
	}
}

func TestRenderWithTextAndNullText(t *testing.T) {
	repo, v := setup(t)
	tbl, err := Render(repo, v, Options{WithText: true, NullText: "-"})
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Rows[0][0] != "353 (adenine phosphoribosyltransferase)" {
		t.Errorf("with-text cell = %q", tbl.Rows[0][0])
	}
	if tbl.Rows[0][1] != "GO:0009116 (nucleoside metabolism)" {
		t.Errorf("with-text target = %q", tbl.Rows[0][1])
	}
	// Object without text renders as plain accession.
	if tbl.Rows[1][0] != "354" {
		t.Errorf("textless cell = %q", tbl.Rows[1][0])
	}
	if tbl.Rows[1][1] != "-" {
		t.Errorf("null text = %q", tbl.Rows[1][1])
	}
}

func TestRenderErrors(t *testing.T) {
	repo, v := setup(t)
	bad := &ops.View{Source: 999, Targets: v.Targets}
	if _, err := Render(repo, bad, Options{}); err == nil {
		t.Error("unknown source accepted")
	}
	bad2 := &ops.View{Source: v.Source, Targets: []gam.SourceID{999}}
	if _, err := Render(repo, bad2, Options{}); err == nil {
		t.Error("unknown target accepted")
	}
	bad3 := &ops.View{Source: v.Source, Targets: v.Targets, Rows: []ops.ViewRow{{123456, 0}}}
	if _, err := Render(repo, bad3, Options{}); err == nil {
		t.Error("dangling object accepted")
	}
}

func renderedTable(t *testing.T) *Table {
	t.Helper()
	repo, v := setup(t)
	tbl, err := Render(repo, v, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestWriteTSV(t *testing.T) {
	tbl := renderedTable(t)
	var buf bytes.Buffer
	if err := tbl.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("TSV lines = %d", len(lines))
	}
	if lines[0] != "LocusLink\tGO" {
		t.Errorf("header = %q", lines[0])
	}
	if lines[1] != "353\tGO:0009116" {
		t.Errorf("row = %q", lines[1])
	}
}

func TestWriteCSV(t *testing.T) {
	tbl := renderedTable(t)
	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 3 || records[0][0] != "LocusLink" || records[1][1] != "GO:0009116" {
		t.Fatalf("CSV = %v", records)
	}
}

func TestWriteJSON(t *testing.T) {
	tbl := renderedTable(t)
	var buf bytes.Buffer
	if err := tbl.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got Table
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 2 || got.Columns[1] != "GO" {
		t.Fatalf("JSON round trip = %+v", got)
	}
}

func TestWriteText(t *testing.T) {
	tbl := renderedTable(t)
	var buf bytes.Buffer
	if err := tbl.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "LocusLink") || !strings.Contains(out, "---") {
		t.Errorf("text output:\n%s", out)
	}
	// Columns align: header width >= longest cell.
	lines := strings.Split(out, "\n")
	if !strings.HasPrefix(lines[2], "353 ") {
		t.Errorf("data line = %q", lines[2])
	}
}

func TestWriteDispatch(t *testing.T) {
	tbl := renderedTable(t)
	for _, format := range []string{"text", "tsv", "csv", "json", ""} {
		var buf bytes.Buffer
		if err := tbl.Write(&buf, format); err != nil {
			t.Errorf("format %q: %v", format, err)
		}
		if buf.Len() == 0 {
			t.Errorf("format %q produced no output", format)
		}
	}
	var buf bytes.Buffer
	if err := tbl.Write(&buf, "xml"); err == nil {
		t.Error("unknown format accepted")
	}
}

// Stream and Render+Write share one formatting engine; their outputs must
// be byte-identical in every format, including the JSON document layout
// the non-streaming encoder produced historically.
func TestStreamMatchesMaterializedWrite(t *testing.T) {
	repo, v := setup(t)
	for _, format := range []string{"tsv", "csv", "json", "text"} {
		tbl, err := Render(repo, v, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := tbl.Write(&want, format); err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := Stream(repo, v, Options{}, &got, format, 1, nil); err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		if got.String() != want.String() {
			t.Errorf("%s: streamed output differs:\n--- stream ---\n%s\n--- write ---\n%s",
				format, got.String(), want.String())
		}
	}
}

// The incremental JSON writer must reproduce encoding/json's indented
// encoding of the Table struct exactly, for populated and empty views.
func TestStreamJSONByteParity(t *testing.T) {
	repo, v := setup(t)
	for _, view := range []*ops.View{v, {Source: v.Source, Targets: v.Targets}} {
		tbl, err := Render(repo, view, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		enc.SetIndent("", "  ")
		if err := enc.Encode(tbl); err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := Stream(repo, view, Options{}, &got, "json", 0, nil); err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Errorf("rows=%d: JSON differs:\n--- stream ---\n%q\n--- encoder ---\n%q",
				len(view.Rows), got.String(), want.String())
		}
	}
}

// The flush hook fires periodically and once at the end.
func TestStreamFlushHook(t *testing.T) {
	repo, v := setup(t)
	flushes := 0
	var buf bytes.Buffer
	if err := Stream(repo, v, Options{}, &buf, "tsv", 1, func() error {
		flushes++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// 2 rows with flushEvery=1 → 2 periodic + 1 final.
	if flushes != 3 {
		t.Errorf("flushes = %d, want 3", flushes)
	}
}

// writeCounter records each Write it gets.
type writeCounter struct {
	bytes.Buffer
	writes []int
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes = append(w.writes, len(p))
	return w.Buffer.Write(p)
}

// A tsv stream sends its header at once and its rows in writes of about
// writeChunk bytes, not one write a row; where Stream flushes changes
// only how the bytes are cut, never the bytes.
func TestStreamTSVChunks(t *testing.T) {
	repo, src, ids := bigSource(t, 2048)
	v := tailView(src, ids, 2048)
	var want string
	for _, every := range []int{0, 1, 512} {
		var w writeCounter
		if err := Stream(repo, v, Options{}, &w, "tsv", every, func() error { return nil }); err != nil {
			t.Fatal(err)
		}
		if every == 0 {
			want = w.String()
			if head := len("Big\tBig\n"); w.writes[0] != head {
				t.Fatalf("first write is %d bytes, want the %d-byte header alone", w.writes[0], head)
			}
			if max := (w.Len()+writeChunk-1)/writeChunk + 2; len(w.writes) > max {
				t.Fatalf("%d rows, %d bytes in %d writes, want <= %d", len(v.Rows), w.Len(), len(w.writes), max)
			}
			continue
		}
		if w.String() != want {
			t.Fatalf("flushEvery %d: the body differs from flushEvery 0's", every)
		}
	}
}

// A render failure on the first row must surface before any byte is
// written (so HTTP handlers can still send a clean error status).
func TestStreamFirstRowErrorWritesNothing(t *testing.T) {
	repo, v := setup(t)
	bad := &ops.View{Source: v.Source, Targets: v.Targets, Rows: []ops.ViewRow{{123456, 0}}}
	var buf bytes.Buffer
	if err := Stream(repo, bad, Options{}, &buf, "tsv", 0, nil); err == nil {
		t.Fatal("dangling first row streamed without error")
	}
	if buf.Len() != 0 {
		t.Fatalf("stream wrote %d bytes before failing on row 0: %q", buf.Len(), buf.String())
	}
}

// Materialized tables keep encoding/json's nil-vs-empty Rows distinction.
func TestWriteJSONEmptyRowsShape(t *testing.T) {
	for _, tc := range []struct {
		rows [][]string
		want string
	}{
		{nil, "null"},
		{[][]string{}, "[]"},
	} {
		tbl := &Table{Columns: []string{"A"}, Rows: tc.rows}
		var got, want bytes.Buffer
		if err := tbl.WriteJSON(&got); err != nil {
			t.Fatal(err)
		}
		enc := json.NewEncoder(&want)
		enc.SetIndent("", "  ")
		if err := enc.Encode(tbl); err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Errorf("rows=%#v: WriteJSON = %q, encoder = %q", tc.rows, got.String(), want.String())
		}
		if !strings.Contains(got.String(), `"rows": `+tc.want) {
			t.Errorf("rows=%#v: output %q missing %q", tc.rows, got.String(), tc.want)
		}
	}
}

// bigSource returns a repository with one source of n objects and their
// IDs in creation order.
func bigSource(t *testing.T, n int) (*gam.Repo, gam.SourceID, []gam.ObjectID) {
	t.Helper()
	repo, err := gam.Open(sqldb.NewDB())
	if err != nil {
		t.Fatal(err)
	}
	src, _, err := repo.EnsureSource(gam.Source{Name: "Big", Content: gam.ContentGene})
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]gam.ObjectSpec, n)
	for i := range specs {
		specs[i] = gam.ObjectSpec{Accession: fmt.Sprintf("B:%05d", i)}
	}
	ids, _, err := repo.EnsureObjects(src.ID, specs)
	if err != nil {
		t.Fatal(err)
	}
	return repo, src.ID, ids
}

// tailView is a view of the source onto itself over the last rows objects
// of ids, newest first.
func tailView(src gam.SourceID, ids []gam.ObjectID, rows int) *ops.View {
	v := &ops.View{Source: src, Targets: []gam.SourceID{src}}
	for i := 0; i < rows; i++ {
		id := ids[len(ids)-1-i]
		v.Rows = append(v.Rows, ops.ViewRow{id, id})
	}
	return v
}

// A large view (2 048 rows over the tail of a 10 000-object source) streams
// byte for byte what Render and Write produce, from a cold object cache.
func TestStreamPreloadBudgetFallback(t *testing.T) {
	const objects = 10000
	repo, src, ids := bigSource(t, objects)
	v := tailView(src, ids, 2048)
	var streamed bytes.Buffer
	if err := Stream(repo, v, Options{}, &streamed, "tsv", 0, nil); err != nil {
		t.Fatal(err)
	}
	tbl, err := Render(repo, v, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := tbl.Write(&want, "tsv"); err != nil {
		t.Fatal(err)
	}
	if streamed.String() != want.String() {
		t.Fatal("large-view stream differs from materialized render")
	}
	if !strings.Contains(streamed.String(), fmt.Sprintf("B:%05d", objects-1)) {
		t.Fatal("expected tail accession missing from output")
	}
}

// A warm Stream of a large view runs no SQL statement, and what it
// allocates does not grow with its rows: every cell is a shared row of
// gam's object cache.
func TestWarmStreamRunsNoSQL(t *testing.T) {
	repo, src, ids := bigSource(t, 8192)
	stream := func(v *ops.View) func() {
		return func() {
			if err := Stream(repo, v, Options{}, io.Discard, "tsv", 0, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	small, large := tailView(src, ids, 2048), tailView(src, ids, 8192)
	stream(large)() // fills gam's object cache
	before := repo.DB().StmtCacheStats()
	stream(small)()
	stream(large)()
	if after := repo.DB().StmtCacheStats(); after.Hits != before.Hits || after.Misses != before.Misses {
		t.Fatalf("warm streams ran statements: %+v, then %+v", before, after)
	}
	a2k := testing.AllocsPerRun(5, stream(small))
	a8k := testing.AllocsPerRun(5, stream(large))
	if a2k != a8k {
		t.Fatalf("warm stream allocs: %.0f for 2 048 rows, %.0f for 8 192; want the same", a2k, a8k)
	}
}
