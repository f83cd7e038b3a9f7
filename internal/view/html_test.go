package view

import (
	"bytes"
	"html/template"
	"strings"
	"testing"
)

// cellTmpl is the oracle of the html writer's cell escaping: the cell
// expression of the Figure-5 page as html/template renders it.
var cellTmpl = template.Must(template.New("cell").Parse(
	`<td>{{if .}}{{.}}{{else}}<span class="null">-</span>{{end}}</td>`))

func htmlRow(t testing.TB, cells ...string) string {
	t.Helper()
	var buf bytes.Buffer
	rw, err := NewRowWriter(&buf, "html")
	if err != nil {
		t.Fatal(err)
	}
	if err := rw.Row(cells); err != nil {
		t.Fatal(err)
	}
	if err := rw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// FuzzHTMLCell checks the html writer's bytes for one cell against
// html/template's for the same string.
func FuzzHTMLCell(f *testing.F) {
	for _, seed := range []string{
		"+", "\x00", `'"&<>`, "\xff", "\uFFFD", "\uFDD0", "\uFFFE", "é", "",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, cell string) {
		var want strings.Builder
		if err := cellTmpl.Execute(&want, cell); err != nil {
			t.Fatal(err)
		}
		if got := htmlRow(t, cell); got != "<tr>"+want.String()+"</tr>" {
			t.Fatalf("cell %q:\n got %q\nwant <tr>%q</tr>", cell, got, want.String())
		}
	})
}

func TestHTMLWriterTable(t *testing.T) {
	var buf bytes.Buffer
	tbl := &Table{Columns: []string{"A&B", "C"}, Rows: [][]string{{"x<y", ""}, {"1", "2"}}}
	if err := tbl.Write(&buf, "html"); err != nil {
		t.Fatal(err)
	}
	want := "<table><tr><th>A&amp;B</th><th>C</th></tr>\n" +
		`<tr><td>x&lt;y</td><td><span class="null">-</span></td></tr><tr><td>1</td><td>2</td></tr>` +
		"\n</table>\n"
	if buf.String() != want {
		t.Errorf("html table:\n got %q\nwant %q", buf.String(), want)
	}
}

// The header leaves at once, so a stream failing at a later row has
// written bytes; rows collect until about writeChunk bytes are buffered.
func TestHTMLWriterChunks(t *testing.T) {
	var buf bytes.Buffer
	rw, _ := NewRowWriter(&buf, "html")
	if err := rw.Header([]string{"A"}); err != nil {
		t.Fatal(err)
	}
	head := buf.Len()
	if head == 0 {
		t.Fatal("header was buffered")
	}
	cell := strings.Repeat("a", 100)
	for buf.Len() == head {
		if err := rw.Row([]string{cell}); err != nil {
			t.Fatal(err)
		}
	}
	if n := buf.Len() - head; n < writeChunk {
		t.Errorf("rows left in a %d-byte write, want >= %d", n, writeChunk)
	}
}
