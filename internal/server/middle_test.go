package server

import (
	"fmt"
	"html/template"
	"strings"
	"testing"

	"genmapper"
)

// middleTmpl is the oracle of pageMiddle.appendHTML: the page middle as
// html/template rendered it before the page was streamed.
var middleTmpl = template.Must(template.New("middle").Parse(
	`{{if .Error}}<p style="color:red">{{.Error}}</p>{{end}}
{{if .ExportBase}}
<h2>Annotation view ({{.Rows}} rows)</h2>
<p><a href="{{.ExportBase}}&format=tsv">TSV</a> |
<a href="{{.ExportBase}}&format=csv">CSV</a> |
<a href="{{.ExportBase}}&format=json">JSON</a></p>
{{end}}`))

// middleData is what middleTmpl renders: ExportBase is exportURL's
// serialization of a view page's query, empty on any other page.
type middleData struct {
	Error      string
	Rows       int
	ExportBase string
}

// exportURL serializes a query into the GET parameters of the export
// links as the page did before the links were written straight into its
// buffer: the oracle of appendExportLink.
func exportURL(q genmapper.Query) string {
	var sb strings.Builder
	sb.WriteString("/export?source=")
	sb.WriteString(template.URLQueryEscaper(q.Source))
	sb.WriteString("&mode=")
	sb.WriteString(template.URLQueryEscaper(q.Mode))
	if len(q.Accessions) > 0 {
		sb.WriteString("&accessions=")
		sb.WriteString(template.URLQueryEscaper(strings.Join(q.Accessions, ",")))
	}
	for _, t := range q.Targets {
		spec := t.Source
		if t.Negate {
			spec = "!" + spec
		}
		if len(t.Via) > 0 {
			spec += " via " + strings.Join(t.Via, ">")
		}
		sb.WriteString("&target=")
		sb.WriteString(template.URLQueryEscaper(spec))
	}
	if q.Limit > 0 {
		fmt.Fprintf(&sb, "&limit=%d", q.Limit)
	}
	if q.Offset > 0 {
		fmt.Fprintf(&sb, "&offset=%d", q.Offset)
	}
	return sb.String()
}

// FuzzPageMiddle checks the page middle's bytes against middleTmpl's for
// an error line, and for a view page whose export links serialize a query
// of fuzzed names.
func FuzzPageMiddle(f *testing.F) {
	f.Add("", 0, "LocusLink", "GO", "Unigene", "353", false)
	f.Add(`unknown source "x<y>"`, 0, "", "", "", "", false)
	f.Add(`a+b & 'c'`, 209, `s"&'+<>`, "T+<&>", "a>b", "1,2", true)
	f.Add("nul\x00 bad\xff \uFFFD", 7, "http://x", "javascript:alert(1)", " via ", "%zz%41", true)
	f.Fuzz(func(t *testing.T, errText string, rows int, source, target, via, acc string, negate bool) {
		q := genmapper.Query{Source: source, Mode: "OR", Accessions: []string{acc, acc + "2"}, Limit: rows, Offset: rows / 2,
			Targets: []genmapper.Target{{Source: target, Negate: negate, Via: []string{source, via, target}}, {Source: via}}}
		for _, m := range []pageMiddle{
			{Error: errText},
			{Rows: rows, Query: &q},
			{Error: errText, Rows: rows, Query: &q},
		} {
			d := middleData{Error: m.Error, Rows: m.Rows}
			if m.Query != nil {
				d.ExportBase = exportURL(*m.Query)
			}
			var want strings.Builder
			if err := middleTmpl.Execute(&want, d); err != nil {
				t.Fatal(err)
			}
			if got := string(m.appendHTML([]byte("x"))); got != "x"+want.String() {
				t.Fatalf("middle %+v:\n got %q\nwant %q", d, got, "x"+want.String())
			}
		}
	})
}
