package server

import (
	"html/template"
	"strings"
	"testing"

	"genmapper"
)

// middleTmpl is the oracle of pageMiddle.html: the page middle as
// html/template rendered it before the page was streamed.
var middleTmpl = template.Must(template.New("middle").Parse(
	`{{if .Error}}<p style="color:red">{{.Error}}</p>{{end}}
{{if .ExportBase}}
<h2>Annotation view ({{.Rows}} rows)</h2>
<p><a href="{{.ExportBase}}&format=tsv">TSV</a> |
<a href="{{.ExportBase}}&format=csv">CSV</a> |
<a href="{{.ExportBase}}&format=json">JSON</a></p>
{{end}}`))

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
			{Rows: rows, ExportBase: exportURL(q)},
			{Error: errText, Rows: rows, ExportBase: exportURL(q)},
		} {
			var want strings.Builder
			if err := middleTmpl.Execute(&want, m); err != nil {
				t.Fatal(err)
			}
			if got := m.html(); got != want.String() {
				t.Fatalf("middle %+v:\n got %q\nwant %q", m, got, want.String())
			}
		}
	})
}
