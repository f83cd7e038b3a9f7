package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"testing"

	"genmapper"
)

// refParseQuerySpec is parseQuerySpec as it was when it split the form's
// text areas with strings.Split: the oracle of FuzzParseQuerySpec.
func refParseQuerySpec(r *http.Request) (genmapper.Query, error) {
	q := genmapper.Query{
		Source: strings.TrimSpace(r.FormValue("source")),
		Mode:   r.FormValue("mode"),
	}
	if q.Source == "" {
		return q, fmt.Errorf("no source selected")
	}
	for _, line := range strings.Split(r.FormValue("accessions"), "\n") {
		if acc := strings.TrimSpace(line); acc != "" {
			q.Accessions = append(q.Accessions, acc)
		}
	}
	for _, line := range strings.Split(r.FormValue("targets"), "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		t := refParseTargetSpec(line)
		if t.Source == "" {
			return q, fmt.Errorf("empty target name in %q", line)
		}
		q.Targets = append(q.Targets, t)
	}
	if len(q.Targets) == 0 {
		return q, fmt.Errorf("no targets specified")
	}
	for _, f := range []struct {
		name string
		dst  *int
	}{{"limit", &q.Limit}, {"offset", &q.Offset}} {
		s := strings.TrimSpace(r.FormValue(f.name))
		if s == "" {
			continue
		}
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			return q, fmt.Errorf("%s must be a non-negative integer, got %q", f.name, s)
		}
		*f.dst = n
	}
	return q, nil
}

func refParseTargetSpec(spec string) genmapper.Target {
	t := genmapper.Target{}
	spec = strings.TrimSpace(spec)
	if strings.HasPrefix(spec, "!") {
		t.Negate = true
		spec = strings.TrimSpace(spec[1:])
	}
	name, via, hasVia := strings.Cut(spec, " via ")
	t.Source = strings.TrimSpace(name)
	if hasVia {
		for _, step := range strings.Split(via, ">") {
			if s := strings.TrimSpace(step); s != "" {
				t.Via = append(t.Via, s)
			}
		}
	}
	return t
}

// FuzzParseQuerySpec checks the query form's parser against the
// Split-based oracle: the same query, or the same error, for any source,
// mode, accession and target text (CR/LF, blank lines, "!", " via ", ">")
// and limit/offset. A nil and an empty accession or via list are the same
// query.
func FuzzParseQuerySpec(f *testing.F) {
	f.Add("LocusLink", "OR", "353\n354\r\n\n 355 \n", "Hugo\n!GO via LocusLink>Unigene>GO\n", "10", "")
	f.Add(" ", "AND", "", "Hugo", "", "")
	f.Add("S", "", "\n\n", "\n \n", "", "")
	f.Add("S", "XOR", "a", "! via >", "-1", "2")
	f.Add("S", "OR", "a\rb", "T via >>A> \r\n!T2 via", " 7 ", "x")
	f.Fuzz(func(t *testing.T, source, mode, accessions, targets, limit, offset string) {
		form := url.Values{"source": {source}, "mode": {mode}, "accessions": {accessions},
			"targets": {targets}, "limit": {limit}, "offset": {offset}}
		r := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(form.Encode()))
		r.Header.Set("Content-Type", "application/x-www-form-urlencoded")
		got, gotErr := parseQuerySpec(r)
		want, wantErr := refParseQuerySpec(r) // reads the form r parsed
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("error %v, want %v", gotErr, wantErr)
		}
		if wantErr != nil {
			return
		}
		sameTarget := func(a, b genmapper.Target) bool {
			return a.Source == b.Source && a.Negate == b.Negate && slices.Equal(a.Via, b.Via) &&
				slices.Equal(a.Accessions, b.Accessions) && a.MinEvidence == b.MinEvidence
		}
		if got.Source != want.Source || got.Mode != want.Mode || !slices.Equal(got.Accessions, want.Accessions) ||
			!slices.EqualFunc(got.Targets, want.Targets, sameTarget) ||
			got.Limit != want.Limit || got.Offset != want.Offset || got.WithText != want.WithText {
			t.Fatalf("query %+v\nwant %+v", got, want)
		}
	})
}
