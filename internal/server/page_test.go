package server

// Byte identity of the Figure-5 page. The goldens under testdata/pages were
// recorded from the html/template page that walked a materialized Table
// cell by cell; the streamed page must reproduce every one of them. The
// cases: 48 query shapes like bench/e2e's view.warm pool (50-500 sampled
// accessions, 1-8 routed targets, AND/OR, last target negated, some with a
// row window) on the scale-0.01 synthetic universe, both home pages, every
// error page of handleQuery, a zero-row view and a view whose cells hold
// every byte the escaper replaces.

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"genmapper"
	"genmapper/internal/eav"
	"genmapper/internal/gam"
	"genmapper/internal/view"
)

// pageCase is one request of the byte-identity suite: a GET / when form is
// nil, else a POST /query.
type pageCase struct {
	name  string
	build func(testing.TB) *genmapper.System
	form  url.Values
}

var universe struct {
	once sync.Once
	sys  *genmapper.System
	uni  *genmapper.Universe
	err  error
}

// universeSystem imports the universe view.warm runs on, once per test
// binary. Page requests only read it.
func universeSystem(t testing.TB) *genmapper.System {
	t.Helper()
	universe.once.Do(func() {
		universe.uni = genmapper.NewUniverse(genmapper.GenConfig{Seed: 1, Scale: 0.01})
		if universe.sys, universe.err = genmapper.New(); universe.err == nil {
			_, universe.err = universe.sys.ImportUniverse(universe.uni, genmapper.ImportOptions{DeriveSubsumed: true}, nil)
		}
	})
	if universe.err != nil {
		t.Fatal(universe.err)
	}
	return universe.sys
}

// escapeSystem holds one source whose cells, accessions and target name
// carry every byte html/template replaces, plus bytes it must copy.
func escapeSystem(t testing.TB) *genmapper.System {
	t.Helper()
	sys, err := genmapper.New()
	if err != nil {
		t.Fatal(err)
	}
	ds := eav.NewDataset(genmapper.SourceInfo{Name: "Esc", Content: "gene"})
	cells := []string{`q"`, "a&b", "it's", "1+1", "<b>", "x>y", "nul\x00", "bad\xff",
		"\uFFFD", "\uFDD0", "\uFFFE", "é", `all"&'+<>` + "\x00"}
	for i, c := range cells {
		ds.Add(fmt.Sprintf("e%02d", i), "T+<&>", c, "")
	}
	ds.Add(`s"&'+<>`, "T+<&>", "plain", "")
	ds.Add("zz", eav.TargetName, "", "no annotation")
	if _, err := sys.ImportDataset(ds, genmapper.ImportOptions{}); err != nil {
		t.Fatal(err)
	}
	return sys
}

// danglingSystem is testSystem with the object of one Hugo annotation
// deleted around gam: rendering the LocusLink/Hugo view fails at the row
// of locus, 0 for "353" and 1 for "354".
func danglingSystem(t testing.TB, locus string) *genmapper.System {
	t.Helper()
	sys := testSystem(t)
	hugo := map[string]string{"353": "APRT", "354": "XYZ2"}[locus]
	if _, err := sys.DB().Exec("DELETE FROM object WHERE accession = '" + hugo + "'"); err != nil {
		t.Fatal(err)
	}
	return sys
}

// warmShapes draws the view.warm-like query forms from the universe: a
// seeded sequence of shapes, keeping those whose view is non-empty and at
// most 400 rows (the goldens stay small). A shape is only generated when
// its row bound — per source object the product over targets of
// max(1, associations) — allows that: an 8-target OR view can otherwise
// run to millions of rows.
func warmShapes(t *testing.T, sys *genmapper.System) []url.Values {
	t.Helper()
	const maxRows = 400
	repo, uni := sys.Repo(), universe.uni
	type cand struct {
		name    string
		targets []string
	}
	var cands []cand
	sources := sys.Sources()
	for _, src := range sources {
		if uni.Count(src.Name) < 50 {
			continue
		}
		c := cand{name: src.Name}
		for _, tgt := range sources {
			if tgt.ID == src.ID {
				continue
			}
			if rel, _, err := repo.FindMapping(src.ID, tgt.ID); err == nil && rel != nil {
				c.targets = append(c.targets, tgt.Name)
			} else if p := sys.Graph().ShortestPath(src.ID, tgt.ID); len(p) == 3 {
				c.targets = append(c.targets, tgt.Name)
			}
		}
		if len(c.targets) >= 8 {
			cands = append(cands, c)
		}
	}
	if len(cands) == 0 {
		t.Fatal("no source with 50+ objects and 8+ routable targets")
	}
	// degree returns the number of target objects each source object maps
	// to, through the mapping the view resolves.
	degrees := make(map[[2]string]map[gam.ObjectID]int)
	degree := func(from, to string) map[gam.ObjectID]int {
		key := [2]string{from, to}
		if d, ok := degrees[key]; ok {
			return d
		}
		m, err := sys.Resolver()(repo.SourceByName(from).ID, repo.SourceByName(to).ID)
		if err != nil {
			t.Fatal(err)
		}
		d := make(map[gam.ObjectID]int)
		for _, a := range m.Assocs {
			d[a.Object1]++
		}
		degrees[key] = d
		return d
	}
	rng := rand.New(rand.NewSource(31))
	var shapes []url.Values
	for attempt := 0; len(shapes) < 48 && attempt < 2000; attempt++ {
		c := cands[rng.Intn(len(cands))]
		count := uni.Count(c.name)
		q := genmapper.Query{Source: c.name, Mode: "OR"}
		if rng.Intn(2) == 0 {
			q.Mode = "AND"
		}
		for _, i := range rng.Perm(count)[:50+rng.Intn(min(500, count)-50+1)] {
			q.Accessions = append(q.Accessions, uni.Accession(c.name, i))
		}
		negate := rng.Intn(4) == 0
		picks := rng.Perm(len(c.targets))[:1+rng.Intn(8)]
		specs := make([]string, len(picks))
		for i, p := range picks {
			q.Targets = append(q.Targets, genmapper.Target{Source: c.targets[p], Negate: negate && i == len(picks)-1})
			specs[i] = targetSpec(q.Targets[i])
		}
		form := url.Values{
			"source":     {q.Source},
			"mode":       {q.Mode},
			"accessions": {strings.Join(q.Accessions, "\n")},
			"targets":    {strings.Join(specs, "\n")},
		}
		if rng.Intn(4) == 0 {
			q.Limit, q.Offset = 1+rng.Intn(100), rng.Intn(50)
			form.Set("limit", fmt.Sprint(q.Limit))
			form.Set("offset", fmt.Sprint(q.Offset))
		}
		ids, err := repo.LookupObjects(repo.SourceByName(c.name).ID, q.Accessions)
		if err != nil {
			t.Fatal(err)
		}
		bound := 0
		for _, id := range ids {
			rows := 1
			for _, tgt := range q.Targets {
				rows *= max(1, degree(c.name, tgt.Source)[id])
			}
			if bound += rows; bound > maxRows {
				break
			}
		}
		if bound > maxRows {
			continue
		}
		if tbl, err := sys.AnnotationView(q); err != nil || len(tbl.Rows) == 0 {
			continue
		}
		shapes = append(shapes, form)
	}
	if len(shapes) < 48 {
		t.Fatalf("drew %d shapes, want 48", len(shapes))
	}
	return shapes
}

func targetSpec(tgt genmapper.Target) string {
	if tgt.Negate {
		return "!" + tgt.Source
	}
	return tgt.Source
}

func pageCases(t *testing.T) []pageCase {
	t.Helper()
	cases := []pageCase{
		{name: "home-universe", build: universeSystem},
		{name: "home-small", build: testSystem},
		{name: "err-no-source", build: testSystem, form: url.Values{"targets": {"Hugo"}}},
		{name: "err-empty-target", build: testSystem, form: url.Values{"source": {"LocusLink"}, "targets": {"!"}}},
		{name: "err-no-targets", build: testSystem, form: url.Values{"source": {"LocusLink"}}},
		{name: "err-bad-limit", build: testSystem, form: url.Values{"source": {"LocusLink"}, "targets": {"Hugo"}, "limit": {"-1"}}},
		{name: "err-bad-offset", build: testSystem, form: url.Values{"source": {"LocusLink"}, "targets": {"Hugo"}, "offset": {"x<y"}}},
		{name: "err-unknown-source", build: testSystem, form: url.Values{"source": {`No"&'+<Such>`}, "targets": {"Hugo"}}},
		{name: "err-unknown-mode", build: testSystem, form: url.Values{"source": {"LocusLink"}, "targets": {"Hugo"}, "mode": {"XOR"}}},
		{name: "err-unknown-target", build: testSystem, form: url.Values{"source": {"LocusLink"}, "targets": {"NoSuch"}}},
		{name: "err-no-accessions", build: testSystem, form: url.Values{"source": {"LocusLink"}, "targets": {"Hugo"}, "accessions": {"nope1\nnope2"}}},
		{name: "err-via-endpoints", build: testSystem, form: url.Values{"source": {"LocusLink"}, "targets": {"Hugo via GO>Hugo"}}},
		{name: "err-via-unknown-step", build: testSystem, form: url.Values{"source": {"LocusLink"}, "targets": {"Hugo via LocusLink>Nowhere>Hugo"}}},
		{name: "err-via-no-mapping", build: testSystem, form: url.Values{"source": {"LocusLink"}, "targets": {"Hugo via LocusLink>GO>Hugo"}}},
		{name: "err-dangling-row0", build: func(t testing.TB) *genmapper.System { return danglingSystem(t, "353") },
			form: url.Values{"source": {"LocusLink"}, "targets": {"Hugo"}}},
		{name: "view-zero-rows", build: testSystem, form: url.Values{"source": {"LocusLink"}, "mode": {"AND"}, "targets": {"Hugo\n!Hugo"}}},
		{name: "view-escapes", build: escapeSystem, form: url.Values{"source": {"Esc"}, "mode": {"OR"}, "targets": {"T+<&>"}}},
	}
	for i, form := range warmShapes(t, universeSystem(t)) {
		cases = append(cases, pageCase{name: fmt.Sprintf("warm-%02d", i), build: universeSystem, form: form})
	}
	return cases
}

// fetchPage issues a case's request against a fresh server on its system.
func fetchPage(t *testing.T, c pageCase) []byte {
	t.Helper()
	ts := httptest.NewServer(New(c.build(t)))
	defer ts.Close()
	var resp *http.Response
	var err error
	if c.form == nil {
		resp, err = http.Get(ts.URL + "/")
	} else {
		resp, err = http.PostForm(ts.URL+"/query", c.form)
	}
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d", c.name, resp.StatusCode)
	}
	return []byte(readBody(t, resp))
}

func TestPageGoldens(t *testing.T) {
	for _, c := range pageCases(t) {
		t.Run(c.name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "pages", c.name+".html"))
			if err != nil {
				t.Fatal(err)
			}
			got := fetchPage(t, c)
			if string(got) == string(want) {
				return
			}
			at := 0
			for at < len(got) && at < len(want) && got[at] == want[at] {
				at++
			}
			from := max(0, at-80)
			t.Fatalf("page differs from its golden at byte %d (got %d bytes, want %d):\n got …%q\nwant …%q",
				at, len(got), len(want), got[from:min(len(got), at+80)], want[from:min(len(want), at+80)])
		})
	}
}

// quietServer serves sys and captures what net/http logs, such as a
// superfluous WriteHeader call.
func quietServer(t *testing.T, sys *genmapper.System) (*httptest.Server, *strings.Builder) {
	t.Helper()
	var logged strings.Builder
	var mu sync.Mutex
	ts := httptest.NewUnstartedServer(New(sys))
	ts.Config.ErrorLog = log.New(writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return logged.Write(p)
	}), "", 0)
	ts.Start()
	t.Cleanup(ts.Close)
	return ts, &logged
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// A view failing to render at row 0 has sent nothing: it gets the whole
// page with the error line, like any other query error.
func TestQueryRenderErrorAtRowZero(t *testing.T) {
	ts, logged := quietServer(t, danglingSystem(t, "353"))
	resp, err := http.PostForm(ts.URL+"/query", url.Values{"source": {"LocusLink"}, "targets": {"Hugo"}})
	if err != nil {
		t.Fatal(err)
	}
	body := readBody(t, resp)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, `<p style="color:red">view: dangling object id`) ||
		!strings.HasSuffix(body, "\n</body></html>") || strings.Contains(body, "<table>") {
		t.Errorf("status %d, want the full error page:\n%s", resp.StatusCode, body)
	}
	ts.Close()
	if logged.Len() != 0 {
		t.Errorf("server logged: %s", logged.String())
	}
}

// A view failing at a later row has sent the page up to its table head:
// the body ends there, with no error text appended and no second status.
func TestQueryRenderErrorAfterFirstByte(t *testing.T) {
	ts, logged := quietServer(t, danglingSystem(t, "354"))
	resp, err := http.PostForm(ts.URL+"/query", url.Values{"source": {"LocusLink"}, "targets": {"Hugo"}})
	if err != nil {
		t.Fatal(err)
	}
	body := readBody(t, resp)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status = %d", resp.StatusCode)
	}
	if !strings.HasSuffix(body, "<table><tr><th>LocusLink</th><th>Hugo</th></tr>\n") {
		t.Errorf("body does not end at the table head:\n%s", body)
	}
	if strings.Contains(body, "dangling") || strings.Contains(body, "color:red") {
		t.Errorf("error text appended to a sent page:\n%s", body)
	}
	ts.Close()
	if logged.Len() != 0 {
		t.Errorf("server logged: %s", logged.String())
	}
}

// BenchmarkQueryPage serves one Figure-5 page (300 LocusLink accessions,
// Hugo and GO, OR) through httptest on the primed scale-0.01 universe.
func BenchmarkQueryPage(b *testing.B) {
	sys := universeSystem(b)
	accs := queryPageAccessions()
	form := url.Values{"source": {"LocusLink"}, "mode": {"OR"},
		"accessions": {strings.Join(accs, "\n")}, "targets": {"Hugo\nGO"}}
	ts := httptest.NewServer(New(sys))
	defer ts.Close()
	body := form.Encode()
	get := func() int {
		resp, err := http.Post(ts.URL+"/query", "application/x-www-form-urlencoded", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		n, _ := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return int(n)
	}
	b.SetBytes(int64(get())) // primes the executor
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		get()
	}
}

// queryPageAccessions are BenchmarkQueryPage's 300 LocusLink accessions.
func queryPageAccessions() []string {
	accs := make([]string, 300)
	for i := range accs {
		accs[i] = universe.uni.Accession("LocusLink", i)
	}
	return accs
}

// TestQueryPageStreamAllocs bounds what a warm view.Stream of
// BenchmarkQueryPage's view allocates. gam serves the view's objects from
// its object cache as shared rows, so a warm stream allocates only its
// writer and buffers, nothing per row or per object; a copy or a map entry
// per object shows up here as dozens of times the count, a per-cell point
// query as hundreds. The count does not depend on the machine.
func TestQueryPageStreamAllocs(t *testing.T) {
	sys := universeSystem(t)
	v, err := sys.GenerateView(genmapper.Query{Source: "LocusLink", Mode: "OR",
		Accessions: queryPageAccessions(), Targets: []genmapper.Target{{Source: "Hugo"}, {Source: "GO"}}})
	if err != nil {
		t.Fatal(err)
	}
	stream := func() {
		if err := view.Stream(sys.Repo(), v, view.Options{}, io.Discard, "html", 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	stream() // fills gam's object cache
	allocs := testing.AllocsPerRun(10, stream)
	// Measured: 4 allocations per warm stream of 713 rows (15 while the
	// html writer's buffer grew by doubling for every stream, 659 with a
	// per-render map and a copy per object, 7 301 with a point query per
	// distinct object). The bound is the measurement.
	const maxAllocs = 4
	if allocs > maxAllocs {
		t.Fatalf("warm view.Stream of %d rows: %.0f allocs, want <= %d", len(v.Rows), allocs, maxAllocs)
	}
}

// queryPageForm is BenchmarkQueryPage's form.
func queryPageForm() url.Values {
	return url.Values{"source": {"LocusLink"}, "mode": {"OR"},
		"accessions": {strings.Join(queryPageAccessions(), "\n")}, "targets": {"Hugo\nGO"}}
}

// TestQueryPageHandlerAllocs bounds what the handler allocates for
// BenchmarkQueryPage's page, warm, measured at ServeHTTP on a recorder (the
// recorder and the request are in the count). The accessions resolve into
// one sorted ID slice, the shortest paths are memoized, the export links
// are escaped straight into the pooled page buffer, and the page leaves in
// one write; a map per request, a per-request path search or a string per
// link shows up here as allocations. The count does not depend on the
// machine.
func TestQueryPageHandlerAllocs(t *testing.T) {
	srv := New(universeSystem(t))
	body := queryPageForm().Encode()
	serve := func() {
		r := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body))
		r.Header.Set("Content-Type", "application/x-www-form-urlencoded")
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, r)
		if w.Code != http.StatusOK || !strings.HasSuffix(w.Body.String(), pageTail) {
			t.Fatalf("status %d, page of %d bytes", w.Code, w.Body.Len())
		}
	}
	serve() // primes the executor, the object cache and the page shell
	allocs := testing.AllocsPerRun(20, serve)
	t.Logf("%.0f allocs per page", allocs)
	// Measured: 71 allocations per page (84 while the html writer's
	// buffer grew by doubling and FindMapping built a *SourceRel per
	// lookup; 138 with the accession maps, a path search per request, the
	// links built as strings and the page written as it streamed). The
	// bound leaves ~25% headroom.
	const maxAllocs = 89
	if allocs > maxAllocs {
		t.Fatalf("warm query page: %.0f allocs, want <= %d", allocs, maxAllocs)
	}
}

// A page that fits the page buffer leaves in one write: it carries its
// Content-Length and is not chunked.
func TestQueryPageContentLength(t *testing.T) {
	ts := httptest.NewServer(New(universeSystem(t)))
	defer ts.Close()
	for _, form := range []url.Values{queryPageForm(), {"source": {"LocusLink"}, "targets": {"NoSuchSource"}}} {
		resp, err := http.PostForm(ts.URL+"/query", form)
		if err != nil {
			t.Fatal(err)
		}
		body := readBody(t, resp)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || len(body) > pageBufSize {
			t.Fatalf("status %d, %d bytes: want a page that fits the buffer", resp.StatusCode, len(body))
		}
		if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
			t.Errorf("page of %d bytes: Content-Length %d, Transfer-Encoding %v; want %d, none",
				len(body), resp.ContentLength, resp.TransferEncoding, len(body))
		}
	}
}

// A page larger than the buffer streams, chunked, in full-buffer writes,
// and its bytes are the shell, the middle, the view as view.Stream renders
// it into a plain buffer, and the tail.
func TestQueryPageLargerThanBuffer(t *testing.T) {
	sys := universeSystem(t)
	srv := New(sys)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	form := url.Values{"source": {"LocusLink"}, "mode": {"OR"}, "targets": {"Hugo\nGO"}}
	resp, err := http.PostForm(ts.URL+"/query", form)
	if err != nil {
		t.Fatal(err)
	}
	body := readBody(t, resp)
	resp.Body.Close()
	if len(body) <= 2*pageBufSize {
		t.Fatalf("page of %d bytes, want more than two buffers", len(body))
	}
	if resp.ContentLength != -1 || !slices.Equal(resp.TransferEncoding, []string{"chunked"}) {
		t.Errorf("Content-Length %d, Transfer-Encoding %v; want a chunked stream", resp.ContentLength, resp.TransferEncoding)
	}

	q := genmapper.Query{Source: "LocusLink", Mode: "OR", Targets: []genmapper.Target{{Source: "Hugo"}, {Source: "GO"}}}
	v, err := sys.GenerateView(q)
	if err != nil {
		t.Fatal(err)
	}
	shell, err := srv.pageShell()
	if err != nil {
		t.Fatal(err)
	}
	want := pageMiddle{Rows: len(v.Rows), Query: &q}.appendHTML(slices.Clone(shell))
	var table bytes.Buffer
	if err := view.Stream(sys.Repo(), v, view.Options{}, &table, "html", 0, nil); err != nil {
		t.Fatal(err)
	}
	want = append(append(want, table.Bytes()...), pageTail...)
	if body != string(want) {
		at := 0
		for at < len(body) && at < len(want) && body[at] == want[at] {
			at++
		}
		t.Fatalf("streamed page differs at byte %d (got %d bytes, want %d)", at, len(body), len(want))
	}
}

// pageWriter writes a page that outgrows its buffer in full buffers, the
// last one partial, and a page that fits in one write with its length;
// writes larger than the buffer are split across buffers.
func TestPageWriterWrites(t *testing.T) {
	for _, sizes := range [][]int{{10, 20}, {pageBufSize}, {pageBufSize - 1, 2}, {3*pageBufSize + 5}, {100, 2 * pageBufSize, 7}} {
		w := &writesRecorder{ResponseRecorder: httptest.NewRecorder()}
		pw := newPageWriter(w)
		var want []byte
		for i, n := range sizes {
			p := bytes.Repeat([]byte{byte('a' + i)}, n)
			want = append(want, p...)
			if k, err := pw.Write(p); k != n || err != nil {
				t.Fatalf("%v: Write = %d, %v", sizes, k, err)
			}
		}
		pw.end()
		if w.Body.String() != string(want) {
			t.Fatalf("%v: wrote %d bytes, want %d", sizes, w.Body.Len(), len(want))
		}
		fits := len(want) <= pageBufSize
		if cl := w.Header().Get("Content-Length"); fits != (cl == strconv.Itoa(len(want))) {
			t.Errorf("%v: Content-Length %q for a %d-byte page", sizes, cl, len(want))
		}
		for i, n := range w.writes {
			if last := i == len(w.writes)-1; n != pageBufSize && !last || n == 0 {
				t.Errorf("%v: writes %v, want full buffers and a last partial one", sizes, w.writes)
				break
			}
		}
		if fits && len(w.writes) != 1 {
			t.Errorf("%v: %d writes for a page that fits", sizes, len(w.writes))
		}
	}
}

// writesRecorder records the size of each write.
type writesRecorder struct {
	*httptest.ResponseRecorder
	writes []int
}

func (w *writesRecorder) Write(p []byte) (int, error) {
	w.writes = append(w.writes, len(p))
	return w.ResponseRecorder.Write(p)
}
