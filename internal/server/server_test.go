package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"genmapper"
	"genmapper/internal/eav"
	"genmapper/internal/sqldb"
)

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(New(testSystem(t)))
	t.Cleanup(ts.Close)
	return ts
}

func testSystem(t testing.TB) *genmapper.System {
	t.Helper()
	sys, err := genmapper.New()
	if err != nil {
		t.Fatal(err)
	}
	ll := eav.NewDataset(genmapper.SourceInfo{Name: "LocusLink", Content: "gene"})
	ll.Add("353", eav.TargetName, "", "adenine phosphoribosyltransferase")
	ll.Add("353", "Hugo", "APRT", "")
	ll.Add("353", "GO", "GO:0009116", "nucleoside metabolism")
	ll.Add("354", eav.TargetName, "", "locus two")
	ll.Add("354", "Hugo", "XYZ2", "")
	if _, err := sys.ImportDataset(ll, genmapper.ImportOptions{}); err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestHomePage(t *testing.T) {
	ts := testServer(t)
	resp, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	body := readBody(t, resp)
	if !strings.Contains(body, "Query specification") {
		t.Error("home page missing query form")
	}
	if !strings.Contains(body, "LocusLink") {
		t.Error("home page missing source list")
	}
	// Unknown path 404s.
	resp2, _ := http.Get(ts.URL + "/nope")
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("unknown path status = %d", resp2.StatusCode)
	}
}

func readBody(t testing.TB, resp *http.Response) string {
	t.Helper()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return sb.String()
}

func TestQueryFlow(t *testing.T) {
	ts := testServer(t)
	form := url.Values{
		"source":  {"LocusLink"},
		"mode":    {"OR"},
		"targets": {"Hugo\nGO"},
	}
	resp, err := http.PostForm(ts.URL+"/query", form)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body := readBody(t, resp)
	if !strings.Contains(body, "Annotation view") {
		t.Fatalf("no view in response:\n%s", body)
	}
	if !strings.Contains(body, "APRT") || !strings.Contains(body, "GO:0009116") {
		t.Error("view missing annotation cells")
	}
}

func TestQueryNegation(t *testing.T) {
	ts := testServer(t)
	form := url.Values{
		"source":  {"LocusLink"},
		"mode":    {"AND"},
		"targets": {"!GO"},
	}
	resp, err := http.PostForm(ts.URL+"/query", form)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body := readBody(t, resp)
	// 354 has no GO annotation: the negated view contains it, not 353.
	if !strings.Contains(body, "354") {
		t.Error("negated view missing 354")
	}
	if strings.Contains(body, ">353<") {
		t.Error("negated view should exclude 353")
	}
}

func TestQueryErrors(t *testing.T) {
	ts := testServer(t)
	// No targets.
	resp, err := http.PostForm(ts.URL+"/query", url.Values{"source": {"LocusLink"}})
	if err != nil {
		t.Fatal(err)
	}
	body := readBody(t, resp)
	resp.Body.Close()
	if !strings.Contains(body, "no targets") {
		t.Error("missing-targets error not shown")
	}
	// Unknown target source.
	resp, err = http.PostForm(ts.URL+"/query", url.Values{
		"source": {"LocusLink"}, "targets": {"NoSuch"},
	})
	if err != nil {
		t.Fatal(err)
	}
	body = readBody(t, resp)
	resp.Body.Close()
	if !strings.Contains(body, "unknown target source") {
		t.Error("unknown-target error not shown")
	}
	// GET redirects to home.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/query", nil)
	client := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	resp, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusSeeOther {
		t.Errorf("GET /query status = %d", resp.StatusCode)
	}
}

func TestExportFormats(t *testing.T) {
	ts := testServer(t)
	base := ts.URL + "/export?source=LocusLink&mode=OR&target=Hugo&target=GO"
	cases := []struct {
		format   string
		wantType string
		needle   string
	}{
		{"tsv", "text/tab-separated-values", "LocusLink\tHugo\tGO"},
		{"csv", "text/csv", "LocusLink,Hugo,GO"},
		{"json", "application/json", `"columns"`},
	}
	for _, c := range cases {
		resp, err := http.Get(base + "&format=" + c.format)
		if err != nil {
			t.Fatal(err)
		}
		body := readBody(t, resp)
		resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, c.wantType) {
			t.Errorf("%s content type = %q", c.format, ct)
		}
		if !strings.Contains(body, c.needle) {
			t.Errorf("%s export missing %q:\n%s", c.format, c.needle, body)
		}
	}
	// Bad query.
	resp, _ := http.Get(ts.URL + "/export?source=Nope&target=GO")
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad export status = %d", resp.StatusCode)
	}
}

func TestObjectEndpoint(t *testing.T) {
	ts := testServer(t)
	resp, err := http.Get(ts.URL + "/object?source=LocusLink&accession=353")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got["text"] != "adenine phosphoribosyltransferase" {
		t.Errorf("object = %v", got)
	}
	resp2, _ := http.Get(ts.URL + "/object?source=LocusLink&accession=999")
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("missing object status = %d", resp2.StatusCode)
	}
}

func TestPathEndpoint(t *testing.T) {
	ts := testServer(t)
	resp, err := http.Get(ts.URL + "/path?from=Hugo&to=GO")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got map[string][]string
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if strings.Join(got["path"], ">") != "Hugo>LocusLink>GO" {
		t.Errorf("path = %v", got["path"])
	}
	resp2, _ := http.Get(ts.URL + "/path?from=Hugo&to=Nowhere")
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("no-path status = %d", resp2.StatusCode)
	}
}

func TestAPIEndpoints(t *testing.T) {
	ts := testServer(t)
	resp, err := http.Get(ts.URL + "/api/sources")
	if err != nil {
		t.Fatal(err)
	}
	var sources []map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&sources); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(sources) != 3 { // LocusLink, Hugo, GO
		t.Errorf("sources = %v", sources)
	}

	resp, err = http.Get(ts.URL + "/api/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats["sources"] != float64(3) || stats["associations"] != float64(3) {
		t.Errorf("stats = %v", stats)
	}
	cache, ok := stats["cache"].(map[string]any)
	if !ok {
		t.Fatalf("stats missing cache counters: %v", stats)
	}
	for _, k := range []string{"hits", "misses", "entries"} {
		if _, ok := cache[k].(float64); !ok {
			t.Errorf("cache stats missing %q: %v", k, cache)
		}
	}
	for _, gone := range []string{"sql_parallel", "sql_batch", "sql_partitions"} {
		if _, ok := stats[gone]; ok {
			t.Errorf("stats still report %q: the engine has one execution leg and unpartitioned storage: %v", gone, stats)
		}
	}
	mvcc, ok := stats["sql_mvcc"].(map[string]any)
	if !ok {
		t.Fatalf("stats missing sql_mvcc block: %v", stats)
	}
	if _, ok := mvcc["enabled"]; ok {
		t.Errorf("sql_mvcc still reports %q: snapshot isolation is the only mode: %v", "enabled", mvcc)
	}
	if _, ok := mvcc["snapshots_aborted"]; ok {
		t.Errorf("sql_mvcc still reports %q: there is no snapshot retention budget: %v", "snapshots_aborted", mvcc)
	}
	for _, k := range []string{"epoch", "active_snapshots", "commits", "aborts", "conflicts", "vacuum_runs", "versions_vacuumed", "latch_waits", "background_vacuums"} {
		if _, ok := mvcc[k].(float64); !ok {
			t.Errorf("sql_mvcc missing %q: %v", k, mvcc)
		}
	}
}

func TestExplainEndpoint(t *testing.T) {
	ts := testServer(t)

	// JSON (the default) passes the versioned document through verbatim.
	resp, err := http.Get(ts.URL + "/api/explain?sql=" +
		url.QueryEscape("SELECT accession FROM object WHERE object_id = 1"))
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if doc["plan_version"] != float64(sqldb.PlanVersion) || doc["statement"] != "SELECT" {
		t.Fatalf("explain doc = %v", doc)
	}
	access, ok := doc["access"].(map[string]any)
	if !ok || access["path"] != "index-eq" {
		t.Fatalf("explain access = %v", doc["access"])
	}

	// Text format wraps the rendering.
	resp, err = http.Get(ts.URL + "/api/explain?format=text&sql=" +
		url.QueryEscape("SELECT accession FROM object"))
	if err != nil {
		t.Fatal(err)
	}
	var wrapped map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&wrapped); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !strings.HasPrefix(wrapped["plan"], "SELECT") {
		t.Fatalf("text plan = %q", wrapped["plan"])
	}

	// Errors: missing sql, bad SQL, bad format.
	for _, q := range []string{
		"/api/explain",
		"/api/explain?sql=" + url.QueryEscape("SELECT nope FROM nowhere"),
		"/api/explain?format=yaml&sql=" + url.QueryEscape("SELECT accession FROM object"),
	} {
		resp, err := http.Get(ts.URL + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s status = %d, want 400", q, resp.StatusCode)
		}
	}
}

func TestStatsCacheCountersMove(t *testing.T) {
	ts := testServer(t)
	cacheStats := func() map[string]float64 {
		resp, err := http.Get(ts.URL + "/api/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var stats struct {
			Cache map[string]float64 `json:"cache"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
			t.Fatal(err)
		}
		return stats.Cache
	}
	query := func() {
		resp, err := http.PostForm(ts.URL+"/query", url.Values{
			"source": {"LocusLink"}, "targets": {"Hugo"}, "mode": {"OR"},
		})
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	before := cacheStats()
	query()
	mid := cacheStats()
	if mid["misses"] <= before["misses"] {
		t.Fatalf("first query recorded no cache miss: %v -> %v", before, mid)
	}
	query()
	after := cacheStats()
	if after["hits"] <= mid["hits"] {
		t.Fatalf("repeated query recorded no cache hit: %v -> %v", mid, after)
	}
	if after["misses"] != mid["misses"] {
		t.Fatalf("repeated query missed the cache: %v -> %v", mid, after)
	}
}

// A warm Figure-5 request — the query page and the home page on a primed
// system — runs no scan or join: the source list and the counts come from
// gam's caches, not from a per-request catalog query.
func TestWarmPageRunsNoCatalogScan(t *testing.T) {
	sys := testSystem(t)
	ts := httptest.NewServer(New(sys))
	t.Cleanup(ts.Close)
	form := url.Values{"source": {"LocusLink"}, "mode": {"OR"}, "targets": {"Hugo\nGO"}}
	request := func() {
		resp, err := http.PostForm(ts.URL+"/query", form)
		if err != nil {
			t.Fatal(err)
		}
		if body := readBody(t, resp); !strings.Contains(body, "APRT") {
			t.Fatalf("query page lacks its result: %s", body)
		}
		resp.Body.Close()
		if resp, err = http.Get(ts.URL + "/"); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	request() // primes the executor
	plans := sys.SQLPlanStats()
	request()
	p := sys.SQLPlanStats()
	for name, moved := range map[string]uint64{
		"full scans":        p.FullScans - plans.FullScans,
		"hash joins":        p.HashJoins - plans.HashJoins,
		"index joins":       p.IndexJoins - plans.IndexJoins,
		"nested-loop joins": p.NestedJoins - plans.NestedJoins,
	} {
		if moved != 0 {
			t.Errorf("a warm request ran %d %s", moved, name)
		}
	}
}

func TestExportLimitOffset(t *testing.T) {
	ts := testServer(t)
	get := func(params string) (int, []string) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/export?source=LocusLink&mode=OR&target=Hugo&format=tsv" + params)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body := readBody(t, resp)
		return resp.StatusCode, strings.Split(strings.TrimRight(body, "\n"), "\n")
	}

	status, all := get("")
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	dataRows := len(all) - 1 // minus header
	if dataRows < 2 {
		t.Fatalf("export has %d data rows, want >= 2", dataRows)
	}

	status, limited := get("&limit=1")
	if status != http.StatusOK || len(limited)-1 != 1 {
		t.Fatalf("limit=1: status %d rows %d", status, len(limited)-1)
	}
	if limited[1] != all[1] {
		t.Errorf("limit=1 first row %q, want %q", limited[1], all[1])
	}

	status, shifted := get("&limit=1&offset=1")
	if status != http.StatusOK || len(shifted)-1 != 1 {
		t.Fatalf("limit=1&offset=1: status %d rows %d", status, len(shifted)-1)
	}
	if shifted[1] != all[2] {
		t.Errorf("offset=1 first row %q, want %q", shifted[1], all[2])
	}

	// Invalid window parameters get a clean 400, not a broken stream.
	status, _ = get("&limit=-3")
	if status != http.StatusBadRequest {
		t.Errorf("negative limit status = %d, want 400", status)
	}
}

func TestExportErrorBeforeStream(t *testing.T) {
	ts := testServer(t)
	resp, err := http.Get(ts.URL + "/export?source=NoSuchSource&target=Hugo")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); strings.Contains(ct, "tab-separated") {
		t.Errorf("error response carries export content type %q", ct)
	}
}

func TestQueryFormLimit(t *testing.T) {
	ts := testServer(t)
	form := url.Values{
		"source":  {"LocusLink"},
		"mode":    {"OR"},
		"targets": {"Hugo"},
		"limit":   {"1"},
	}
	resp, err := http.PostForm(ts.URL+"/query", form)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body := readBody(t, resp)
	if !strings.Contains(body, "Annotation view (1 rows)") {
		t.Errorf("limited query did not render 1 row:\n%s", body)
	}
	// Export links carry the window through.
	if !strings.Contains(body, "limit=1") {
		t.Error("export link does not carry limit")
	}
}
