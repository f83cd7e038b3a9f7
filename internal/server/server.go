// Package server provides GenMapper's interactive query interface (paper
// §5.1, Figure 6) over HTTP: query specification (source, accessions,
// targets, AND/OR combination, per-target negation), annotation-view
// display, object information drill-down, path search, and export in
// several download formats.
package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"html/template"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync/atomic"

	"genmapper"
	"genmapper/internal/ops"
	"genmapper/internal/view"
)

// Config controls optional server features.
type Config struct {
	// EnablePprof registers net/http/pprof handlers under /debug/pprof/ so
	// the serving path can be profiled. Off by default: the endpoints expose
	// internals and should only be enabled deliberately (-pprof flag).
	EnablePprof bool
}

// Server wires a GenMapper system into an http.Handler.
type Server struct {
	sys *genmapper.System
	mux *http.ServeMux
	// shell caches the page shell of the latest gam publish seen.
	shell atomic.Pointer[cachedShell]
}

// New builds the handler for a system with default configuration.
func New(sys *genmapper.System) *Server { return NewWithConfig(sys, Config{}) }

// NewWithConfig builds the handler for a system.
func NewWithConfig(sys *genmapper.System, cfg Config) *Server {
	s := &Server{sys: sys, mux: http.NewServeMux()}
	s.mux.HandleFunc("/", s.handleHome)
	s.mux.HandleFunc("/query", s.handleQuery)
	s.mux.HandleFunc("/export", s.handleExport)
	s.mux.HandleFunc("/object", s.handleObject)
	s.mux.HandleFunc("/path", s.handlePath)
	s.mux.HandleFunc("/api/sources", s.handleSources)
	s.mux.HandleFunc("/api/stats", s.handleStats)
	s.mux.HandleFunc("/api/explain", s.handleExplain)
	if cfg.EnablePprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// The Figure-5 page is a shell (doctype, CSS, stats line, source list,
// query form) that changes only when gam publishes, a short per-request
// middle (the error line, or the view's row count and export links), the
// view's table as the html RowWriter streams it, and pageTail.
var pageTmpl = template.Must(template.New("shell").Parse(`<!DOCTYPE html>
<html><head><title>GenMapper</title>
<style>
body { font-family: sans-serif; margin: 2em; }
table { border-collapse: collapse; margin-top: 1em; }
th, td { border: 1px solid #999; padding: 2px 8px; font-size: 90%; }
th { background: #dde; }
textarea { width: 30em; }
.null { color: #bbb; }
</style></head><body>
<h1>GenMapper</h1>
<p>{{.StatsLine}}</p>
<form method="POST" action="/query">
<h2>Query specification</h2>
<p>Source:
<select name="source">{{range .Sources}}<option value="{{.Name}}">{{.Name}}</option>{{end}}</select>
&nbsp; Combine mappings with:
<select name="mode"><option>OR</option><option>AND</option></select>
</p>
<p>Accessions (one per line, empty = whole source):<br>
<textarea name="accessions" rows="4"></textarea></p>
<p>Targets (one per line, prefix with <code>!</code> to negate, suffix
<code>via A&gt;B&gt;C</code> for an explicit path):<br>
<textarea name="targets" rows="4"></textarea></p>
<p>Limit: <input name="limit" size="8">
&nbsp; Offset: <input name="offset" size="8">
&nbsp; (empty = all rows)</p>
<p><button type="submit">Generate view</button></p>
</form>
`))

const pageTail = "\n</body></html>"

type shellData struct {
	Sources   []*genmapper.Source
	StatsLine string
}

// pageMiddle is the per-request part of a page. ExportBase is set exactly
// on a view page: it is never empty there.
type pageMiddle struct {
	Error      string
	Rows       int
	ExportBase string
}

// cachedShell is a rendered shell, tagged with the gam publish counter
// value loaded before the catalog it shows was read.
type cachedShell struct {
	published uint64
	html      []byte
}

// pageShell returns the page shell of gam's current publish, rendering it
// only when gam has published since the cached copy. A hit reads one
// atomic counter and takes no gam lock.
func (s *Server) pageShell() ([]byte, error) {
	pub := s.sys.Repo().Published() // before the catalog: see Repo.Published
	if c := s.shell.Load(); c != nil && c.published == pub {
		return c.html, nil
	}
	d := shellData{Sources: s.sys.Sources()}
	if st, err := s.sys.Stats(); err == nil {
		d.StatsLine = st.String()
	}
	var buf bytes.Buffer
	if err := pageTmpl.Execute(&buf, d); err != nil {
		return nil, err
	}
	s.shell.Store(&cachedShell{published: pub, html: buf.Bytes()})
	return buf.Bytes(), nil
}

func setHTML(w http.ResponseWriter) { w.Header().Set("Content-Type", "text/html; charset=utf-8") }

// writeHead writes the shell and the middle of a page.
func writeHead(w http.ResponseWriter, shell []byte, m pageMiddle) error {
	if _, err := w.Write(shell); err != nil {
		return err
	}
	_, err := io.WriteString(w, m.html())
	return err
}

// htmlEscaper escapes text for HTML element content and quoted attribute
// values byte for byte as html/template does: view's cell escaper, as a
// Replacer.
var htmlEscaper = strings.NewReplacer("\x00", "\uFFFD", `"`, "&#34;", "&", "&amp;",
	"'", "&#39;", "+", "&#43;", "<", "&lt;", ">", "&gt;")

// html renders the middle: the error line, and on a view page the row
// count and the three export links; a view page's table follows it. The
// bytes are those of the html/template oracle in middle_test.go. There,
// an href gets html/template's URL filter and normalizer before the
// attribute escaping; both pass exportURL's output through unchanged (it
// starts with "/", and every value in it went through URLQueryEscaper), so
// only the escaping is done here.
func (m pageMiddle) html() string {
	var b strings.Builder
	if m.Error != "" {
		b.WriteString(`<p style="color:red">`)
		htmlEscaper.WriteString(&b, m.Error)
		b.WriteString("</p>")
	}
	b.WriteString("\n")
	if m.ExportBase != "" {
		fmt.Fprintf(&b, `
<h2>Annotation view (%d rows)</h2>
<p><a href="%[2]s&format=tsv">TSV</a> |
<a href="%[2]s&format=csv">CSV</a> |
<a href="%[2]s&format=json">JSON</a></p>
`, m.Rows, htmlEscaper.Replace(m.ExportBase))
	}
	return b.String()
}

// renderPage writes a whole page without a view: the home page, or the
// query page showing an error. A failed write means the client is gone;
// nothing is appended to what was sent.
func (s *Server) renderPage(w http.ResponseWriter, m pageMiddle) {
	shell, err := s.pageShell()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	setHTML(w)
	if writeHead(w, shell, m) == nil {
		io.WriteString(w, pageTail)
	}
}

func (s *Server) handleHome(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	s.renderPage(w, pageMiddle{})
}

// parseTargetSpec parses one target specification of the form
// "[!]Name[ via A>B>C]".
func parseTargetSpec(spec string) genmapper.Target {
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

// parseRowWindow reads the optional limit/offset form fields.
func parseRowWindow(r *http.Request, q *genmapper.Query) error {
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
			return fmt.Errorf("%s must be a non-negative integer, got %q", f.name, s)
		}
		*f.dst = n
	}
	return nil
}

// parseQuerySpec turns form fields into a genmapper.Query.
func parseQuerySpec(r *http.Request) (genmapper.Query, error) {
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
		t := parseTargetSpec(line)
		if t.Source == "" {
			return q, fmt.Errorf("empty target name in %q", line)
		}
		q.Targets = append(q.Targets, t)
	}
	if len(q.Targets) == 0 {
		return q, fmt.Errorf("no targets specified")
	}
	if err := parseRowWindow(r, &q); err != nil {
		return q, err
	}
	return q, nil
}

// handleQuery serves the annotation view page (Figure 6b). The view's
// rows stream through view.Stream's html writer; the shell and middle go
// out on its first byte. An error before that byte (a bad form, view
// generation, row 0's render) gets the full page with the error line; an
// error after it ends the body where it stands, as /export does.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Redirect(w, r, "/", http.StatusSeeOther)
		return
	}
	var v *ops.View
	q, err := parseQuerySpec(r)
	if err == nil {
		v, err = s.sys.GenerateView(q)
	}
	if err != nil {
		s.renderPage(w, pageMiddle{Error: err.Error()})
		return
	}
	shell, err := s.pageShell()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	dw := &deferredHeaderWriter{w: w, start: func() error {
		setHTML(w)
		return writeHead(w, shell, pageMiddle{Rows: len(v.Rows), ExportBase: exportURL(q)})
	}}
	if err := view.Stream(s.sys.Repo(), v, view.Options{WithText: q.WithText}, dw, "html", 0, nil); err != nil {
		if !dw.started {
			s.renderPage(w, pageMiddle{Error: err.Error()})
		}
		return
	}
	io.WriteString(w, pageTail)
}

// exportURL serializes a query into GET parameters for the export links.
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

// exportFlushRows is how many rendered rows an export streams between
// flushes to the client.
const exportFlushRows = 512

// deferredHeaderWriter delays a response's headers (and, for the query
// page, its head) until the first payload byte: a request that fails
// before any output can still get a clean error response.
type deferredHeaderWriter struct {
	w       http.ResponseWriter
	start   func() error
	started bool
}

func (d *deferredHeaderWriter) Write(p []byte) (int, error) {
	if !d.started {
		d.started = true
		if err := d.start(); err != nil {
			return 0, err
		}
	}
	return d.w.Write(p)
}

// handleExport streams the annotation view to the client row by row: the
// table is never materialized server-side, the response flushes every
// exportFlushRows rows, and result size is bounded by the network, not by
// server memory.
func (s *Server) handleExport(w http.ResponseWriter, r *http.Request) {
	q := genmapper.Query{
		Source: r.FormValue("source"),
		Mode:   r.FormValue("mode"),
	}
	if accs := r.FormValue("accessions"); accs != "" {
		for _, a := range strings.Split(accs, ",") {
			if a = strings.TrimSpace(a); a != "" {
				q.Accessions = append(q.Accessions, a)
			}
		}
	}
	for _, spec := range r.URL.Query()["target"] {
		q.Targets = append(q.Targets, parseTargetSpec(spec))
	}
	if err := parseRowWindow(r, &q); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	format := strings.ToLower(r.FormValue("format"))
	if format != "csv" && format != "json" {
		format = "tsv"
	}
	dw := &deferredHeaderWriter{w: w, start: func() error {
		switch format {
		case "csv":
			w.Header().Set("Content-Type", "text/csv")
			w.Header().Set("Content-Disposition", `attachment; filename="view.csv"`)
		case "json":
			w.Header().Set("Content-Type", "application/json")
		default:
			w.Header().Set("Content-Type", "text/tab-separated-values")
			w.Header().Set("Content-Disposition", `attachment; filename="view.tsv"`)
		}
		return nil
	}}
	flusher, _ := w.(http.Flusher)
	flush := func() error {
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	}
	if err := s.sys.StreamAnnotationView(q, dw, format, exportFlushRows, flush); err != nil {
		if !dw.started {
			http.Error(w, err.Error(), http.StatusBadRequest)
		}
		// Mid-stream errors are past the status line; the truncated body is
		// all we can signal.
		return
	}
}

func (s *Server) handleObject(w http.ResponseWriter, r *http.Request) {
	source := r.FormValue("source")
	accession := r.FormValue("accession")
	obj, err := s.sys.ObjectInfo(source, accession)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	writeJSON(w, map[string]any{
		"source":    source,
		"accession": obj.Accession,
		"text":      obj.Text,
		"hasNumber": obj.HasNumber,
		"number":    obj.Number,
	})
}

func (s *Server) handlePath(w http.ResponseWriter, r *http.Request) {
	from, to, via := r.FormValue("from"), r.FormValue("to"), r.FormValue("via")
	var path []string
	var err error
	if via != "" {
		path, err = s.sys.FindPathVia(from, via, to)
	} else {
		path, err = s.sys.FindPath(from, to)
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	writeJSON(w, map[string]any{"path": path})
}

func (s *Server) handleSources(w http.ResponseWriter, r *http.Request) {
	type srcJSON struct {
		Name      string `json:"name"`
		Content   string `json:"content"`
		Structure string `json:"structure"`
		Release   string `json:"release"`
	}
	var out []srcJSON
	for _, src := range s.sys.Sources() {
		out = append(out, srcJSON{
			Name: src.Name, Content: string(src.Content),
			Structure: string(src.Structure), Release: src.Release,
		})
	}
	writeJSON(w, out)
}

// handleExplain serves GET /api/explain?sql=...&format=json|text: the
// EXPLAIN document of the statement, never executing it. JSON documents
// are passed through verbatim so the byte-stable plan_version contract
// survives the HTTP surface; text renderings are wrapped in {"plan": ...}.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	sql := r.URL.Query().Get("sql")
	if sql == "" {
		http.Error(w, "missing sql parameter", http.StatusBadRequest)
		return
	}
	format := r.URL.Query().Get("format")
	out, err := s.sys.SQLExplain(sql, format)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if format == "text" {
		writeJSON(w, map[string]any{"plan": out})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, out)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st, err := s.sys.Stats()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	cs := s.sys.CacheStats()
	writeJSON(w, map[string]any{
		"sources":      st.Sources,
		"objects":      st.Objects,
		"mappings":     st.Mappings,
		"associations": st.Associations,
		"cache": map[string]any{
			"hits":    cs.Hits,
			"misses":  cs.Misses,
			"entries": cs.Entries,
		},
		"sql_stmt_cache": s.sys.SQLStmtCacheStats(),
		"sql_plans":      s.sys.SQLPlanStats(),
		"sql_mvcc":       s.sys.SQLMVCCStats(),
		"wal":            s.sys.SQLWALStats(),
	})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
