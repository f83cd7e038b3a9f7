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
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
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

// pageMiddle is the per-request part of a page. Query is set exactly on a
// view page.
type pageMiddle struct {
	Error string
	Rows  int
	Query *genmapper.Query
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

// appendHTML appends the middle: the error line, and on a view page the
// row count and the three export links; a view page's table follows it.
// The bytes are those of the html/template oracle in middle_test.go, which
// is given the query as exportURL serializes it. There, an href gets
// html/template's URL filter and normalizer and then the attribute
// escaping. The first two pass the link through unchanged (it starts with
// "/", and every value in it is query-escaped), and the escaping changes
// only its "&" separators and the "+" of an escaped space, so the link is
// written once, escaped as it is built, and copied for the other formats.
func (m pageMiddle) appendHTML(dst []byte) []byte {
	if m.Error != "" {
		dst = append(dst, `<p style="color:red">`...)
		dst = view.AppendHTML(dst, m.Error)
		dst = append(dst, "</p>"...)
	}
	dst = append(dst, '\n')
	if m.Query == nil {
		return dst
	}
	dst = append(dst, "\n<h2>Annotation view ("...)
	dst = strconv.AppendInt(dst, int64(m.Rows), 10)
	dst = append(dst, ` rows)</h2>
<p><a href="`...)
	lo := len(dst)
	dst = appendExportLink(dst, m.Query)
	hi := len(dst)
	dst = append(dst, `&format=tsv">TSV</a> |
<a href="`...)
	dst = append(dst, dst[lo:hi]...)
	dst = append(dst, `&format=csv">CSV</a> |
<a href="`...)
	dst = append(dst, dst[lo:hi]...)
	return append(dst, `&format=json">JSON</a></p>
`...)
}

// appendExportLink appends the query as the GET parameters of /export, as
// an HTML attribute value: exportURL's bytes (middle_test.go) with each
// "&" written "&amp;" and each "+" "&#43;".
func appendExportLink(dst []byte, q *genmapper.Query) []byte {
	dst = append(dst, "/export?source="...)
	dst = appendQueryEscaped(dst, q.Source)
	dst = append(dst, "&amp;mode="...)
	dst = appendQueryEscaped(dst, q.Mode)
	for i, a := range q.Accessions {
		if i == 0 {
			dst = append(dst, "&amp;accessions="...)
		} else {
			dst = append(dst, "%2C"...)
		}
		dst = appendQueryEscaped(dst, a)
	}
	for _, t := range q.Targets {
		dst = append(dst, "&amp;target="...)
		if t.Negate {
			dst = append(dst, "%21"...)
		}
		dst = appendQueryEscaped(dst, t.Source)
		for i, step := range t.Via {
			if i == 0 {
				dst = append(dst, "&#43;via&#43;"...)
			} else {
				dst = append(dst, "%3E"...)
			}
			dst = appendQueryEscaped(dst, step)
		}
	}
	if q.Limit > 0 {
		dst = append(dst, "&amp;limit="...)
		dst = strconv.AppendInt(dst, int64(q.Limit), 10)
	}
	if q.Offset > 0 {
		dst = append(dst, "&amp;offset="...)
		dst = strconv.AppendInt(dst, int64(q.Offset), 10)
	}
	return dst
}

// queryEscapes is what a byte of a query value becomes in an export link:
// nothing for RFC 3986's unreserved bytes, which are copied, else what
// url.QueryEscape (behind template.URLQueryEscaper) writes for it, HTML
// escaped for the attribute: "+" for a space, written "&#43;", and %XX
// for any other byte.
var queryEscapes = func() (t [256]string) {
	const hex = "0123456789ABCDEF"
	for c := 0; c < 256; c++ {
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9',
			c == '-', c == '.', c == '_', c == '~':
		case c == ' ':
			t[c] = "&#43;"
		default:
			t[c] = string([]byte{'%', hex[c>>4], hex[c&15]})
		}
	}
	return t
}()

// appendQueryEscaped appends s as a value of an export link.
func appendQueryEscaped(dst []byte, s string) []byte {
	start := 0
	for i := 0; i < len(s); i++ {
		if r := queryEscapes[s[i]]; r != "" {
			dst = append(append(dst, s[start:i]...), r...)
			start = i + 1
		}
	}
	return append(dst, s[start:]...)
}

// pageBufSize is the size of a page buffer: a page that fits leaves in one
// write, a larger one in writes of this size.
const pageBufSize = 64 << 10

var pageBufs = sync.Pool{New: func() any { b := make([]byte, 0, pageBufSize); return &b }}

// pageWriter assembles a page in a pooled buffer. The page goes out when
// it ends, in one write with its Content-Length, unless it outgrows the
// buffer first: then each full buffer is written as it fills, and the
// response is chunked.
type pageWriter struct {
	w    http.ResponseWriter
	buf  *[]byte
	sent bool // a full buffer went out: the headers are written
}

func newPageWriter(w http.ResponseWriter) *pageWriter {
	pw := &pageWriter{w: w, buf: pageBufs.Get().(*[]byte)}
	*pw.buf = (*pw.buf)[:0]
	return pw
}

// head appends the shell and the middle that start every page.
func (pw *pageWriter) head(shell []byte, m pageMiddle) {
	pw.Write(shell)
	*pw.buf = m.appendHTML(*pw.buf)
}

// Write appends p to the page, writing out each buffer it fills.
func (pw *pageWriter) Write(p []byte) (int, error) {
	n := len(p)
	for b := *pw.buf; len(b)+len(p) > pageBufSize; b = *pw.buf {
		k := max(0, pageBufSize-len(b))
		*pw.buf = append(b, p[:k]...)
		p = p[k:]
		if err := pw.flush(); err != nil {
			return n - len(p), err
		}
	}
	*pw.buf = append(*pw.buf, p...)
	return n, nil
}

func (pw *pageWriter) flush() error {
	if !pw.sent {
		pw.sent = true
		setHTML(pw.w)
	}
	_, err := pw.w.Write(*pw.buf)
	*pw.buf = (*pw.buf)[:0]
	return err
}

// end writes what the buffer holds, with the page's Content-Length if
// nothing went out before, and returns the buffer to the pool. A failed
// write means the client is gone; there is nothing to tell it.
func (pw *pageWriter) end() {
	if !pw.sent {
		pw.w.Header().Set("Content-Length", strconv.Itoa(len(*pw.buf)))
	}
	pw.flush()
	pw.release()
}

// release returns the buffer to the pool unless it grew past its size.
func (pw *pageWriter) release() {
	if cap(*pw.buf) == pageBufSize {
		pageBufs.Put(pw.buf)
	}
	pw.buf = nil
}

func setHTML(w http.ResponseWriter) { w.Header().Set("Content-Type", "text/html; charset=utf-8") }

// renderPage writes a whole page without a view: the home page, or the
// query page showing an error.
func (s *Server) renderPage(w http.ResponseWriter, m pageMiddle) {
	shell, err := s.pageShell()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	pw := newPageWriter(w)
	pw.head(shell, m)
	pw.Write([]byte(pageTail))
	pw.end()
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
	for hasVia {
		var step string
		step, via, hasVia = strings.Cut(via, ">")
		if s := strings.TrimSpace(step); s != "" {
			t.Via = append(t.Via, s)
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
	if accs := r.FormValue("accessions"); accs != "" {
		q.Accessions = make([]string, 0, strings.Count(accs, "\n")+1)
		for more := true; more; {
			var line string
			line, accs, more = strings.Cut(accs, "\n")
			if acc := strings.TrimSpace(line); acc != "" {
				q.Accessions = append(q.Accessions, acc)
			}
		}
	}
	for lines, more := r.FormValue("targets"), true; more; {
		var line string
		line, lines, more = strings.Cut(lines, "\n")
		if line = strings.TrimSpace(line); line == "" {
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

// handleQuery serves the annotation view page (Figure 6b): the shell, the
// middle, the view's table as view.Stream's html writer renders it, and
// pageTail, assembled in one pageWriter. An error before the table's
// first byte (a bad form, view generation, row 0's render) gets the full
// page with the error line instead; an error after it ends the body where
// it stands, as /export does.
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
	pw := newPageWriter(w)
	pw.head(shell, pageMiddle{Rows: len(v.Rows), Query: &q})
	head := len(*pw.buf)
	if err := view.Stream(s.sys.Repo(), v, view.Options{WithText: q.WithText}, pw, "html", 0, nil); err != nil {
		if !pw.sent && len(*pw.buf) == head {
			pw.release()
			s.renderPage(w, pageMiddle{Error: err.Error()})
			return
		}
		pw.end()
		return
	}
	pw.Write([]byte(pageTail))
	pw.end()
}

// exportFlushRows is how many rendered rows an export streams between
// flushes to the client.
const exportFlushRows = 512

// deferredHeaderWriter delays a response's headers until the first
// payload byte: a request that fails before any output can still get a
// clean error response.
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
