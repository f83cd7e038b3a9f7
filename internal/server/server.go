// Package server provides GenMapper's interactive query interface (paper
// §5.1, Figure 6) over HTTP: query specification (source, accessions,
// targets, AND/OR combination, per-target negation), annotation-view
// display, object information drill-down, path search, and export in
// several download formats.
package server

import (
	"encoding/json"
	"fmt"
	"html/template"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"

	"genmapper"
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

var pageTmpl = template.Must(template.New("page").Parse(`<!DOCTYPE html>
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
{{if .Error}}<p style="color:red">{{.Error}}</p>{{end}}
{{if .Table}}
<h2>Annotation view ({{len .Table.Rows}} rows)</h2>
<p><a href="{{.ExportBase}}&format=tsv">TSV</a> |
<a href="{{.ExportBase}}&format=csv">CSV</a> |
<a href="{{.ExportBase}}&format=json">JSON</a></p>
<table><tr>{{range .Table.Columns}}<th>{{.}}</th>{{end}}</tr>
{{range .Table.Rows}}<tr>{{range .}}<td>{{if .}}{{.}}{{else}}<span class="null">-</span>{{end}}</td>{{end}}</tr>{{end}}
</table>
{{end}}
</body></html>`))

type pageData struct {
	Sources    []*genmapper.Source
	StatsLine  string
	Table      *genmapper.Table
	Error      string
	ExportBase string
}

func (s *Server) pageData() pageData {
	d := pageData{Sources: s.sys.Sources()}
	if st, err := s.sys.Stats(); err == nil {
		d.StatsLine = st.String()
	}
	return d
}

func (s *Server) handleHome(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	s.renderPage(w, s.pageData())
}

func (s *Server) renderPage(w http.ResponseWriter, d pageData) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := pageTmpl.Execute(w, d); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
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

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Redirect(w, r, "/", http.StatusSeeOther)
		return
	}
	d := s.pageData()
	q, err := parseQuerySpec(r)
	if err != nil {
		d.Error = err.Error()
		s.renderPage(w, d)
		return
	}
	table, err := s.sys.AnnotationView(q)
	if err != nil {
		d.Error = err.Error()
		s.renderPage(w, d)
		return
	}
	d.Table = table
	d.ExportBase = exportURL(q)
	s.renderPage(w, d)
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

// deferredHeaderWriter delays the export headers until the first payload
// byte: a query that fails validation (before any output) can still get a
// clean error status and plain-text body.
type deferredHeaderWriter struct {
	w          http.ResponseWriter
	setHeaders func()
	started    bool
	n          int
}

func (d *deferredHeaderWriter) Write(p []byte) (int, error) {
	if !d.started {
		d.setHeaders()
		d.started = true
	}
	d.n += len(p)
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
	dw := &deferredHeaderWriter{w: w, setHeaders: func() {
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
	}}
	flusher, _ := w.(http.Flusher)
	flush := func() error {
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	}
	if err := s.sys.StreamAnnotationView(q, dw, format, exportFlushRows, flush); err != nil {
		if dw.n == 0 {
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
