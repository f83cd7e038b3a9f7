// Package view renders the object-ID views produced by ops.GenerateView
// into the tabular annotation views users see (paper Figure 3 / Figure 6b):
// accessions, optional descriptive text, and export in several formats for
// further analysis in external tools (§5.1: "All results can be saved and
// downloaded in different formats").
//
// Rendering has two shapes sharing one formatting engine (RowWriter):
// Render materializes a Table, and Stream writes rows to an io.Writer as
// they are resolved, so an export's memory use stays O(1) in the number of
// rows and the first byte leaves before the last row is rendered.
//
// A cell is resolved through gam.Repo.Object, whose object cache is the
// only place an object ID becomes a row: a warm render reads the shared
// rows with no SQL and no map of its own, and a cold one pays one point
// query per distinct object, once per cache generation.
package view

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"genmapper/internal/gam"
	"genmapper/internal/ops"
)

// Table is a rendered annotation view: a header row of source/target names
// and data rows of accessions. Empty cells are missing annotations (NULL).
type Table struct {
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

// RowCount returns the number of data rows.
func (t *Table) RowCount() int { return len(t.Rows) }

// Options controls rendering.
type Options struct {
	// WithText appends the object's descriptive text to the accession as
	// "accession (text)" — the style of Figure 6c's object information.
	WithText bool
	// NullText is printed for missing annotations (default empty cell).
	NullText string
}

// renderer resolves object IDs to display cells, each through gam's shared
// object row (Repo.Object): gam's object cache is the only one.
type renderer struct {
	repo *gam.Repo
	opts Options
}

// header resolves the view's source and target names.
func (r *renderer) header(v *ops.View) ([]string, error) {
	cols := make([]string, 0, len(v.Targets)+1)
	src := r.repo.SourceByID(v.Source)
	if src == nil {
		return nil, fmt.Errorf("view: unknown source %d", v.Source)
	}
	cols = append(cols, src.Name)
	for _, tgt := range v.Targets {
		ts := r.repo.SourceByID(tgt)
		if ts == nil {
			return nil, fmt.Errorf("view: unknown target source %d", tgt)
		}
		cols = append(cols, ts.Name)
	}
	return cols, nil
}

// cell resolves one object ID to its display string.
func (r *renderer) cell(id gam.ObjectID) (string, error) {
	if id == 0 {
		return r.opts.NullText, nil
	}
	obj, err := r.repo.Object(id)
	if err != nil {
		return "", err
	}
	if obj == nil {
		return "", fmt.Errorf("view: dangling object id %d", id)
	}
	if r.opts.WithText && obj.Text != "" {
		return obj.Accession + " (" + obj.Text + ")", nil
	}
	return obj.Accession, nil
}

// row resolves one view row into cells (len(cells) == len(row) required).
func (r *renderer) row(vr ops.ViewRow, cells []string) error {
	for i, id := range vr {
		s, err := r.cell(id)
		if err != nil {
			return err
		}
		cells[i] = s
	}
	return nil
}

// Render resolves a generated view's object IDs to accessions.
func Render(repo *gam.Repo, v *ops.View, opts Options) (*Table, error) {
	r := &renderer{repo: repo, opts: opts}
	cols, err := r.header(v)
	if err != nil {
		return nil, err
	}
	t := &Table{Columns: cols}
	for _, vr := range v.Rows {
		cells := make([]string, len(vr))
		if err := r.row(vr, cells); err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, cells)
	}
	return t, nil
}

// Stream renders a generated view row by row into the named format (tsv,
// csv, json, text or html), never materializing the table. When flush is non-nil
// it is invoked after every flushEvery rows (and once at the end), after
// the writer's own buffers are drained — the hook HTTP handlers use to
// push partial results to the client.
//
// text format inherently buffers (column widths need every row); tsv and
// html write the header at once and hand rows on in writes of about 4 kB;
// csv and json emit each row as it is rendered.
func Stream(repo *gam.Repo, v *ops.View, opts Options, w io.Writer, format string, flushEvery int, flush func() error) error {
	r := &renderer{repo: repo, opts: opts}
	cols, err := r.header(v)
	if err != nil {
		return err
	}
	rw, err := NewRowWriter(w, format)
	if err != nil {
		return err
	}
	// Resolve the first row before emitting the header: a render failure
	// on row 0 (e.g. a dangling object ID) then surfaces before any byte
	// is written, so HTTP handlers can still report a clean error instead
	// of a 200 with a header-only body.
	cells := make([]string, len(cols))
	if len(v.Rows) > 0 {
		if len(v.Rows[0]) != len(cells) {
			return fmt.Errorf("view: row 0 has %d values, want %d", len(v.Rows[0]), len(cells))
		}
		if err := r.row(v.Rows[0], cells); err != nil {
			return err
		}
	}
	if err := rw.Header(cols); err != nil {
		return err
	}
	for i, vr := range v.Rows {
		if len(vr) != len(cells) {
			return fmt.Errorf("view: row %d has %d values, want %d", i, len(vr), len(cells))
		}
		if i > 0 { // row 0 is already resolved into cells
			if err := r.row(vr, cells); err != nil {
				return err
			}
		}
		if err := rw.Row(cells); err != nil {
			return err
		}
		if flush != nil && flushEvery > 0 && (i+1)%flushEvery == 0 {
			if err := rw.Flush(); err != nil {
				return err
			}
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if err := rw.Close(); err != nil {
		return err
	}
	if flush != nil {
		return flush()
	}
	return nil
}

// ---------------------------------------------------------------------------
// Row writers: the one formatting engine behind Table.Write and Stream.

// RowWriter emits a rendered view one row at a time. The cells slice
// passed to Row is only valid during the call. Close finishes the output
// (format trailers, final buffer drain); Flush pushes everything written
// so far to the underlying writer where the format allows it.
type RowWriter interface {
	Header(cols []string) error
	Row(cells []string) error
	Flush() error
	Close() error
}

// NewRowWriter returns the writer for the named format: text, tsv, csv,
// json or html.
func NewRowWriter(w io.Writer, format string) (RowWriter, error) {
	switch strings.ToLower(format) {
	case "tsv":
		return &tsvWriter{newChunkWriter(w)}, nil
	case "html":
		return &htmlWriter{newChunkWriter(w)}, nil
	case "csv":
		return &csvWriter{cw: csv.NewWriter(w)}, nil
	case "json":
		return &jsonWriter{w: w}, nil
	case "text", "":
		return &textWriter{w: w}, nil
	}
	return nil, fmt.Errorf("view: unknown export format %q (text, tsv, csv, json, html)", format)
}

// chunkWriter collects rows for a RowWriter in buf and hands them to w in
// writes of about writeChunk bytes.
type chunkWriter struct {
	w   io.Writer
	buf []byte
}

// writeChunk is the buffered size at which a chunkWriter hands rows to w.
const writeChunk = 4096

// rowHeadroom is room past writeChunk for the row that crosses it, so a
// stream of ordinary rows never grows its buffer.
const rowHeadroom = 1024

// newChunkWriter gives the writer its one buffer up front, instead of
// letting the first chunk grow it by doubling.
func newChunkWriter(w io.Writer) chunkWriter {
	return chunkWriter{w: w, buf: make([]byte, 0, writeChunk+rowHeadroom)}
}

// rowDone writes the buffered rows once they reach writeChunk bytes.
func (c *chunkWriter) rowDone() error {
	if len(c.buf) >= writeChunk {
		return c.Flush()
	}
	return nil
}

func (c *chunkWriter) Flush() error {
	if len(c.buf) == 0 {
		return nil
	}
	_, err := c.w.Write(c.buf)
	c.buf = c.buf[:0]
	return err
}

func (c *chunkWriter) Close() error { return c.Flush() }

// tsvWriter writes tab-separated values, one line per row. The header
// goes out at once (it is the stream's first byte); rows leave in chunks.
type tsvWriter struct{ chunkWriter }

func (t *tsvWriter) line(cells []string) {
	b := t.buf
	for i, c := range cells {
		if i > 0 {
			b = append(b, '\t')
		}
		b = append(b, c...)
	}
	t.buf = append(b, '\n')
}

func (t *tsvWriter) Header(cols []string) error {
	t.line(cols)
	return t.Flush()
}

func (t *tsvWriter) Row(cells []string) error {
	t.line(cells)
	return t.rowDone()
}

// htmlWriter writes the table element of the Figure-5 page: a header row
// of <th> cells, one <tr> of <td> cells per row, and an empty cell as a
// greyed "-". Cells are escaped by AppendHTML, byte for byte what
// html/template writes for {{.}} in element content. The header goes out
// at once (it is the stream's first byte); rows leave in chunks. A row is
// built in a local slice and stored back once: storing each cell's append
// into buf, a heap pointer, costs a GC write barrier per cell while the
// collector marks.
type htmlWriter struct{ chunkWriter }

func (h *htmlWriter) Header(cols []string) error {
	h.buf = append(h.buf, "<table><tr>"...)
	for _, c := range cols {
		h.buf = append(h.buf, "<th>"...)
		h.buf = AppendHTML(h.buf, c)
		h.buf = append(h.buf, "</th>"...)
	}
	h.buf = append(h.buf, "</tr>\n"...)
	return h.Flush()
}

func (h *htmlWriter) Row(cells []string) error {
	b := append(h.buf, "<tr>"...)
	for _, c := range cells {
		if c == "" {
			b = append(b, `<td><span class="null">-</span></td>`...)
			continue
		}
		b = append(b, "<td>"...)
		b = AppendHTML(b, c)
		b = append(b, "</td>"...)
	}
	h.buf = append(b, "</tr>"...)
	return h.rowDone()
}

func (h *htmlWriter) Close() error {
	h.buf = append(h.buf, "\n</table>\n"...)
	return h.Flush()
}

// htmlEscapes is html/template's replacement table for element content:
// these seven bytes are replaced, every other byte — invalid UTF-8 and
// non-characters included — is copied. No multi-byte sequence decodes to
// one of them, so the byte-wise walk equals the template's rune-wise one.
var htmlEscapes = [256]string{
	0:    "\uFFFD",
	'"':  "&#34;",
	'&':  "&amp;",
	'\'': "&#39;",
	'+':  "&#43;",
	'<':  "&lt;",
	'>':  "&gt;",
}

// AppendHTML appends s escaped for HTML element content or a quoted
// attribute value, byte for byte as html/template escapes {{.}} there.
func AppendHTML(dst []byte, s string) []byte {
	start := 0
	for i := 0; i < len(s); i++ {
		if r := htmlEscapes[s[i]]; r != "" {
			dst = append(dst, s[start:i]...)
			dst = append(dst, r...)
			start = i + 1
		}
	}
	return append(dst, s[start:]...)
}

// csvWriter writes RFC-4180 CSV.
type csvWriter struct {
	cw *csv.Writer
}

func (c *csvWriter) Header(cols []string) error { return c.cw.Write(cols) }
func (c *csvWriter) Row(cells []string) error   { return c.cw.Write(cells) }

func (c *csvWriter) Flush() error {
	c.cw.Flush()
	return c.cw.Error()
}

func (c *csvWriter) Close() error { return c.Flush() }

// jsonWriter writes the same indented JSON document WriteJSON produces
// ({"columns": [...], "rows": [...]}) incrementally: each row is encoded
// and written as it arrives. A rowless table writes "rows": null (the
// encoding of a never-appended nil Rows slice) unless emptyAsArray is set,
// which Table.Write uses to keep encoding a non-nil empty Rows as [].
type jsonWriter struct {
	w            io.Writer
	rows         int
	emptyAsArray bool
}

func (j *jsonWriter) Header(cols []string) error {
	enc, err := json.MarshalIndent(cols, "  ", "  ")
	if err != nil {
		return err
	}
	if _, err := io.WriteString(j.w, "{\n  \"columns\": "); err != nil {
		return err
	}
	if _, err := j.w.Write(enc); err != nil {
		return err
	}
	_, err = io.WriteString(j.w, ",\n  \"rows\": ")
	return err
}

func (j *jsonWriter) Row(cells []string) error {
	sep := "[\n    "
	if j.rows > 0 {
		sep = ",\n    "
	}
	j.rows++
	enc, err := json.MarshalIndent(cells, "    ", "  ")
	if err != nil {
		return err
	}
	if _, err := io.WriteString(j.w, sep); err != nil {
		return err
	}
	_, err = j.w.Write(enc)
	return err
}

func (j *jsonWriter) Flush() error { return nil }

func (j *jsonWriter) Close() error {
	tail := "\n  ]\n}\n"
	if j.rows == 0 {
		tail = "null\n}\n"
		if j.emptyAsArray {
			tail = "[]\n}\n"
		}
	}
	_, err := io.WriteString(j.w, tail)
	return err
}

// textWriter renders the fixed-width, human-readable table (the CLI
// counterpart of Figure 3). Column widths need every row, so this format
// buffers until Close.
type textWriter struct {
	w      io.Writer
	cols   []string
	rows   [][]string
	widths []int
}

func (t *textWriter) measure(cells []string) {
	for i, c := range cells {
		if i < len(t.widths) && len(c) > t.widths[i] {
			t.widths[i] = len(c)
		}
	}
}

func (t *textWriter) Header(cols []string) error {
	t.cols = append([]string(nil), cols...)
	t.widths = make([]int, len(cols))
	t.measure(cols)
	return nil
}

func (t *textWriter) Row(cells []string) error {
	cp := append([]string(nil), cells...)
	t.rows = append(t.rows, cp)
	t.measure(cp)
	return nil
}

func (t *textWriter) Flush() error { return nil }

func (t *textWriter) Close() error {
	line := func(cells []string) error {
		var sb strings.Builder
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(cell)
			for pad := len(cell); pad < t.widths[i]; pad++ {
				sb.WriteByte(' ')
			}
		}
		_, err := fmt.Fprintln(t.w, strings.TrimRight(sb.String(), " "))
		return err
	}
	if err := line(t.cols); err != nil {
		return err
	}
	sep := make([]string, len(t.cols))
	for i := range sep {
		sep[i] = strings.Repeat("-", t.widths[i])
	}
	if err := line(sep); err != nil {
		return err
	}
	for _, row := range t.rows {
		if err := line(row); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Table export (materialized tables through the same row writers)

// WriteTSV writes the table as tab-separated values with a header line.
func (t *Table) WriteTSV(w io.Writer) error { return t.Write(w, "tsv") }

// WriteCSV writes the table as RFC-4180 CSV with a header line.
func (t *Table) WriteCSV(w io.Writer) error { return t.Write(w, "csv") }

// WriteJSON writes the table as a single JSON object.
func (t *Table) WriteJSON(w io.Writer) error { return t.Write(w, "json") }

// WriteText writes a fixed-width, human-readable rendering (the CLI
// counterpart of Figure 3).
func (t *Table) WriteText(w io.Writer) error { return t.Write(w, "text") }

// Write exports the table in the named format: text, tsv, csv or json.
func (t *Table) Write(w io.Writer, format string) error {
	rw, err := NewRowWriter(w, format)
	if err != nil {
		return err
	}
	// encoding/json distinguishes a nil Rows (null) from a non-nil empty
	// one ([]); preserve that for JSON consumers of materialized tables.
	if jw, ok := rw.(*jsonWriter); ok && t.Rows != nil {
		jw.emptyAsArray = true
	}
	if err := rw.Header(t.Columns); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := rw.Row(row); err != nil {
			return err
		}
	}
	return rw.Close()
}
