package sqldb

import (
	"encoding/json"
	"fmt"
	"strings"
)

// PlanVersion is the version stamped into every EXPLAIN (FORMAT JSON)
// document. Bump it only when a field changes meaning or disappears;
// adding fields is backward-compatible within a version. The schema is
// specified field-by-field in docs/plan-json.md.
const PlanVersion = 3

// explainPlan is the compiled form of an EXPLAIN statement: the inner
// statement's plan plus the requested rendering format. Rendering happens
// per execution (describePlan), so cardinality reflects the table sizes at
// EXPLAIN time, not at prepare time.
type explainPlan struct {
	format string // "json" or "text"
	sel    *selectPlan
	upd    *updatePlan
	del    *deletePlan
	ins    *InsertStmt
}

// planExplain compiles the statement wrapped by EXPLAIN. SELECT, UPDATE
// and DELETE go through their real planners — the document describes
// exactly the plan that would execute. INSERT has no plan to choose, so
// only its target table is validated.
func planExplain(db *DB, st *ExplainStmt) (*explainPlan, error) {
	ep := &explainPlan{format: st.Format}
	switch inner := st.Stmt.(type) {
	case *SelectStmt:
		plan, err := planSelect(db, inner)
		if err != nil {
			return nil, err
		}
		ep.sel = plan
	case *UpdateStmt:
		plan, err := planUpdate(db, inner)
		if err != nil {
			return nil, err
		}
		ep.upd = plan
	case *DeleteStmt:
		plan, err := planDelete(db, inner)
		if err != nil {
			return nil, err
		}
		ep.del = plan
	case *InsertStmt:
		if db.table(inner.Table) == nil {
			return nil, fmt.Errorf("sqldb: no such table %q", inner.Table)
		}
		ep.ins = inner
	default:
		return nil, fmt.Errorf("sqldb: EXPLAIN supports SELECT, INSERT, UPDATE and DELETE statements")
	}
	return ep, nil
}

// ---------------------------------------------------------------------------
// Plan document (plan_version 3)

// PlanDoc is the versioned EXPLAIN document. Field order here is the
// serialization order (encoding/json marshals struct fields in declaration
// order), so the JSON output is byte-stable. Nothing machine-dependent is
// included: the document must not change between machines (see
// docs/plan-json.md).
type PlanDoc struct {
	PlanVersion int             `json:"plan_version"`
	Statement   string          `json:"statement"`
	Table       string          `json:"table,omitempty"` // write statements' target
	Columns     []string        `json:"columns,omitempty"`
	Access      *AccessDoc      `json:"access,omitempty"`
	Joins       []JoinDoc       `json:"joins,omitempty"`
	Filter      string          `json:"filter,omitempty"`
	Aggregate   *AggregateDoc   `json:"aggregate,omitempty"`
	Distinct    bool            `json:"distinct,omitempty"`
	OrderBy     []string        `json:"order_by,omitempty"`
	OrderByIdx  bool            `json:"order_by_satisfied,omitempty"`
	Limit       string          `json:"limit,omitempty"`
	Offset      string          `json:"offset,omitempty"`
	EarlyExit   bool            `json:"early_exit,omitempty"`
	Cardinality *CardinalityDoc `json:"cardinality,omitempty"`
	Sets        []string        `json:"sets,omitempty"` // UPDATE assignments
	Rows        int             `json:"rows,omitempty"` // INSERT literal rows
}

// AccessDoc describes how candidate rows of the driven relation are
// obtained. Candidates are a superset: Filter is still applied per row.
type AccessDoc struct {
	Table          string   `json:"table"`
	Path           string   `json:"path"` // full-scan | index-eq | index-in | index-range
	Index          string   `json:"index,omitempty"`
	IndexKind      string   `json:"index_kind,omitempty"`
	Key            string   `json:"key,omitempty"`  // index-eq probe
	Keys           []string `json:"keys,omitempty"` // index-in probes
	Lower          string   `json:"lower,omitempty"`
	LowerInclusive bool     `json:"lower_inclusive,omitempty"`
	Upper          string   `json:"upper,omitempty"`
	UpperInclusive bool     `json:"upper_inclusive,omitempty"`
	Ordered        bool     `json:"ordered,omitempty"`
	Descending     bool     `json:"descending,omitempty"`
}

// JoinDoc describes one join in stacking order (bottom-up). Kind is the
// syntactic join form; Swapped marks a RIGHT join the executor runs as
// LEFT with exchanged inputs.
type JoinDoc struct {
	Table    string `json:"table"`    // probe-side relation
	Kind     string `json:"kind"`     // INNER | LEFT | RIGHT | CROSS
	Strategy string `json:"strategy"` // nested-loop | hash-build | index-loop
	Index    string `json:"index,omitempty"`
	Key      string `json:"key,omitempty"` // driving-side equi-key expression
	On       string `json:"on,omitempty"`
	Swapped  bool   `json:"swapped,omitempty"`
}

// AggregateDoc describes grouped execution.
type AggregateDoc struct {
	GroupBy []string `json:"group_by,omitempty"`
	Calls   []string `json:"calls,omitempty"`
	Having  string   `json:"having,omitempty"`
}

// CardinalityDoc reports the input cardinality of the driven relation.
// The engine maintains exact live row counts, so Exact is always true
// today; the field exists so a future sampled estimator can keep the
// document shape.
type CardinalityDoc struct {
	Estimate int64 `json:"estimate"`
	Exact    bool  `json:"exact"`
}

// describeAccess renders one accessPlan against its relation.
func describeAccess(t *Table, a accessPlan) *AccessDoc {
	d := &AccessDoc{Table: t.Name}
	switch a.kind {
	case accessScan:
		d.Path = "full-scan"
	case accessEq:
		d.Path = "index-eq"
		d.Key = a.key.String()
	case accessIn:
		d.Path = "index-in"
		for _, it := range a.items {
			d.Keys = append(d.Keys, it.String())
		}
	case accessRange:
		d.Path = "index-range"
		if a.lo != nil {
			d.Lower, d.LowerInclusive = a.lo.String(), a.loIncl
		}
		if a.hi != nil {
			d.Upper, d.UpperInclusive = a.hi.String(), a.hiIncl
		}
		d.Ordered, d.Descending = a.ordered, a.desc
	}
	if a.idx != nil {
		d.Index, d.IndexKind = a.idx.Name, a.idx.Kind.String()
	}
	return d
}

var joinStrategyNames = map[joinStrategy]string{
	joinNestedLoop: "nested-loop",
	joinHashBuild:  "hash-build",
	joinIndexLoop:  "index-loop",
}

// describeSelect walks a compiled SELECT plan into a PlanDoc.
func describeSelect(p *selectPlan) *PlanDoc {
	st := p.st
	driver := p.rels[p.driver]
	doc := &PlanDoc{
		PlanVersion: PlanVersion,
		Statement:   "SELECT",
		Columns:     p.projNames,
		Access:      describeAccess(driver.table, p.access),
		Distinct:    st.Distinct,
	}
	for i := range p.joins {
		jp := &p.joins[i]
		probe := p.rels[i+1]
		if jp.swapped {
			probe = p.rels[0]
		}
		jd := JoinDoc{
			Table:    probe.table.Name,
			Kind:     st.Joins[i].Kind.String(),
			Strategy: joinStrategyNames[jp.strategy],
			Swapped:  jp.swapped,
		}
		if jp.idx != nil {
			jd.Index = jp.idx.Name
		}
		if jp.keyExpr != nil {
			jd.Key = jp.keyExpr.String()
		}
		if st.Joins[i].On != nil {
			jd.On = st.Joins[i].On.String()
		}
		doc.Joins = append(doc.Joins, jd)
	}
	if st.Where != nil {
		doc.Filter = st.Where.String()
	}
	if p.grouped {
		agg := &AggregateDoc{}
		for _, g := range st.GroupBy {
			agg.GroupBy = append(agg.GroupBy, g.String())
		}
		for _, call := range p.aggCalls {
			agg.Calls = append(agg.Calls, call.String())
		}
		if st.Having != nil {
			agg.Having = st.Having.String()
		}
		doc.Aggregate = agg
	}
	for _, o := range st.OrderBy {
		key := o.Expr.String()
		if o.Desc {
			key += " DESC"
		}
		doc.OrderBy = append(doc.OrderBy, key)
	}
	doc.OrderByIdx = p.orderSatisfied
	if st.Limit != nil {
		doc.Limit = st.Limit.String()
	}
	if st.Offset != nil {
		doc.Offset = st.Offset.String()
	}
	// Early exit mirrors the streaming shape: no pipeline breaker between
	// the scan and the LIMIT counter.
	doc.EarlyExit = st.Limit != nil && !p.grouped && !st.Distinct &&
		(len(st.OrderBy) == 0 || p.orderSatisfied)
	doc.Cardinality = &CardinalityDoc{Estimate: int64(driver.table.RowCount()), Exact: true}
	return doc
}

// describeWrite renders UPDATE/DELETE plans, which share writePlan.
func describeWrite(stmt string, wp *writePlan, sets []string) *PlanDoc {
	doc := &PlanDoc{
		PlanVersion: PlanVersion,
		Statement:   stmt,
		Table:       wp.t.Name,
		Access:      describeAccess(wp.t, wp.access),
		Sets:        sets,
	}
	if wp.where != nil {
		doc.Filter = wp.where.String()
	}
	doc.Cardinality = &CardinalityDoc{Estimate: int64(wp.t.RowCount()), Exact: true}
	return doc
}

// describePlan builds the plan document for one compiled EXPLAIN.
func (db *DB) describePlan(ep *explainPlan) *PlanDoc {
	switch {
	case ep.sel != nil:
		return describeSelect(ep.sel)
	case ep.upd != nil:
		var sets []string
		for i, pos := range ep.upd.setPos {
			sets = append(sets, fmt.Sprintf("%s = %s",
				ep.upd.writePlan.t.Schema.Columns[pos].Name, ep.upd.setExprs[i].String()))
		}
		return describeWrite("UPDATE", &ep.upd.writePlan, sets)
	case ep.del != nil:
		return describeWrite("DELETE", &ep.del.writePlan, nil)
	default:
		t := db.table(ep.ins.Table)
		doc := &PlanDoc{PlanVersion: PlanVersion, Statement: "INSERT", Rows: len(ep.ins.Rows)}
		if t != nil {
			doc.Table = t.Name
		} else {
			doc.Table = ep.ins.Table
		}
		return doc
	}
}

// renderPlanText renders the document as indented text, derived purely
// from the PlanDoc so both formats always agree.
func renderPlanText(doc *PlanDoc) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s", doc.Statement)
	if doc.Table != "" {
		fmt.Fprintf(&b, " %s", doc.Table)
	}
	b.WriteByte('\n')
	if len(doc.Columns) > 0 {
		fmt.Fprintf(&b, "  columns: %s\n", strings.Join(doc.Columns, ", "))
	}
	if a := doc.Access; a != nil {
		fmt.Fprintf(&b, "  access: %s %s", a.Table, a.Path)
		if a.Index != "" {
			fmt.Fprintf(&b, " via %s (%s)", a.Index, a.IndexKind)
		}
		switch {
		case a.Key != "":
			fmt.Fprintf(&b, " key=%s", a.Key)
		case len(a.Keys) > 0:
			fmt.Fprintf(&b, " keys=(%s)", strings.Join(a.Keys, ", "))
		case a.Lower != "" || a.Upper != "":
			lo, hi := "-inf", "+inf"
			if a.Lower != "" {
				lo = a.Lower
			}
			if a.Upper != "" {
				hi = a.Upper
			}
			fmt.Fprintf(&b, " range=[%s, %s]", lo, hi)
		}
		if a.Ordered {
			b.WriteString(" ordered")
			if a.Descending {
				b.WriteString(" desc")
			}
		}
		b.WriteByte('\n')
	}
	for _, j := range doc.Joins {
		fmt.Fprintf(&b, "  join: %s %s %s", j.Kind, j.Table, j.Strategy)
		if j.Index != "" {
			fmt.Fprintf(&b, " via %s", j.Index)
		}
		if j.On != "" {
			fmt.Fprintf(&b, " on %s", j.On)
		}
		if j.Swapped {
			b.WriteString(" (inputs swapped)")
		}
		b.WriteByte('\n')
	}
	if doc.Filter != "" {
		fmt.Fprintf(&b, "  filter: %s\n", doc.Filter)
	}
	if g := doc.Aggregate; g != nil {
		var parts []string
		if len(g.GroupBy) > 0 {
			parts = append(parts, "group by "+strings.Join(g.GroupBy, ", "))
		}
		if len(g.Calls) > 0 {
			parts = append(parts, strings.Join(g.Calls, ", "))
		}
		if g.Having != "" {
			parts = append(parts, "having "+g.Having)
		}
		fmt.Fprintf(&b, "  aggregate: %s\n", strings.Join(parts, "; "))
	}
	if doc.Distinct {
		b.WriteString("  distinct\n")
	}
	if len(doc.OrderBy) > 0 {
		fmt.Fprintf(&b, "  order by: %s", strings.Join(doc.OrderBy, ", "))
		if doc.OrderByIdx {
			b.WriteString(" (satisfied by access order)")
		}
		b.WriteByte('\n')
	}
	if doc.Limit != "" {
		fmt.Fprintf(&b, "  limit: %s", doc.Limit)
		if doc.EarlyExit {
			b.WriteString(" (early exit)")
		}
		b.WriteByte('\n')
	}
	if doc.Offset != "" {
		fmt.Fprintf(&b, "  offset: %s\n", doc.Offset)
	}
	if len(doc.Sets) > 0 {
		fmt.Fprintf(&b, "  set: %s\n", strings.Join(doc.Sets, ", "))
	}
	if doc.Rows > 0 {
		fmt.Fprintf(&b, "  rows: %d\n", doc.Rows)
	}
	if c := doc.Cardinality; c != nil {
		kind := "estimated"
		if c.Exact {
			kind = "exact"
		}
		fmt.Fprintf(&b, "  cardinality: %d (%s)\n", c.Estimate, kind)
	}
	return strings.TrimRight(b.String(), "\n")
}

// explainColumns is the one output column of an EXPLAIN: the plan
// document, one row per line, so every query surface (Query, QueryEach,
// the REPL) prints it naturally.
var explainColumns = []string{"plan"}

// explainText renders the plan document in the statement's format.
func (db *DB) explainText(ep *explainPlan) (string, error) {
	doc := db.describePlan(ep)
	if ep.format != "json" {
		return renderPlanText(doc), nil
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	return string(b), err
}

// Explain compiles sql (without an EXPLAIN prefix) and returns its plan
// document rendered in format: "json" (the default when empty) or "text".
func (db *DB) Explain(sql, format string) (string, error) {
	switch format {
	case "":
		format = "json"
	case "json", "text":
	default:
		return "", fmt.Errorf("sqldb: unknown EXPLAIN format %q (want \"json\" or \"text\")", format)
	}
	p, err := db.stmts.get(db, "EXPLAIN (FORMAT "+strings.ToUpper(format)+") "+sql).ensure(db)
	if err != nil {
		return "", err
	}
	return db.explainText(p.expl)
}
