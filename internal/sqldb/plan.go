package sqldb

import (
	"fmt"
	"strings"
)

// This file contains the query planner. Planning happens once per prepared
// statement (db.Prepare or the internal statement cache) and produces an
// immutable plan that every execution shares:
//
//	parse (parser.go)  →  plan (here)  →  execute (exec.go)
//
// The planner decides, per relation, how candidate rows are produced
// (accessPlan) and, per join, which join strategy runs (joinPlan). Key
// expressions stay symbolic — they may reference `?` parameters — and are
// evaluated against the execution's argument list, so one plan is valid for
// every binding of the same statement.

// ---------------------------------------------------------------------------
// Access paths

type accessKind int

const (
	// accessScan visits the whole table in row-ID order.
	accessScan accessKind = iota
	// accessEq probes one index key.
	accessEq
	// accessIn unions the postings of several index keys (IN list).
	accessIn
	// accessRange walks a B-tree index over a key interval; with `ordered`
	// set the traversal order itself satisfies the query's ORDER BY.
	accessRange
)

// accessPlan describes how the executor obtains candidate rows for one
// relation. Candidates are a superset of the matching rows: the full WHERE
// clause is still evaluated per row, so access planning can only err on the
// side of inclusion.
type accessPlan struct {
	kind  accessKind
	idx   *Index
	key   Expr   // accessEq probe key
	items []Expr // accessIn probe keys
	// accessRange bounds; a nil bound is unbounded on that side.
	lo, hi         Expr
	loIncl, hiIncl bool
	// ordered marks a B-tree traversal emitted in key order (descending when
	// desc is set) because it satisfies the statement's ORDER BY. Non-ordered
	// index access emits candidates in row-ID order to match scan order.
	ordered bool
	desc    bool
}

// planTableAccess inspects the AND-connected conjuncts of where for an
// indexable predicate over one relation. resolve maps a column reference to
// the relation's column position, or -1 when the reference does not
// (unambiguously) belong to the relation. Preference order: equality probe,
// IN-list union, B-tree range.
func planTableAccess(t *Table, where Expr, resolve func(*ColumnRef) int, noIndex bool) accessPlan {
	if noIndex || where == nil {
		return accessPlan{kind: accessScan}
	}
	var eq, in *accessPlan
	type rangeBounds struct {
		idx            *Index
		lo, hi         Expr
		loIncl, hiIncl bool
	}
	ranges := make(map[int]*rangeBounds)
	var rangeOrder []int

	addBound := func(ci int, idx *Index, isLo bool, bound Expr, incl bool) {
		rb, ok := ranges[ci]
		if !ok {
			rb = &rangeBounds{idx: idx}
			ranges[ci] = rb
			rangeOrder = append(rangeOrder, ci)
		}
		// First bound per side wins; the residual WHERE re-check keeps any
		// tighter duplicate bound correct.
		if isLo && rb.lo == nil {
			rb.lo, rb.loIncl = bound, incl
		} else if !isLo && rb.hi == nil {
			rb.hi, rb.hiIncl = bound, incl
		}
	}

	visitConjuncts(where, func(e Expr) bool {
		switch x := e.(type) {
		case *Binary:
			col, c, op, ok := matchColCmp(x)
			if !ok {
				return true
			}
			ci := resolve(col)
			if ci < 0 {
				return true
			}
			switch op {
			case OpEq:
				if eq == nil {
					if idx := t.IndexOn(ci); idx != nil {
						eq = &accessPlan{kind: accessEq, idx: idx, key: c}
					}
				}
			case OpGt, OpGe:
				if idx := t.BTreeIndexOn(ci); idx != nil {
					addBound(ci, idx, true, c, op == OpGe)
				}
			case OpLt, OpLe:
				if idx := t.BTreeIndexOn(ci); idx != nil {
					addBound(ci, idx, false, c, op == OpLe)
				}
			}
		case *Between:
			if x.Negate {
				return true
			}
			col, ok := x.X.(*ColumnRef)
			if !ok || !isConst(x.Lo) || !isConst(x.Hi) {
				return true
			}
			ci := resolve(col)
			if ci < 0 {
				return true
			}
			if idx := t.BTreeIndexOn(ci); idx != nil {
				addBound(ci, idx, true, x.Lo, true)
				addBound(ci, idx, false, x.Hi, true)
			}
		case *InList:
			if x.Negate || in != nil {
				return true
			}
			col, ok := x.X.(*ColumnRef)
			if !ok {
				return true
			}
			for _, item := range x.Items {
				if !isConst(item) {
					return true
				}
			}
			ci := resolve(col)
			if ci < 0 {
				return true
			}
			if idx := t.IndexOn(ci); idx != nil {
				in = &accessPlan{kind: accessIn, idx: idx, items: x.Items}
			}
		}
		return true
	})

	switch {
	case eq != nil:
		return *eq
	case in != nil:
		return *in
	case len(rangeOrder) > 0:
		rb := ranges[rangeOrder[0]]
		return accessPlan{
			kind: accessRange, idx: rb.idx,
			lo: rb.lo, hi: rb.hi, loIncl: rb.loIncl, hiIncl: rb.hiIncl,
		}
	}
	return accessPlan{kind: accessScan}
}

// ---------------------------------------------------------------------------
// Write plans (UPDATE / DELETE)

// writePlan is the compiled access portion of an UPDATE or DELETE: the
// target table, the bound WHERE clause, the chosen access path and the
// row-environment layout. Like selectPlan it is built once per prepared
// statement and shared immutably across executions, so writes no longer
// re-bind and re-plan per Exec under the exclusive lock.
type writePlan struct {
	t      *Table
	where  Expr
	access accessPlan
	cols   []envCol
}

// newEnv builds a fresh single-relation environment for one execution.
func (wp *writePlan) newEnv(args []Value) *RowEnv {
	return &RowEnv{cols: wp.cols, vals: make([]Value, len(wp.cols)), params: args}
}

// updatePlan is the compiled form of an UPDATE statement.
type updatePlan struct {
	writePlan
	setPos   []int
	setExprs []Expr
}

// deletePlan is the compiled form of a DELETE statement.
type deletePlan struct {
	writePlan
}

// planWriteAccess resolves the target table, binds the WHERE clause and
// selects the access path shared with the SELECT planner, so UPDATE and
// DELETE get equality, IN-list and B-tree range index access too.
func planWriteAccess(db *DB, tableName string, where Expr) (writePlan, error) {
	t := db.table(tableName)
	if t == nil {
		return writePlan{}, fmt.Errorf("sqldb: no such table %q", tableName)
	}
	env := NewRowEnv(tableName, t.Schema.Names())
	if where != nil {
		if err := bindColumns(where, env); err != nil {
			return writePlan{}, err
		}
	}
	resolve := func(col *ColumnRef) int {
		if col.Qual != "" && !strings.EqualFold(col.Qual, tableName) {
			return -1
		}
		return t.Schema.ColumnIndex(col.Name)
	}
	return writePlan{
		t:      t,
		where:  where,
		access: planTableAccess(t, where, resolve, db.noIndex.Load()),
		cols:   env.cols,
	}, nil
}

// planUpdate compiles an UPDATE: access path plus resolved SET positions
// and bound SET expressions.
func planUpdate(db *DB, st *UpdateStmt) (*updatePlan, error) {
	wp, err := planWriteAccess(db, st.Table, st.Where)
	if err != nil {
		return nil, err
	}
	up := &updatePlan{writePlan: wp}
	env := &RowEnv{cols: wp.cols}
	for _, s := range st.Sets {
		ci := wp.t.Schema.ColumnIndex(s.Column)
		if ci < 0 {
			return nil, fmt.Errorf("sqldb: no column %q in table %s", s.Column, wp.t.Name)
		}
		if err := bindColumns(s.Expr, env); err != nil {
			return nil, err
		}
		up.setPos = append(up.setPos, ci)
		up.setExprs = append(up.setExprs, s.Expr)
	}
	return up, nil
}

// planDelete compiles a DELETE.
func planDelete(db *DB, st *DeleteStmt) (*deletePlan, error) {
	wp, err := planWriteAccess(db, st.Table, st.Where)
	if err != nil {
		return nil, err
	}
	return &deletePlan{writePlan: wp}, nil
}

// matchColCmp matches a comparison between a column reference and a constant
// in either operand order, normalizing the operator to `col OP const`.
func matchColCmp(b *Binary) (*ColumnRef, Expr, BinOp, bool) {
	switch b.Op {
	case OpEq, OpLt, OpLe, OpGt, OpGe:
	default:
		return nil, nil, 0, false
	}
	if c, ok := b.L.(*ColumnRef); ok && isConst(b.R) {
		return c, b.R, b.Op, true
	}
	if c, ok := b.R.(*ColumnRef); ok && isConst(b.L) {
		return c, b.L, flipCmp(b.Op), true
	}
	return nil, nil, 0, false
}

// flipCmp mirrors a comparison operator for swapped operands.
func flipCmp(op BinOp) BinOp {
	switch op {
	case OpLt:
		return OpGt
	case OpLe:
		return OpGe
	case OpGt:
		return OpLt
	case OpGe:
		return OpLe
	}
	return op
}

// visitConjuncts calls fn for every AND-connected conjunct of e.
func visitConjuncts(e Expr, fn func(Expr) bool) {
	if b, ok := e.(*Binary); ok && b.Op == OpAnd {
		visitConjuncts(b.L, fn)
		visitConjuncts(b.R, fn)
		return
	}
	fn(e)
}

// isConst reports whether e evaluates to the same value for every row of one
// execution: literals always, parameters because their binding is fixed per
// execution.
func isConst(e Expr) bool {
	switch e.(type) {
	case *Literal, *Param:
		return true
	}
	return false
}

// ---------------------------------------------------------------------------
// Join plans

type joinStrategy int

const (
	// joinNestedLoop rescans the right table per left tuple (no equi-key).
	joinNestedLoop joinStrategy = iota
	// joinHashBuild builds a hash table over the right table once per
	// execution (equi-key but no usable index).
	joinHashBuild
	// joinIndexLoop probes an existing index on the right column per left
	// tuple — no per-query build cost at all.
	joinIndexLoop
)

// joinPlan is the chosen strategy for one JOIN clause. kind is normalized
// at plan time: a RIGHT join becomes a LEFT join with swapped set (the
// executor drives from the syntactically-right relation and probes — and
// NULL-extends — the left one), and a CROSS join becomes an INNER join
// with a nil ON clause (every pair matches).
type joinPlan struct {
	kind     JoinKind
	on       Expr // full ON clause, re-checked per candidate; nil for CROSS
	strategy joinStrategy
	rightCol int  // probe relation's key column (joinHashBuild/joinIndexLoop)
	keyExpr  Expr // driving-side key expression (joinHashBuild/joinIndexLoop)
	idx      *Index
	// swapped marks a RIGHT join executed as LEFT with exchanged inputs:
	// the probe relation is rels[0] instead of rels[i+1].
	swapped bool
}

// ---------------------------------------------------------------------------
// Select plans

// selectPlan is the compiled, immutable execution plan of one SELECT.
// Everything mutable per execution (row values, parameters, aggregate
// accumulators, hash-join tables) lives in selectExec / RowEnv instead.
type selectPlan struct {
	st   *SelectStmt
	cols []envCol
	rels []relBinding

	// driver is the relation the access path scans (0 except for a RIGHT
	// join, which drives from the preserved right-hand relation).
	driver int

	access accessPlan
	joins  []joinPlan

	projExprs  []Expr
	projNames  []string
	havingExpr Expr
	orderExprs []Expr
	aggCalls   []*FuncCall
	grouped    bool

	// orderSatisfied means rows are produced in ORDER BY order already, so
	// the sort is skipped and LIMIT can stop the scan early.
	orderSatisfied bool
}

// newEnv builds a fresh row environment for one execution of the plan. The
// column layout is shared (read-only); values and parameters are private.
func (p *selectPlan) newEnv(args []Value) *RowEnv {
	return &RowEnv{cols: p.cols, vals: make([]Value, len(p.cols)), params: args}
}

// planner carries state while compiling one SELECT.
type planner struct {
	db   *DB
	env  *RowEnv // template environment: column layout only
	plan *selectPlan
}

// planSelect compiles a parsed SELECT into an executable plan.
func planSelect(db *DB, st *SelectStmt) (*selectPlan, error) {
	pl := &planner{db: db, env: &RowEnv{}, plan: &selectPlan{st: st}}
	if err := pl.setupRelations(); err != nil {
		return nil, err
	}
	if err := pl.setupProjection(); err != nil {
		return nil, err
	}
	p := pl.plan
	p.grouped = len(st.GroupBy) > 0 || len(p.aggCalls) > 0
	if err := pl.setupDriver(); err != nil {
		return nil, err
	}
	pl.planAccess()
	pl.planOrder()
	pl.planJoins()
	if err := pl.bindAll(); err != nil {
		return nil, err
	}
	p.cols = pl.env.cols
	return p, nil
}

func (pl *planner) setupRelations() error {
	st := pl.plan.st
	add := func(ref TableRef) error {
		t := pl.db.table(ref.Name)
		if t == nil {
			return fmt.Errorf("sqldb: no such table %q", ref.Name)
		}
		off := pl.env.Width()
		pl.env.AddRelation(ref.Binding(), t.Schema.Names())
		pl.plan.rels = append(pl.plan.rels, relBinding{
			table: t, qual: strings.ToLower(ref.Binding()), off: off, width: len(t.Schema.Columns),
		})
		return nil
	}
	if err := add(st.From); err != nil {
		return err
	}
	for _, j := range st.Joins {
		if err := add(j.Table); err != nil {
			return err
		}
	}
	return nil
}

// setupProjection expands stars, names output columns and rewrites
// aggregates into slots reading the group's precomputed values.
func (pl *planner) setupProjection() error {
	p := pl.plan
	for _, item := range p.st.Items {
		if item.Star {
			if err := pl.expandStar(item.Qual); err != nil {
				return err
			}
			continue
		}
		e, err := pl.rewriteAggs(item.Expr)
		if err != nil {
			return err
		}
		p.projExprs = append(p.projExprs, e)
		name := item.Alias
		if name == "" {
			name = projName(item.Expr)
		}
		p.projNames = append(p.projNames, name)
	}
	if p.st.Having != nil {
		h, err := pl.rewriteAggs(p.st.Having)
		if err != nil {
			return err
		}
		p.havingExpr = h
	}
	for _, o := range p.st.OrderBy {
		// ORDER BY <ordinal> references a select item.
		if lit, ok := o.Expr.(*Literal); ok {
			if n, ok := lit.Val.(int64); ok {
				if n < 1 || int(n) > len(p.projExprs) {
					return fmt.Errorf("sqldb: ORDER BY position %d out of range", n)
				}
				p.orderExprs = append(p.orderExprs, p.projExprs[n-1])
				continue
			}
		}
		// ORDER BY <alias> references a select item by its alias.
		if cr, ok := o.Expr.(*ColumnRef); ok && cr.Qual == "" {
			matched := false
			for i, name := range p.projNames {
				if strings.EqualFold(name, cr.Name) {
					// Only treat as alias when it is not a real column.
					if _, err := pl.env.Resolve("", cr.Name); err != nil {
						p.orderExprs = append(p.orderExprs, p.projExprs[i])
						matched = true
					}
					break
				}
			}
			if matched {
				continue
			}
		}
		e, err := pl.rewriteAggs(o.Expr)
		if err != nil {
			return err
		}
		p.orderExprs = append(p.orderExprs, e)
	}
	return nil
}

func (pl *planner) expandStar(qual string) error {
	q := strings.ToLower(qual)
	matched := false
	for _, rel := range pl.plan.rels {
		if q != "" && rel.qual != q {
			continue
		}
		matched = true
		for i, c := range rel.table.Schema.Columns {
			pl.plan.projExprs = append(pl.plan.projExprs, &fixedCol{pos: rel.off + i})
			pl.plan.projNames = append(pl.plan.projNames, c.Name)
		}
	}
	if !matched {
		return fmt.Errorf("sqldb: unknown table qualifier %q in select list", qual)
	}
	return nil
}

// rewriteAggs returns a copy of e with aggregate calls replaced by slots.
// It registers each aggregate in the plan's aggCalls.
func (pl *planner) rewriteAggs(e Expr) (Expr, error) {
	p := pl.plan
	switch x := e.(type) {
	case nil:
		return nil, nil
	case *Literal, *ColumnRef, *Param, *fixedCol:
		return e, nil
	case *FuncCall:
		if x.IsAggregate() {
			for _, a := range x.Args {
				hasAgg := false
				walkExpr(a, func(sub Expr) {
					if f, ok := sub.(*FuncCall); ok && f.IsAggregate() {
						hasAgg = true
					}
				})
				if hasAgg {
					return nil, fmt.Errorf("sqldb: nested aggregate in %s", x.Name)
				}
			}
			p.aggCalls = append(p.aggCalls, x)
			return &aggSlot{idx: len(p.aggCalls) - 1, name: x.String()}, nil
		}
		args := make([]Expr, len(x.Args))
		for i, a := range x.Args {
			na, err := pl.rewriteAggs(a)
			if err != nil {
				return nil, err
			}
			args[i] = na
		}
		return &FuncCall{Name: x.Name, Args: args}, nil
	case *Binary:
		l, err := pl.rewriteAggs(x.L)
		if err != nil {
			return nil, err
		}
		r, err := pl.rewriteAggs(x.R)
		if err != nil {
			return nil, err
		}
		return &Binary{Op: x.Op, L: l, R: r}, nil
	case *Unary:
		sub, err := pl.rewriteAggs(x.X)
		if err != nil {
			return nil, err
		}
		return &Unary{Op: x.Op, X: sub}, nil
	case *IsNull:
		sub, err := pl.rewriteAggs(x.X)
		if err != nil {
			return nil, err
		}
		return &IsNull{X: sub, Negate: x.Negate}, nil
	case *InList:
		sub, err := pl.rewriteAggs(x.X)
		if err != nil {
			return nil, err
		}
		items := make([]Expr, len(x.Items))
		for i, it := range x.Items {
			ni, err := pl.rewriteAggs(it)
			if err != nil {
				return nil, err
			}
			items[i] = ni
		}
		return &InList{X: sub, Items: items, Negate: x.Negate}, nil
	case *Between:
		sub, err := pl.rewriteAggs(x.X)
		if err != nil {
			return nil, err
		}
		lo, err := pl.rewriteAggs(x.Lo)
		if err != nil {
			return nil, err
		}
		hi, err := pl.rewriteAggs(x.Hi)
		if err != nil {
			return nil, err
		}
		return &Between{X: sub, Lo: lo, Hi: hi, Negate: x.Negate}, nil
	}
	return e, nil
}

func projName(e Expr) string {
	if c, ok := e.(*ColumnRef); ok {
		return c.Name
	}
	return e.String()
}

// setupDriver picks the driving relation for the access path. It is the
// base relation except for a RIGHT join, which is normalized to a LEFT
// join by an input swap: the executor drives from the preserved right-hand
// relation and probes (NULL-extending on miss) the left one. The swap only
// has a sound access/NULL-extension story for a single join, so multi-join
// statements reject RIGHT at plan time with a clear error.
func (pl *planner) setupDriver() error {
	p := pl.plan
	for _, j := range p.st.Joins {
		if j.Kind != JoinRight {
			continue
		}
		if len(p.st.Joins) != 1 {
			return fmt.Errorf("sqldb: RIGHT JOIN is only supported as the sole join of a statement (rewrite as LEFT JOIN)")
		}
		p.driver = 1
	}
	return nil
}

// planAccess chooses the access path for the driving relation from the
// WHERE clause. Pushing WHERE conjuncts into the driver is sound even for
// outer joins because the driver is the preserved side: every output row
// carries a real driver row, and the full WHERE is re-checked per row, so
// access planning can only err on the side of inclusion.
func (pl *planner) planAccess() {
	p := pl.plan
	base := p.rels[p.driver]
	p.access = planTableAccess(base.table, p.st.Where, pl.baseResolver(), pl.db.noIndex.Load())
}

// baseResolver maps a column reference to a driver-relation column
// position, or -1 when the reference belongs elsewhere or is ambiguous
// across joined relations.
func (pl *planner) baseResolver() func(*ColumnRef) int {
	base := pl.plan.rels[pl.plan.driver]
	return func(col *ColumnRef) int {
		if col.Qual != "" && strings.ToLower(col.Qual) != base.qual {
			return -1
		}
		ci := base.table.Schema.ColumnIndex(col.Name)
		if ci < 0 {
			return -1
		}
		if col.Qual == "" {
			// Unqualified: require the name to resolve uniquely to the base
			// relation, otherwise leave the decision to evaluation.
			p, err := pl.env.Resolve("", col.Name)
			if err != nil || p < base.off || p >= base.off+base.width {
				return -1
			}
		}
		return ci
	}
}

// planOrder upgrades the access path to an ordered B-tree traversal when a
// single-column ORDER BY over the base relation can be served from an index,
// making the sort (and, with LIMIT, most of the scan) unnecessary.
func (pl *planner) planOrder() {
	p := pl.plan
	if p.grouped || len(p.st.OrderBy) != 1 || len(p.orderExprs) != 1 || pl.db.noIndex.Load() {
		return
	}
	base := p.rels[p.driver]
	pos := -1
	switch e := p.orderExprs[0].(type) {
	case *ColumnRef:
		rp, err := pl.env.Resolve(e.Qual, e.Name)
		if err != nil {
			return
		}
		pos = rp
	case *fixedCol:
		pos = e.pos
	default:
		return
	}
	if pos < base.off || pos >= base.off+base.width {
		return
	}
	ci := pos - base.off
	desc := p.st.OrderBy[0].Desc

	switch p.access.kind {
	case accessScan:
		idx := base.table.BTreeIndexOn(ci)
		if idx == nil {
			return
		}
		p.access = accessPlan{kind: accessRange, idx: idx, ordered: true, desc: desc}
		p.orderSatisfied = true
	case accessRange:
		if p.access.idx.Col == ci {
			p.access.ordered = true
			p.access.desc = desc
			p.orderSatisfied = true
		}
	case accessEq:
		// All candidates share the ORDER BY key, so row-ID emission order is
		// already a stable order for it; only the sort is skipped.
		if p.access.idx.Col == ci {
			p.orderSatisfied = true
		}
	}
}

// planJoins picks a strategy per JOIN clause: index-nested-loop when the
// probe column is indexed, hash build otherwise, nested loop without an
// equi-key. A CROSS join normalizes to an INNER join with a nil ON clause
// (pure nested loop, every pair matches); a RIGHT join normalizes to a
// LEFT join over swapped inputs, probing rels[0] instead of rels[i+1].
// The strategy choice depends only on the statement shape (never on
// machine knobs), and index candidates are emitted in row-ID order, so
// results are deterministic across index on/off.
func (pl *planner) planJoins() {
	p := pl.plan
	for i, j := range p.st.Joins {
		jp := joinPlan{kind: j.Kind, on: j.On, strategy: joinNestedLoop, rightCol: -1}
		probe := p.rels[i+1]
		switch j.Kind {
		case JoinCross:
			jp.kind = JoinInner
			p.joins = append(p.joins, jp)
			continue
		case JoinRight:
			jp.kind, jp.swapped = JoinLeft, true
			probe = p.rels[0]
		}
		driveOK := func(e Expr) bool { return pl.referencesOnlyBefore(e, probe.off) }
		if jp.swapped {
			drv := p.rels[p.driver]
			driveOK = func(e Expr) bool { return pl.referencesWithin(e, drv.off, drv.off+drv.width) }
		}
		probeCol, keyExpr := pl.findEquiKey(j.On, probe, driveOK)
		if probeCol >= 0 {
			jp.rightCol, jp.keyExpr = probeCol, keyExpr
			if idx := probe.table.IndexOn(probeCol); idx != nil && !pl.db.noIndex.Load() {
				jp.strategy, jp.idx = joinIndexLoop, idx
			} else {
				jp.strategy = joinHashBuild
			}
		}
		p.joins = append(p.joins, jp)
	}
}

// findEquiKey looks for `probe.col = keyExpr` (either side order) among
// the conjuncts of on, where the key expression satisfies driveOK (it
// references only relations already produced when the probe runs). It
// returns the probe column position and the key expression, or (-1, nil).
func (pl *planner) findEquiKey(on Expr, rel relBinding, driveOK func(Expr) bool) (int, Expr) {
	resCol := -1
	var resExpr Expr
	visitConjuncts(on, func(e Expr) bool {
		if resCol >= 0 {
			return true
		}
		b, ok := e.(*Binary)
		if !ok || b.Op != OpEq {
			return true
		}
		try := func(side, other Expr) bool {
			c, ok := side.(*ColumnRef)
			if !ok {
				return false
			}
			// The column must belong to the probe relation.
			q := strings.ToLower(c.Qual)
			if q != "" && q != rel.qual {
				return false
			}
			ci := rel.table.Schema.ColumnIndex(c.Name)
			if ci < 0 {
				return false
			}
			if q == "" {
				// Unqualified: require that the name resolves uniquely to
				// the probe relation.
				p, err := pl.env.Resolve("", c.Name)
				if err != nil || p < rel.off || p >= rel.off+rel.width {
					return false
				}
			}
			// The other side must be evaluable from the driving rows alone.
			if !driveOK(other) {
				return false
			}
			resCol, resExpr = ci, other
			return true
		}
		if try(b.L, b.R) {
			return true
		}
		try(b.R, b.L)
		return true
	})
	return resCol, resExpr
}

// referencesOnlyBefore reports whether all column references in e resolve
// to environment positions before off.
func (pl *planner) referencesOnlyBefore(e Expr, off int) bool {
	ok := true
	walkExpr(e, func(sub Expr) {
		switch c := sub.(type) {
		case *ColumnRef:
			p, err := pl.env.Resolve(c.Qual, c.Name)
			if err != nil || p >= off {
				ok = false
			}
		case *fixedCol:
			if c.pos >= off {
				ok = false
			}
		}
	})
	return ok
}

// referencesWithin reports whether all column references in e resolve to
// environment positions in [lo, hi).
func (pl *planner) referencesWithin(e Expr, lo, hi int) bool {
	ok := true
	walkExpr(e, func(sub Expr) {
		switch c := sub.(type) {
		case *ColumnRef:
			p, err := pl.env.Resolve(c.Qual, c.Name)
			if err != nil || p < lo || p >= hi {
				ok = false
			}
		case *fixedCol:
			if c.pos < lo || c.pos >= hi {
				ok = false
			}
		}
	})
	return ok
}

// bindAll eagerly resolves every column reference in the plan's expressions
// so execution never mutates the shared AST and resolution errors surface at
// plan time.
func (pl *planner) bindAll() error {
	p := pl.plan
	exprs := []Expr{p.st.Where, p.havingExpr}
	exprs = append(exprs, p.projExprs...)
	exprs = append(exprs, p.orderExprs...)
	exprs = append(exprs, p.st.GroupBy...)
	for _, call := range p.aggCalls {
		exprs = append(exprs, call.Args...)
	}
	for _, j := range p.joins {
		exprs = append(exprs, j.on, j.keyExpr)
	}
	for _, e := range exprs {
		if e == nil {
			continue
		}
		if err := bindColumns(e, pl.env); err != nil {
			return err
		}
	}
	// LIMIT/OFFSET evaluate outside any row, so a column reference there
	// (e.g. the typo'd "LIMIT 1O") would read leftover row state; reject it.
	for _, e := range []Expr{p.st.Limit, p.st.Offset} {
		if e == nil {
			continue
		}
		bad := false
		walkExpr(e, func(x Expr) {
			switch x.(type) {
			case *ColumnRef, *fixedCol:
				bad = true
			}
		})
		if bad {
			return fmt.Errorf("sqldb: LIMIT/OFFSET must not reference columns")
		}
	}
	return nil
}
