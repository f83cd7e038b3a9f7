package sqldb

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
)

// ResultSet is the materialized output of a SELECT.
type ResultSet struct {
	Columns []string
	Rows    [][]Value
}

// Len returns the number of result rows.
func (r *ResultSet) Len() int { return len(r.Rows) }

// relBinding records where one relation's columns live in the row
// environment.
type relBinding struct {
	table *Table
	qual  string
	off   int
	width int
}

// selectExec carries the per-execution state of one SELECT: the row
// environment (values + parameters + aggregate slots). The plan itself is
// shared and immutable; producers (cursor.go) hold their own iteration
// state.
type selectExec struct {
	db  *DB
	p   *selectPlan
	env *RowEnv

	// vis is the snapshot this execution reads at: the statement's or
	// transaction's snapshot epoch.
	vis visibility

	// orderedHint is the number of output rows the consumer expects to
	// need (LIMIT+OFFSET on the streaming path), used to size the first
	// chunk of an ordered index traversal or scan run; 0 means unknown.
	orderedHint int

	// keyBuf is the GROUP BY key scratch buffer, reused across input rows
	// so probing the group map allocates nothing.
	keyBuf []byte
}

// aggSlot reads a precomputed aggregate value for the current group.
type aggSlot struct {
	idx  int
	name string
}

// Eval returns the aggregate value for the group being projected.
func (a *aggSlot) Eval(env *RowEnv) (Value, error) { return env.aggVals[a.idx], nil }
func (a *aggSlot) String() string                  { return a.name }

// fixedCol reads a pre-resolved environment position (used by star
// expansion, avoiding name ambiguity issues for duplicate column names).
type fixedCol struct {
	pos int
}

// Eval returns the environment value at the fixed position.
func (f *fixedCol) Eval(env *RowEnv) (Value, error) { return env.vals[f.pos], nil }
func (f *fixedCol) String() string                  { return fmt.Sprintf("col#%d", f.pos) }

// executeSelectVis materializes a SELECT at a registered snapshot by
// draining its cursor pipeline. It takes no lock at all.
func (db *DB) executeSelectVis(p *selectPlan, args []Value, vis visibility) (*ResultSet, error) {
	c := newSelectCursor(db, p, args, false, vis)
	defer c.close()
	rows, err := c.drain()
	if err != nil {
		return nil, err
	}
	return &ResultSet{Columns: p.projNames, Rows: rows}, nil
}

// evalWhere evaluates the WHERE clause against the current environment row
// (true when absent).
func (ex *selectExec) evalWhere() (bool, error) {
	where := ex.p.st.Where
	if where == nil {
		return true, nil
	}
	v, err := where.Eval(ex.env)
	if err != nil {
		return false, err
	}
	b, isNull := toBool(v)
	return !isNull && b, nil
}

// projectInto evaluates the projection into row (len(projExprs)).
func (ex *selectExec) projectInto(row []Value) error {
	for i, e := range ex.p.projExprs {
		v, err := e.Eval(ex.env)
		if err != nil {
			return err
		}
		row[i] = v
	}
	return nil
}

// orderKey evaluates the ORDER BY key expressions for the current row.
func (ex *selectExec) orderKey() ([]Value, error) {
	keys := make([]Value, len(ex.p.orderExprs))
	for i, e := range ex.p.orderExprs {
		v, err := e.Eval(ex.env)
		if err != nil {
			return nil, err
		}
		keys[i] = v
	}
	return keys, nil
}

// evalNonNegInt evaluates a LIMIT/OFFSET expression to a non-negative
// integer.
func (ex *selectExec) evalNonNegInt(e Expr, what string) (int64, error) {
	v, err := e.Eval(ex.env)
	if err != nil {
		return 0, err
	}
	n, ok := v.(int64)
	if !ok || n < 0 {
		return 0, fmt.Errorf("sqldb: %s must be a non-negative integer", what)
	}
	return n, nil
}

// evalLimitOffset evaluates the statement's OFFSET and LIMIT clauses for
// the streaming path. remain is -1 when no LIMIT is present.
func (ex *selectExec) evalLimitOffset() (skip, remain int64, err error) {
	remain = -1
	st := ex.p.st
	if st.Offset != nil {
		if skip, err = ex.evalNonNegInt(st.Offset, "OFFSET"); err != nil {
			return 0, 0, err
		}
	}
	if st.Limit != nil {
		if remain, err = ex.evalNonNegInt(st.Limit, "LIMIT"); err != nil {
			return 0, 0, err
		}
	}
	return skip, remain, nil
}

// needOrderKeys reports whether per-row sort keys must be collected (only
// when a sort actually runs afterwards).
func (ex *selectExec) needOrderKeys() bool {
	return len(ex.p.orderExprs) > 0 && !ex.p.orderSatisfied
}

// ---------------------------------------------------------------------------
// Buffered (pipeline-breaking) execution: GROUP BY, DISTINCT and sorts the
// index cannot satisfy. The producer pipeline is drained fully, then
// post-processed exactly as the streaming path would emit.

func (ex *selectExec) runBuffered() ([][]Value, error) {
	var out, orderKeys [][]Value
	var err error
	if ex.p.grouped {
		out, orderKeys, err = ex.runGrouped()
	} else {
		out, orderKeys, err = ex.runSimple()
	}
	if err != nil {
		return nil, err
	}
	if ex.p.st.Distinct {
		out, orderKeys = distinctRows(out, orderKeys)
	}
	if len(ex.p.st.OrderBy) > 0 && !ex.p.orderSatisfied {
		sortRows(out, orderKeys, ex.p.st.OrderBy)
	}
	return ex.applyLimit(out)
}

func (ex *selectExec) runSimple() ([][]Value, [][]Value, error) {
	prod, err := ex.buildProducer()
	if err != nil {
		return nil, nil, err
	}
	needKeys := ex.needOrderKeys()
	var out [][]Value
	var orderKeys [][]Value
	for {
		ok, err := prod.next(ex)
		if err != nil {
			return nil, nil, err
		}
		if !ok {
			break
		}
		pass, err := ex.evalWhere()
		if err != nil {
			return nil, nil, err
		}
		if !pass {
			continue
		}
		row := make([]Value, len(ex.p.projExprs))
		if err := ex.projectInto(row); err != nil {
			return nil, nil, err
		}
		out = append(out, row)
		if needKeys {
			keys, err := ex.orderKey()
			if err != nil {
				return nil, nil, err
			}
			orderKeys = append(orderKeys, keys)
		}
	}
	return out, orderKeys, nil
}

// ---------------------------------------------------------------------------
// Grouped (aggregate) execution

type groupState struct {
	repRow []Value // environment snapshot of the first row in the group
	accs   []aggAcc
}

// appendKey appends the group/DISTINCT key encoding of v to buf. Key
// identity matches Compare: an int64, or an integral float64 within int64
// range, encodes as the exact integer (1 and 1.0 share a key, 2^53 and
// 2^53+1 do not, -0.0 and 0 do); any other float encodes as its bits.
// Every encoding has a fixed width or a length prefix, so concatenated
// column keys never collide across column boundaries.
func appendKey(buf []byte, v Value) []byte {
	switch x := v.(type) {
	case nil:
		return append(buf, 'n')
	case int64:
		return binary.BigEndian.AppendUint64(append(buf, 'i'), uint64(x))
	case float64:
		if x == math.Trunc(x) && x >= -(1<<63) && x < 1<<63 {
			return binary.BigEndian.AppendUint64(append(buf, 'i'), uint64(int64(x)))
		}
		return binary.BigEndian.AppendUint64(append(buf, 'f'), math.Float64bits(x))
	case string:
		buf = binary.AppendUvarint(append(buf, 's'), uint64(len(x)))
		return append(buf, x...)
	case bool:
		if x {
			return append(buf, 'b', 1)
		}
		return append(buf, 'b', 0)
	}
	str := fmt.Sprint(v)
	buf = binary.AppendUvarint(append(buf, '?'), uint64(len(str)))
	return append(buf, str...)
}

// addGroupRow folds the environment's current row (WHERE already passed)
// into the group map, creating the group on first sight. Only a new group
// allocates: the key is encoded into the reused keyBuf, and the map probe
// with string(keyBuf) does not copy it.
func (ex *selectExec) addGroupRow(groups map[string]*groupState, order *[]string) error {
	p := ex.p
	buf := ex.keyBuf[:0]
	for _, g := range p.st.GroupBy {
		v, err := g.Eval(ex.env)
		if err != nil {
			return err
		}
		buf = appendKey(buf, v)
	}
	ex.keyBuf = buf
	gs, ok := groups[string(buf)]
	if !ok {
		key := string(buf)
		gs = &groupState{accs: make([]aggAcc, len(p.aggCalls))}
		for i, call := range p.aggCalls {
			gs.accs[i] = newAggAcc(call)
		}
		gs.repRow = make([]Value, len(ex.env.vals))
		copy(gs.repRow, ex.env.vals)
		groups[key] = gs
		*order = append(*order, key)
	}
	for i, call := range p.aggCalls {
		if err := gs.accs[i].add(call, ex.env); err != nil {
			return err
		}
	}
	return nil
}

// collectGroups drains the producer pipeline into the group map. order
// lists the group keys in first-seen order, which is the emission order.
func (ex *selectExec) collectGroups() (map[string]*groupState, []string, error) {
	prod, err := ex.buildProducer()
	if err != nil {
		return nil, nil, err
	}
	groups := make(map[string]*groupState)
	var order []string
	for {
		ok, err := prod.next(ex)
		if err != nil {
			return nil, nil, err
		}
		if !ok {
			break
		}
		pass, err := ex.evalWhere()
		if err != nil {
			return nil, nil, err
		}
		if !pass {
			continue
		}
		if err := ex.addGroupRow(groups, &order); err != nil {
			return nil, nil, err
		}
	}
	return groups, order, nil
}

func (ex *selectExec) runGrouped() ([][]Value, [][]Value, error) {
	p := ex.p
	groups, order, err := ex.collectGroups()
	if err != nil {
		return nil, nil, err
	}

	// A global aggregate over zero rows still yields one output row.
	if len(p.st.GroupBy) == 0 && len(groups) == 0 {
		gs := &groupState{accs: make([]aggAcc, len(p.aggCalls))}
		for i, call := range p.aggCalls {
			gs.accs[i] = newAggAcc(call)
		}
		gs.repRow = make([]Value, len(ex.env.vals))
		groups[""] = gs
		order = append(order, "")
	}

	needKeys := ex.needOrderKeys()
	var out [][]Value
	var orderKeys [][]Value
	for _, key := range order {
		gs := groups[key]
		ex.env.SetRow(0, gs.repRow)
		ex.env.aggVals = make([]Value, len(p.aggCalls))
		for i := range p.aggCalls {
			ex.env.aggVals[i] = gs.accs[i].result()
		}
		if p.havingExpr != nil {
			v, err := p.havingExpr.Eval(ex.env)
			if err != nil {
				return nil, nil, err
			}
			b, isNull := toBool(v)
			if isNull || !b {
				continue
			}
		}
		row := make([]Value, len(p.projExprs))
		if err := ex.projectInto(row); err != nil {
			return nil, nil, err
		}
		out = append(out, row)
		if needKeys {
			keys, err := ex.orderKey()
			if err != nil {
				return nil, nil, err
			}
			orderKeys = append(orderKeys, keys)
		}
	}
	return out, orderKeys, nil
}

// aggAcc accumulates one aggregate function over a group. Float partials
// use Kahan (Neumaier-compensated) summation, so SUM/AVG are correctly
// rounded whatever order the rows arrive in.
type aggAcc struct {
	count   int64
	sumI    int64
	sumF    float64
	comp    float64 // Kahan compensation carried alongside sumF
	isFloat bool
	minV    Value
	maxV    Value
	kind    string
}

func newAggAcc(call *FuncCall) aggAcc { return aggAcc{kind: call.Name} }

// kahanAdd folds x into the compensated float partial (Neumaier's
// variant, which also handles |x| > |sum|).
func (a *aggAcc) kahanAdd(x float64) {
	t := a.sumF + x
	if math.Abs(a.sumF) >= math.Abs(x) {
		a.comp += (a.sumF - t) + x
	} else {
		a.comp += (x - t) + a.sumF
	}
	a.sumF = t
}

func (a *aggAcc) add(call *FuncCall, env *RowEnv) error {
	if call.Star {
		a.count++
		return nil
	}
	if len(call.Args) != 1 {
		return fmt.Errorf("sqldb: %s expects one argument", call.Name)
	}
	v, err := call.Args[0].Eval(env)
	if err != nil {
		return err
	}
	if v == nil {
		return nil // aggregates skip NULLs
	}
	return a.addValue(call.Name, v)
}

// addValue folds one non-NULL value into the accumulator.
func (a *aggAcc) addValue(name string, v Value) error {
	a.count++
	switch name {
	case "SUM", "AVG":
		switch x := v.(type) {
		case int64:
			a.sumI += x
			a.kahanAdd(float64(x))
		case float64:
			a.isFloat = true
			a.kahanAdd(x)
		default:
			return fmt.Errorf("sqldb: %s over non-numeric value %s", name, FormatValue(v))
		}
	case "MIN":
		if a.minV == nil || Compare(v, a.minV) < 0 {
			a.minV = v
		}
	case "MAX":
		if a.maxV == nil || Compare(v, a.maxV) > 0 {
			a.maxV = v
		}
	}
	return nil
}

func (a *aggAcc) result() Value {
	switch a.kind {
	case "COUNT":
		return a.count
	case "SUM":
		if a.count == 0 {
			return nil
		}
		if a.isFloat {
			return a.sumF + a.comp
		}
		return a.sumI
	case "AVG":
		if a.count == 0 {
			return nil
		}
		return (a.sumF + a.comp) / float64(a.count)
	case "MIN":
		return a.minV
	case "MAX":
		return a.maxV
	}
	return nil
}

// evalBounds evaluates the range bounds against the execution's parameters.
// A NULL bound means the originating predicate can never be true, reported
// as empty.
func (a *accessPlan) evalBounds(penv *RowEnv) (lo, hi Value, hasLo, hasHi, empty bool, err error) {
	if a.lo != nil {
		hasLo = true
		if lo, err = a.lo.Eval(penv); err != nil {
			return
		}
		if lo == nil {
			empty = true
			return
		}
	}
	if a.hi != nil {
		hasHi = true
		if hi, err = a.hi.Eval(penv); err != nil {
			return
		}
		if hi == nil {
			empty = true
		}
	}
	return
}

// ---------------------------------------------------------------------------
// Post-processing

func distinctRows(rows, orderKeys [][]Value) ([][]Value, [][]Value) {
	seen := make(map[string]bool, len(rows))
	var outR, outK [][]Value
	var buf []byte
	for i, row := range rows {
		buf = buf[:0]
		for _, v := range row {
			buf = appendKey(buf, v)
		}
		if seen[string(buf)] {
			continue
		}
		seen[string(buf)] = true
		outR = append(outR, row)
		if orderKeys != nil {
			outK = append(outK, orderKeys[i])
		}
	}
	if orderKeys == nil {
		return outR, nil
	}
	return outR, outK
}

func sortRows(rows, keys [][]Value, order []OrderItem) {
	idx := make([]int, len(rows))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		ka, kb := keys[idx[a]], keys[idx[b]]
		for i, o := range order {
			c := Compare(ka[i], kb[i])
			if c == 0 {
				continue
			}
			if o.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	sortedR := make([][]Value, len(rows))
	for i, j := range idx {
		sortedR[i] = rows[j]
	}
	copy(rows, sortedR)
}

func (ex *selectExec) applyLimit(rows [][]Value) ([][]Value, error) {
	st := ex.p.st
	if st.Offset != nil {
		n, err := ex.evalNonNegInt(st.Offset, "OFFSET")
		if err != nil {
			return nil, err
		}
		if int(n) >= len(rows) {
			rows = nil
		} else {
			rows = rows[n:]
		}
	}
	if st.Limit != nil {
		n, err := ex.evalNonNegInt(st.Limit, "LIMIT")
		if err != nil {
			return nil, err
		}
		if int(n) < len(rows) {
			rows = rows[:n]
		}
	}
	return rows, nil
}
