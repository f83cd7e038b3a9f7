package sqldb

// Filter and aggregation kernels over columnar batches (see batch.go for
// the producers). Kernel compilation is two-phase:
//
//   - Plan time (compileBatchShape, called from planSelect after binding):
//     decide coverage and build an immutable kernelNode tree mirroring the
//     WHERE clause, plus the projection/grouping column positions. The
//     shape lives on the shared plan, so it must hold no mutable state.
//   - Execution time (batchShape.bind): evaluate the constant operands
//     (literals and parameters) once into a boundNode tree with private
//     scratch vectors. Binding cannot fail in practice — parameter counts
//     are validated before execution — and any error falls back to the
//     row leg.
//
// Predicates evaluate in SQL three-valued logic over tri-state vectors
// ([]int8: triFalse/triTrue/triNull); a row is selected iff its value is
// exactly triTrue, matching evalWhere. Kleene AND/OR are monotone, so
// evaluating both sides without short-circuiting yields identical results
// to the row engine's evalLogic. Typed fast loops handle the declared
// column type; any value that doesn't match it (snapshot loads bypass
// coercion) flips the column to the generic boxed loop, which uses the
// same Compare calls as the row engine for any type mix.

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
)

// Tri-state predicate values. The zero value is false so fresh vectors
// need no initialization.
const (
	triFalse int8 = 0
	triTrue  int8 = 1
	triNull  int8 = 2
)

func tri(b bool) int8 {
	if b {
		return triTrue
	}
	return triFalse
}

func and3(a, b int8) int8 {
	if a == triFalse || b == triFalse {
		return triFalse
	}
	if a == triNull || b == triNull {
		return triNull
	}
	return triTrue
}

func or3(a, b int8) int8 {
	if a == triTrue || b == triTrue {
		return triTrue
	}
	if a == triNull || b == triNull {
		return triNull
	}
	return triFalse
}

func not3(a int8) int8 {
	switch a {
	case triTrue:
		return triFalse
	case triFalse:
		return triTrue
	}
	return triNull
}

// ---------------------------------------------------------------------------
// Plan-time shape

type kernelOp uint8

const (
	kAnd kernelOp = iota
	kOr
	kNot
	kCmp
	kLike
	kIn
	kBetween
	kIsNull
	kConst
)

// kernelNode is one plan-time filter kernel: an immutable mirror of a
// covered WHERE subtree with column positions resolved and constant
// operands kept as expressions (bound per execution).
type kernelNode struct {
	op       kernelOp
	cmp      BinOp  // kCmp
	col      int    // column position (== env position: single relation)
	typ      Type   // declared column type, selects the typed loop
	constE   Expr   // kCmp comparand / kConst expression
	loE, hiE Expr   // kBetween bounds
	items    []Expr // kIn list
	pattern  string // kLike literal pattern
	negate   bool   // kIn / kBetween / kIsNull
	kids     []*kernelNode
}

// batchShape is the plan's vectorized-coverage record: non-nil means the
// access path is a plain full scan and the WHERE clause (if any) compiles
// to kernels. scanOK additionally requires a pure-column projection;
// aggOK requires pure-column GROUP BY keys and aggregate arguments.
type batchShape struct {
	filter    *kernelNode // nil when there is no WHERE clause
	projCols  []int       // scan leg: projection column positions
	scanOK    bool
	groupCols []int // agg leg: GROUP BY column positions
	aggCols   []int // one per plan aggCall; -1 for COUNT(*)
	aggOK     bool
}

// colPos resolves an expression to a base-relation column position.
func colPos(e Expr) (int, bool) {
	switch x := e.(type) {
	case *ColumnRef:
		if x.ok {
			return x.pos, true
		}
	case *fixedCol:
		return x.pos, true
	}
	return -1, false
}

// compileBatchShape decides kernel coverage for a bound plan. Called from
// planSelect; returns nil when no vectorized leg applies (the execution
// then never even checks thresholds).
func compileBatchShape(p *selectPlan) *batchShape {
	if len(p.rels) != 1 || len(p.joins) != 0 || p.access.kind != accessScan {
		return nil
	}
	t := p.rels[0].table
	sh := &batchShape{}
	if p.st.Where != nil {
		node, ok := compileKernel(p.st.Where, t)
		if !ok {
			return nil
		}
		sh.filter = node
	}
	if p.grouped {
		sh.aggOK = true
		for _, g := range p.st.GroupBy {
			ci, ok := colPos(g)
			if !ok {
				sh.aggOK = false
				break
			}
			sh.groupCols = append(sh.groupCols, ci)
		}
		for _, call := range p.aggCalls {
			if !sh.aggOK {
				break
			}
			switch {
			case call.Star:
				sh.aggCols = append(sh.aggCols, -1)
			case len(call.Args) == 1:
				ci, ok := colPos(call.Args[0])
				if !ok {
					sh.aggOK = false
					break
				}
				sh.aggCols = append(sh.aggCols, ci)
			default:
				sh.aggOK = false
			}
		}
	} else {
		sh.scanOK = true
		for _, e := range p.projExprs {
			ci, ok := colPos(e)
			if !ok {
				sh.scanOK = false
				break
			}
			sh.projCols = append(sh.projCols, ci)
		}
	}
	if !sh.scanOK && !sh.aggOK {
		return nil
	}
	return sh
}

// matchKernelCmp matches col-vs-const comparisons in either operand order
// (like matchColCmp, plus <> which indexes never serve).
func matchKernelCmp(b *Binary) (*ColumnRef, Expr, BinOp, bool) {
	switch b.Op {
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
	default:
		return nil, nil, 0, false
	}
	if c, ok := b.L.(*ColumnRef); ok && isConst(b.R) {
		return c, b.R, b.Op, true
	}
	if c, ok := b.R.(*ColumnRef); ok && isConst(b.L) {
		op := b.Op
		if op != OpEq && op != OpNe {
			op = flipCmp(op)
		}
		return c, b.L, op, true
	}
	return nil, nil, 0, false
}

func colType(t *Table, pos int) Type { return t.Schema.Columns[pos].Type }

// compileKernel translates a covered WHERE subtree into kernels; ok=false
// means "not covered" and vetoes the whole vectorized leg.
func compileKernel(e Expr, t *Table) (*kernelNode, bool) {
	switch x := e.(type) {
	case *Binary:
		switch x.Op {
		case OpAnd, OpOr:
			l, ok := compileKernel(x.L, t)
			if !ok {
				return nil, false
			}
			r, ok := compileKernel(x.R, t)
			if !ok {
				return nil, false
			}
			op := kAnd
			if x.Op == OpOr {
				op = kOr
			}
			return &kernelNode{op: op, kids: []*kernelNode{l, r}}, true
		case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
			col, c, cmp, ok := matchKernelCmp(x)
			if !ok || !col.ok {
				return nil, false
			}
			return &kernelNode{op: kCmp, cmp: cmp, col: col.pos, typ: colType(t, col.pos), constE: c}, true
		case OpLike:
			cr, ok := x.L.(*ColumnRef)
			if !ok || !cr.ok {
				return nil, false
			}
			lit, ok := x.R.(*Literal)
			if !ok {
				return nil, false
			}
			pat, ok := lit.Val.(string)
			if !ok {
				return nil, false
			}
			return &kernelNode{op: kLike, col: cr.pos, typ: colType(t, cr.pos), pattern: pat}, true
		}
	case *Unary:
		if x.Op != "NOT" {
			return nil, false
		}
		k, ok := compileKernel(x.X, t)
		if !ok {
			return nil, false
		}
		return &kernelNode{op: kNot, kids: []*kernelNode{k}}, true
	case *IsNull:
		cr, ok := x.X.(*ColumnRef)
		if !ok || !cr.ok {
			return nil, false
		}
		return &kernelNode{op: kIsNull, col: cr.pos, negate: x.Negate}, true
	case *InList:
		cr, ok := x.X.(*ColumnRef)
		if !ok || !cr.ok {
			return nil, false
		}
		for _, it := range x.Items {
			if !isConst(it) {
				return nil, false
			}
		}
		return &kernelNode{op: kIn, col: cr.pos, items: x.Items, negate: x.Negate}, true
	case *Between:
		cr, ok := x.X.(*ColumnRef)
		if !ok || !cr.ok {
			return nil, false
		}
		if !isConst(x.Lo) || !isConst(x.Hi) {
			return nil, false
		}
		return &kernelNode{op: kBetween, col: cr.pos, typ: colType(t, cr.pos), loE: x.Lo, hiE: x.Hi, negate: x.Negate}, true
	case *Literal, *Param:
		return &kernelNode{op: kConst, constE: e}, true
	}
	return nil, false
}

// ---------------------------------------------------------------------------
// Execution-time binding

// boundNode is a kernelNode with its constant operands evaluated. The tree
// is read-only after binding, so exchange workers share it.
type boundNode struct {
	op     kernelOp
	cmp    BinOp
	col    int
	typ    Type
	cv     Value
	lo, hi Value
	items  []Value
	pat    string
	negate bool
	kids   []*boundNode
}

// boundFilter pairs the read-only bound tree with private scratch vectors;
// fork() hands concurrent workers their own scratch over the shared tree.
type boundFilter struct {
	root *boundNode
	out  []int8
	pool [][]int8
}

// bind evaluates the shape's constant operands for one execution. A nil
// result with nil error means there is no filter at all.
func (sh *batchShape) bind(env *RowEnv) (*boundFilter, error) {
	if sh.filter == nil {
		return nil, nil
	}
	root, err := bindKernel(sh.filter, env)
	if err != nil {
		return nil, err
	}
	return &boundFilter{root: root}, nil
}

func bindKernel(k *kernelNode, env *RowEnv) (*boundNode, error) {
	b := &boundNode{op: k.op, cmp: k.cmp, col: k.col, typ: k.typ, pat: k.pattern, negate: k.negate}
	var err error
	if k.constE != nil {
		if b.cv, err = k.constE.Eval(env); err != nil {
			return nil, err
		}
	}
	if k.loE != nil {
		if b.lo, err = k.loE.Eval(env); err != nil {
			return nil, err
		}
	}
	if k.hiE != nil {
		if b.hi, err = k.hiE.Eval(env); err != nil {
			return nil, err
		}
	}
	for _, it := range k.items {
		v, err := it.Eval(env)
		if err != nil {
			return nil, err
		}
		b.items = append(b.items, v)
	}
	for _, kid := range k.kids {
		bk, err := bindKernel(kid, env)
		if err != nil {
			return nil, err
		}
		b.kids = append(b.kids, bk)
	}
	return b, nil
}

func (f *boundFilter) fork() *boundFilter {
	if f == nil {
		return nil
	}
	return &boundFilter{root: f.root}
}

// eval runs the filter over a batch, returning one tri value per row. The
// returned slice is owned by f and valid until the next eval.
func (f *boundFilter) eval(b *colbatch) ([]int8, error) {
	if cap(f.out) < b.n {
		f.out = make([]int8, b.n)
	}
	out := f.out[:b.n]
	if err := f.evalNode(f.root, b, out); err != nil {
		return nil, err
	}
	return out, nil
}

func (f *boundFilter) tmp(n int) []int8 {
	if k := len(f.pool); k > 0 {
		t := f.pool[k-1]
		f.pool = f.pool[:k-1]
		if cap(t) >= n {
			return t[:n]
		}
	}
	return make([]int8, n)
}

func (f *boundFilter) put(t []int8) { f.pool = append(f.pool, t) }

func (f *boundFilter) evalNode(k *boundNode, b *colbatch, out []int8) error {
	n := b.n
	switch k.op {
	case kAnd, kOr:
		if err := f.evalNode(k.kids[0], b, out); err != nil {
			return err
		}
		t := f.tmp(n)
		if err := f.evalNode(k.kids[1], b, t); err != nil {
			f.put(t)
			return err
		}
		if k.op == kAnd {
			for i := 0; i < n; i++ {
				out[i] = and3(out[i], t[i])
			}
		} else {
			for i := 0; i < n; i++ {
				out[i] = or3(out[i], t[i])
			}
		}
		f.put(t)
	case kNot:
		if err := f.evalNode(k.kids[0], b, out); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			out[i] = not3(out[i])
		}
	case kCmp:
		evalCmpKernel(k, b, out)
	case kLike:
		return evalLikeKernel(k, b, out)
	case kIn:
		evalInKernel(k, b, out)
	case kBetween:
		evalBetweenKernel(k, b, out)
	case kIsNull:
		rows := b.rows
		for i := 0; i < n; i++ {
			out[i] = tri((rows[i][k.col] == nil) != k.negate)
		}
	case kConst:
		bv, isNull := toBool(k.cv)
		v := triNull
		if !isNull {
			v = tri(bv)
		}
		for i := range out {
			out[i] = v
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Predicate kernels

// cmpTruthTable maps a three-way comparison result (index cmp+1) to the
// operator's tri value.
func cmpTruthTable(op BinOp) [3]int8 {
	switch op {
	case OpEq:
		return [3]int8{triFalse, triTrue, triFalse}
	case OpNe:
		return [3]int8{triTrue, triFalse, triTrue}
	case OpLt:
		return [3]int8{triTrue, triFalse, triFalse}
	case OpLe:
		return [3]int8{triTrue, triTrue, triFalse}
	case OpGt:
		return [3]int8{triFalse, triFalse, triTrue}
	}
	return [3]int8{triFalse, triTrue, triTrue} // OpGe
}

func evalCmpKernel(k *boundNode, b *colbatch, out []int8) {
	n := b.n
	if k.cv == nil {
		for i := 0; i < n; i++ {
			out[i] = triNull
		}
		return
	}
	tt := cmpTruthTable(k.cmp)
	switch k.typ {
	case TypeInt:
		if v := b.col(k.col, k.typ); v.typed {
			switch c := k.cv.(type) {
			case int64:
				xs, nulls := v.i64, v.nulls
				for i := 0; i < n; i++ {
					if nulls.get(i) {
						out[i] = triNull
						continue
					}
					x, cmp := xs[i], 0
					if x < c {
						cmp = -1
					} else if x > c {
						cmp = 1
					}
					out[i] = tt[cmp+1]
				}
				return
			case float64:
				xs, nulls := v.i64, v.nulls
				for i := 0; i < n; i++ {
					if nulls.get(i) {
						out[i] = triNull
						continue
					}
					out[i] = tt[compareFloat(float64(xs[i]), c)+1]
				}
				return
			}
		}
	case TypeFloat:
		c, numeric := 0.0, false
		switch x := k.cv.(type) {
		case float64:
			c, numeric = x, true
		case int64:
			c, numeric = float64(x), true
		}
		if numeric {
			if v := b.col(k.col, k.typ); v.typed {
				xs, nulls := v.f64, v.nulls
				for i := 0; i < n; i++ {
					if nulls.get(i) {
						out[i] = triNull
						continue
					}
					out[i] = tt[compareFloat(xs[i], c)+1]
				}
				return
			}
		}
	case TypeText:
		if v := b.col(k.col, k.typ); v.typed {
			if c, ok := k.cv.(string); ok {
				xs, nulls := v.str, v.nulls
				for i := 0; i < n; i++ {
					if nulls.get(i) {
						out[i] = triNull
						continue
					}
					x, cmp := xs[i], 0
					if x < c {
						cmp = -1
					} else if x > c {
						cmp = 1
					}
					out[i] = tt[cmp+1]
				}
				return
			}
		}
	}
	// Generic fallback: boxed Compare per row, the row engine's exact
	// semantics for every type combination (including mixed-type rows
	// installed by snapshot loads).
	rows := b.rows
	for i := 0; i < n; i++ {
		x := rows[i][k.col]
		if x == nil {
			out[i] = triNull
			continue
		}
		out[i] = tt[Compare(x, k.cv)+1]
	}
}

func evalLikeKernel(k *boundNode, b *colbatch, out []int8) error {
	n := b.n
	if v := b.col(k.col, TypeText); v.typed {
		xs, nulls := v.str, v.nulls
		for i := 0; i < n; i++ {
			if nulls.get(i) {
				out[i] = triNull
				continue
			}
			out[i] = tri(likeMatch(xs[i], k.pat))
		}
		return nil
	}
	rows := b.rows
	for i := 0; i < n; i++ {
		x := rows[i][k.col]
		if x == nil {
			out[i] = triNull
			continue
		}
		s, ok := x.(string)
		if !ok {
			return fmt.Errorf("sqldb: LIKE requires TEXT operands")
		}
		out[i] = tri(likeMatch(s, k.pat))
	}
	return nil
}

func evalInKernel(k *boundNode, b *colbatch, out []int8) {
	rows := b.rows
	for i := 0; i < b.n; i++ {
		x := rows[i][k.col]
		if x == nil {
			out[i] = triNull
			continue
		}
		out[i] = inListTri(x, k.items, k.negate)
	}
}

// inListTri mirrors InList.Eval over pre-evaluated items: first match wins
// even past NULL items; no match with a NULL item present is NULL.
func inListTri(x Value, items []Value, negate bool) int8 {
	sawNull := false
	for _, it := range items {
		if it == nil {
			sawNull = true
			continue
		}
		if Compare(x, it) == 0 {
			return tri(!negate)
		}
	}
	if sawNull {
		return triNull
	}
	return tri(negate)
}

func evalBetweenKernel(k *boundNode, b *colbatch, out []int8) {
	n := b.n
	if k.lo == nil || k.hi == nil {
		// Any NULL operand makes BETWEEN NULL for every row, matching
		// Between.Eval's nil propagation.
		for i := 0; i < n; i++ {
			out[i] = triNull
		}
		return
	}
	if k.typ == TypeInt {
		if lo, ok := k.lo.(int64); ok {
			if hi, ok := k.hi.(int64); ok {
				if v := b.col(k.col, TypeInt); v.typed {
					xs, nulls := v.i64, v.nulls
					for i := 0; i < n; i++ {
						if nulls.get(i) {
							out[i] = triNull
							continue
						}
						x := xs[i]
						out[i] = tri((x >= lo && x <= hi) != k.negate)
					}
					return
				}
			}
		}
	}
	rows := b.rows
	for i := 0; i < n; i++ {
		x := rows[i][k.col]
		if x == nil {
			out[i] = triNull
			continue
		}
		res := Compare(x, k.lo) >= 0 && Compare(x, k.hi) <= 0
		out[i] = tri(res != k.negate)
	}
}

// ---------------------------------------------------------------------------
// Execution-time leg selection

// boundScan is the per-execution state of a vectorized scan leg.
type boundScan struct {
	shape  *batchShape
	filter *boundFilter
}

// batchScanBinding decides whether this execution takes the vectorized
// scan leg and, if so, binds the filter constants. nil means "row leg".
func (ex *selectExec) batchScanBinding() *boundScan {
	sh := ex.p.batch
	if sh == nil || !sh.scanOK {
		return nil
	}
	if !ex.db.batchEligible(ex.p.rels[0].table) {
		return nil
	}
	bf, err := sh.bind(ex.env)
	if err != nil {
		return nil // cannot happen after checkArgs; fall back to the row leg
	}
	return &boundScan{shape: sh, filter: bf}
}

// boundAgg is the per-execution state of a vectorized aggregation leg.
type boundAgg struct {
	shape  *batchShape
	filter *boundFilter
}

func (ex *selectExec) batchAggBinding() *boundAgg {
	sh := ex.p.batch
	if sh == nil || !sh.aggOK {
		return nil
	}
	if !ex.db.batchEligible(ex.p.rels[0].table) {
		return nil
	}
	bf, err := sh.bind(ex.env)
	if err != nil {
		return nil
	}
	return &boundAgg{shape: sh, filter: bf}
}

// ---------------------------------------------------------------------------
// Vectorized grouped aggregation

// batchGroups is the vectorized grouped-aggregation operator: per
// partition, batches are filtered by the kernels and accumulated through
// typed per-column loops into partial groups, which merge through
// aggAcc.merge in partition order (deterministic float accumulation), with
// first-seen output order re-derived from the smallest contributing row
// ID. Each batch is materialized under the partition read lock and the
// kernels run outside it. With more than one partition the
// partitions run on worker goroutines, one each — the merged result is
// identical to a single-partition run.
func (ex *selectExec) batchGroups(ba *boundAgg) (map[string]*groupState, []string, error) {
	p := ex.p
	t := p.rels[0].table
	parts := t.partList()
	rowsPer := ex.db.batchRows()
	vis := ex.vis
	type partGroups struct {
		groups map[string]*groupState
		order  []string
	}
	results := make([]partGroups, len(parts))
	errs := make([]error, len(parts))
	run := func(i int, part *tablePart, bf *boundFilter) {
		g, ord, err := batchGroupPartition(p, ba.shape, bf, t, part, rowsPer, vis)
		results[i] = partGroups{groups: g, order: ord}
		errs[i] = err
	}
	if len(parts) > 1 {
		ex.db.plans.fanAggs.Add(1)
		var wg sync.WaitGroup
		for i, part := range parts {
			wg.Add(1)
			go func(i int, part *tablePart) {
				defer wg.Done()
				run(i, part, ba.filter.fork())
			}(i, part)
		}
		wg.Wait()
	} else {
		for i, part := range parts {
			run(i, part, ba.filter)
		}
	}
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	merged := make(map[string]*groupState)
	var keys []string
	for _, pr := range results {
		for _, key := range pr.order {
			g := pr.groups[key]
			m, ok := merged[key]
			if !ok {
				merged[key] = g
				keys = append(keys, key)
				continue
			}
			if g.firstID < m.firstID {
				m.firstID = g.firstID
				m.repRow = g.repRow
				m.keyVals = g.keyVals
			}
			for j := range m.accs {
				m.accs[j].merge(&g.accs[j])
			}
		}
	}
	sort.Slice(keys, func(a, b int) bool { return merged[keys[a]].firstID < merged[keys[b]].firstID })
	return merged, keys, nil
}

// batchGroupPartition aggregates one partition in columnar batches.
func batchGroupPartition(p *selectPlan, sh *batchShape, bf *boundFilter, t *Table, part *tablePart, rowsPer int, vis visibility) (map[string]*groupState, []string, error) {
	b := newColbatch(len(t.Schema.Columns), rowsPer)
	groups := make(map[string]*groupState)
	var order []string
	sel := make([]int32, 0, rowsPer)
	gptr := make([]*groupState, 0, rowsPer)
	var keyBuf []byte
	view := part.ids.load()
	pos := 0
	for pos < len(view) {
		b.reset()
		part.mu.RLock()
		for pos < len(view) && b.n < rowsPer {
			id := view[pos]
			pos++
			row := part.rows[id].resolve(vis)
			if row == nil {
				continue // tombstone, or a version invisible at this snapshot
			}
			b.add(id, row)
		}
		part.mu.RUnlock()
		if b.n == 0 {
			continue
		}
		sel = sel[:0]
		if bf != nil {
			tv, err := bf.eval(b)
			if err != nil {
				return nil, nil, err
			}
			for i := 0; i < b.n; i++ {
				if tv[i] == triTrue {
					sel = append(sel, int32(i))
				}
			}
		} else {
			for i := 0; i < b.n; i++ {
				sel = append(sel, int32(i))
			}
		}
		if len(sel) == 0 {
			continue
		}
		// Resolve each selected row to its group. The key encoding
		// reproduces the row engine's makeHashKey+Fprintf bytes exactly
		// (numerics fold to their float form) without fmt overhead, so
		// group identity matches the row leg byte-for-byte. Map lookup by
		// string(keyBuf) does not allocate; the key string is only
		// materialized once per new group.
		gptr = gptr[:0]
		for _, si := range sel {
			row := b.rows[si]
			keyBuf = keyBuf[:0]
			for _, gc := range sh.groupCols {
				keyBuf = appendGroupKey(keyBuf, row[gc])
			}
			gs, ok := groups[string(keyBuf)]
			if !ok {
				gs = &groupState{
					accs:    make([]aggAcc, len(p.aggCalls)),
					firstID: b.ids[si],
					repRow:  row, // immutable once published; width == env width
				}
				for j, call := range p.aggCalls {
					gs.accs[j] = newAggAcc(call)
				}
				gs.keyVals = make([]Value, len(sh.groupCols))
				for j, gc := range sh.groupCols {
					gs.keyVals[j] = row[gc]
				}
				key := string(keyBuf)
				groups[key] = gs
				order = append(order, key)
			}
			gptr = append(gptr, gs)
		}
		for j, call := range p.aggCalls {
			ac := sh.aggCols[j]
			if ac < 0 {
				for i := range sel {
					gptr[i].accs[j].count++ // COUNT(*)
				}
				continue
			}
			if err := accumulateCol(call, j, ac, colType(t, ac), b, sel, gptr); err != nil {
				return nil, nil, err
			}
		}
	}
	return groups, order, nil
}

// accumulateCol folds one aggregate's column over the selected rows of a
// batch. SUM/AVG over INT and FLOAT columns run typed loops; everything
// else (MIN/MAX, COUNT(col), mixed-type columns) goes through the boxed
// values, sharing aggAcc.addValue with the row engine so error behavior
// (SUM over non-numeric) and comparison semantics are identical.
func accumulateCol(call *FuncCall, j, col int, typ Type, b *colbatch, sel []int32, gptr []*groupState) error {
	switch call.Name {
	case "COUNT":
		rows := b.rows
		for i, si := range sel {
			if rows[si][col] == nil {
				continue // aggregates skip NULLs
			}
			gptr[i].accs[j].count++
		}
	case "SUM", "AVG":
		switch typ {
		case TypeInt:
			if v := b.col(col, TypeInt); v.typed {
				xs, nulls := v.i64, v.nulls
				for i, si := range sel {
					if nulls.get(int(si)) {
						continue
					}
					a := &gptr[i].accs[j]
					x := xs[si]
					a.count++
					a.sumI += x
					a.kahanAdd(float64(x))
				}
				return nil
			}
		case TypeFloat:
			if v := b.col(col, TypeFloat); v.typed {
				xs, nulls := v.f64, v.nulls
				for i, si := range sel {
					if nulls.get(int(si)) {
						continue
					}
					a := &gptr[i].accs[j]
					a.count++
					a.isFloat = true
					a.kahanAdd(xs[si])
				}
				return nil
			}
		}
		rows := b.rows
		for i, si := range sel {
			x := rows[si][col]
			if x == nil {
				continue
			}
			if err := gptr[i].accs[j].addValue(call.Name, x); err != nil {
				return err
			}
		}
	default: // MIN, MAX
		rows := b.rows
		for i, si := range sel {
			x := rows[si][col]
			if x == nil {
				continue
			}
			if err := gptr[i].accs[j].addValue(call.Name, x); err != nil {
				return err
			}
		}
	}
	return nil
}

// appendGroupKey renders one group-key value exactly as the row engine's
// addGroupRow does — fmt.Fprintf(kb, "%c|%v|%s;", ...) over makeHashKey —
// byte for byte, so batch and row legs agree on group identity including
// the numeric folding (int64 1 and float64 1.0 share a group).
func appendGroupKey(buf []byte, v Value) []byte {
	switch x := v.(type) {
	case nil:
		buf = append(buf, 'n', '|', '0', '|')
	case int64:
		buf = append(buf, 'f', '|')
		buf = strconv.AppendFloat(buf, float64(x), 'g', -1, 64)
		buf = append(buf, '|')
	case float64:
		buf = append(buf, 'f', '|')
		buf = strconv.AppendFloat(buf, x, 'g', -1, 64)
		buf = append(buf, '|')
	case string:
		buf = append(buf, 's', '|', '0', '|')
		buf = append(buf, x...)
	case bool:
		if x {
			buf = append(buf, 'b', '|', '1', '|')
		} else {
			buf = append(buf, 'b', '|', '0', '|')
		}
	default:
		hk := makeHashKey(x)
		buf = append(buf, byte(hk.kind), '|', '0', '|')
		buf = append(buf, hk.str...)
	}
	return append(buf, ';')
}
