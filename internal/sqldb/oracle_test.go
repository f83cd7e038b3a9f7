package sqldb

// Differential testing: random WHERE predicates executed through the full
// SQL pipeline are compared against a trivially-correct in-memory filter.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

type oracleRow struct {
	id int64
	n  Value // int64 or nil
	s  Value // string or nil
	f  Value // float64 or nil
}

func buildOracleDB(t *testing.T, rng *rand.Rand, rows int) (*DB, []oracleRow) {
	t.Helper()
	db := NewDB()
	mustExec(t, db, "CREATE TABLE t (id INTEGER PRIMARY KEY, n INTEGER, s TEXT, f REAL)")
	if rng.Intn(2) == 0 {
		mustExec(t, db, "CREATE INDEX idx_n ON t (n)")
	}
	var data []oracleRow
	words := []string{"alpha", "beta", "gamma", "delta", "", "alphabet"}
	for i := 0; i < rows; i++ {
		r := oracleRow{id: int64(i)}
		if rng.Intn(5) > 0 {
			r.n = int64(rng.Intn(10))
		}
		if rng.Intn(5) > 0 {
			r.s = words[rng.Intn(len(words))]
		}
		if rng.Intn(5) > 0 {
			r.f = float64(rng.Intn(20)) / 4
		}
		data = append(data, r)
		mustExec(t, db, "INSERT INTO t VALUES (?, ?, ?, ?)", r.id, r.n, r.s, r.f)
	}
	return db, data
}

// predicate is a randomly generated conjunct with both SQL text and a
// reference evaluation. The reference returns true/false/unknown(nil).
type predicate struct {
	sql string
	ref func(r oracleRow) Value
}

func randPredicate(rng *rand.Rand) predicate {
	switch rng.Intn(6) {
	case 0: // numeric comparison on n
		k := int64(rng.Intn(10))
		ops := []struct {
			sym string
			fn  func(a, b int64) bool
		}{
			{"=", func(a, b int64) bool { return a == b }},
			{"<>", func(a, b int64) bool { return a != b }},
			{"<", func(a, b int64) bool { return a < b }},
			{">=", func(a, b int64) bool { return a >= b }},
		}
		op := ops[rng.Intn(len(ops))]
		return predicate{
			sql: fmt.Sprintf("n %s %d", op.sym, k),
			ref: func(r oracleRow) Value {
				if r.n == nil {
					return nil
				}
				return op.fn(r.n.(int64), k)
			},
		}
	case 1: // IS NULL family
		col := []string{"n", "s", "f"}[rng.Intn(3)]
		neg := rng.Intn(2) == 0
		sql := col + " IS NULL"
		if neg {
			sql = col + " IS NOT NULL"
		}
		return predicate{
			sql: sql,
			ref: func(r oracleRow) Value {
				v := map[string]Value{"n": r.n, "s": r.s, "f": r.f}[col]
				return (v == nil) != neg
			},
		}
	case 2: // LIKE on s
		pat := []string{"a%", "%a%", "_eta", "%t%", "alpha"}[rng.Intn(5)]
		return predicate{
			sql: fmt.Sprintf("s LIKE '%s'", pat),
			ref: func(r oracleRow) Value {
				if r.s == nil {
					return nil
				}
				return likeMatch(r.s.(string), pat)
			},
		}
	case 3: // BETWEEN on f
		lo := float64(rng.Intn(10)) / 4
		hi := lo + float64(rng.Intn(8))/4
		return predicate{
			sql: fmt.Sprintf("f BETWEEN %g AND %g", lo, hi),
			ref: func(r oracleRow) Value {
				if r.f == nil {
					return nil
				}
				x := r.f.(float64)
				return x >= lo && x <= hi
			},
		}
	case 4: // IN list on n
		a, b := int64(rng.Intn(10)), int64(rng.Intn(10))
		return predicate{
			sql: fmt.Sprintf("n IN (%d, %d)", a, b),
			ref: func(r oracleRow) Value {
				if r.n == nil {
					return nil
				}
				x := r.n.(int64)
				return x == a || x == b
			},
		}
	default: // arithmetic comparison
		k := int64(rng.Intn(15))
		return predicate{
			sql: fmt.Sprintf("n + n > %d", k),
			ref: func(r oracleRow) Value {
				if r.n == nil {
					return nil
				}
				return r.n.(int64)*2 > k
			},
		}
	}
}

func combineRef(op string, a, b Value) Value {
	ab, anull := toBool(a)
	bb, bnull := toBool(b)
	if op == "AND" {
		switch {
		case !anull && !ab, !bnull && !bb:
			return false
		case anull || bnull:
			return nil
		default:
			return true
		}
	}
	switch {
	case !anull && ab, !bnull && bb:
		return true
	case anull || bnull:
		return nil
	default:
		return false
	}
}

func TestWherePredicatesMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20040314))
	for trial := 0; trial < 40; trial++ {
		db, data := buildOracleDB(t, rng, 80)
		for q := 0; q < 10; q++ {
			p1, p2 := randPredicate(rng), randPredicate(rng)
			op := []string{"AND", "OR"}[rng.Intn(2)]
			negate := rng.Intn(3) == 0
			where := fmt.Sprintf("(%s) %s (%s)", p1.sql, op, p2.sql)
			ref := func(r oracleRow) Value { return combineRef(op, p1.ref(r), p2.ref(r)) }
			if negate {
				where = "NOT (" + where + ")"
				inner := ref
				ref = func(r oracleRow) Value {
					v := inner(r)
					b, isNull := toBool(v)
					if isNull {
						return nil
					}
					return !b
				}
			}

			rs, err := db.Query("SELECT id FROM t WHERE " + where + " ORDER BY id")
			if err != nil {
				t.Fatalf("trial %d query %q: %v", trial, where, err)
			}
			var want []string
			for _, r := range data {
				v := ref(r)
				if b, isNull := toBool(v); !isNull && b {
					want = append(want, fmt.Sprint(r.id))
				}
			}
			var got []string
			for _, row := range rs.Rows {
				got = append(got, fmt.Sprint(row[0]))
			}
			if strings.Join(got, ",") != strings.Join(want, ",") {
				t.Fatalf("trial %d WHERE %s:\n got %v\nwant %v", trial, where, got, want)
			}
		}
	}
}

// TestPlannerEquivalenceOracle fuzzes the planner: random generated queries
// run on two fixture databases built from the same statements — one
// partition, where the batch leg uses its serial producer, and eight, where
// it fans out over the partition exchange — each on the row leg (with index
// access, forced off, and streamed through a cursor) and the vectorized
// leg, in lock mode and under MVCC. Every run must return the identical
// result sequence (joins, ranges, IN lists, ORDER BY/LIMIT/OFFSET,
// DISTINCT, GROUP BY). Since all modes share the executor, the planner
// preserves scan emission order (including sort-tie order), and the
// exchange merges partitions back into row-ID order, the comparison is
// exact, not just set-based. Float SUM/AVG is exact too: every leg
// accumulates partials with compensated (Kahan) summation, so the
// fixture's non-dyadic REAL values (multiples of 0.1) and the grouped
// SUM(f)/AVG(f) columns must agree to the last bit regardless of how
// partial sums associate.
func TestPlannerEquivalenceOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(771104))
	serialDB, fanDB := NewDB(), NewDB()
	serialDB.SetPartitions(1)
	fanDB.SetPartitions(8)
	dbs := []*DB{serialDB, fanDB}
	dbNames := []string{"1 partition", "8 partitions"}
	exec := func(sql string, args ...any) {
		for _, db := range dbs {
			mustExec(t, db, sql, args...)
		}
	}
	// The batch threshold drops so the 250-row fixture takes the
	// vectorized leg; batch execution stays off except in the explicitly
	// vectorized legs.
	for _, db := range dbs {
		db.SetBatchMinRows(1)
		db.SetBatchExecution(false)
	}
	exec("CREATE TABLE big (id INTEGER PRIMARY KEY, n INTEGER, f REAL, s TEXT, u INTEGER)")
	exec("CREATE INDEX idx_big_n ON big (n)")
	exec("CREATE INDEX idx_big_f ON big (f) USING BTREE")
	exec("CREATE INDEX idx_big_s ON big (s) USING BTREE")
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon", ""}
	for i := 0; i < 250; i++ {
		var n, f, s, u any
		if rng.Intn(6) > 0 {
			n = int64(rng.Intn(12))
		}
		if rng.Intn(6) > 0 {
			// Multiples of 0.1 are deliberately non-dyadic: naive float
			// summation would expose association-order differences between
			// the serial and fanned-out legs; Kahan partials keep them
			// byte-identical.
			f = float64(rng.Intn(40)) / 10
		}
		if rng.Intn(6) > 0 {
			s = words[rng.Intn(len(words))]
		}
		if rng.Intn(2) > 0 {
			u = int64(rng.Intn(5))
		}
		exec("INSERT INTO big VALUES (?, ?, ?, ?, ?)", i, n, f, s, u)
	}
	exec("CREATE TABLE side (k INTEGER, tag TEXT)")
	exec("CREATE INDEX idx_side_k ON side (k) USING BTREE")
	for i := 0; i < 40; i++ {
		var k any
		if rng.Intn(8) > 0 {
			k = int64(rng.Intn(12))
		}
		exec("INSERT INTO side VALUES (?, ?)", k, fmt.Sprintf("tag%d", i%6))
	}

	conjunct := func() string {
		switch rng.Intn(9) {
		case 0:
			return fmt.Sprintf("n = %d", rng.Intn(12))
		case 1:
			return fmt.Sprintf("f %s %g", []string{"<", "<=", ">", ">="}[rng.Intn(4)], float64(rng.Intn(40))/10)
		case 2:
			lo := float64(rng.Intn(30)) / 10
			return fmt.Sprintf("f BETWEEN %g AND %g", lo, lo+float64(rng.Intn(12))/10)
		case 3:
			return fmt.Sprintf("s %s '%s'", []string{"<", ">=", "="}[rng.Intn(3)], words[rng.Intn(len(words))])
		case 4:
			return fmt.Sprintf("id >= %d", rng.Intn(250))
		case 5:
			return fmt.Sprintf("n IN (%d, %d, %d)", rng.Intn(12), rng.Intn(12), rng.Intn(12))
		case 6:
			return []string{"u IS NULL", "u IS NOT NULL"}[rng.Intn(2)]
		case 7:
			i := rng.Intn(5)
			return fmt.Sprintf("s LIKE '%s%%'", "abgde"[i:i+1])
		default:
			return fmt.Sprintf("u = %d", rng.Intn(5))
		}
	}

	genQuery := func() string {
		var sb strings.Builder
		sb.WriteString("SELECT ")
		distinct := rng.Intn(5) == 0
		if distinct {
			sb.WriteString("DISTINCT ")
		}
		grouped := rng.Intn(6) == 0
		if grouped {
			sb.WriteString("n, COUNT(*), MIN(f), SUM(f), AVG(f) FROM big")
		} else {
			sb.WriteString([]string{"*", "id, n, f", "big.*", "id, s AS name, f"}[rng.Intn(4)])
			sb.WriteString(" FROM big")
		}
		joined := !grouped && rng.Intn(3) == 0
		if joined {
			switch rng.Intn(4) {
			case 0:
				sb.WriteString(" JOIN side ON big.n = side.k")
			case 1:
				sb.WriteString(" LEFT JOIN side ON big.n = side.k")
			case 2:
				// RIGHT drives from side and NULL-extends big: the projected
				// big columns go through the Kleene filters as NULLs.
				sb.WriteString(" RIGHT JOIN side ON big.n = side.k")
			case 3:
				sb.WriteString(" CROSS JOIN side")
			}
		}
		if rng.Intn(5) > 0 {
			sb.WriteString(" WHERE ")
			sb.WriteString(conjunct())
			for extra := rng.Intn(3); extra > 0; extra-- {
				sb.WriteString([]string{" AND ", " OR "}[rng.Intn(2)])
				sb.WriteString(conjunct())
			}
		}
		if grouped {
			sb.WriteString(" GROUP BY n")
			if rng.Intn(2) == 0 {
				sb.WriteString(" ORDER BY n")
			}
		} else if rng.Intn(2) == 0 {
			col := []string{"id", "n", "f", "s", "2", "name"}[rng.Intn(6)]
			if col == "name" && !strings.Contains(sb.String(), "AS name") {
				col = "s"
			}
			if col == "2" && strings.Contains(sb.String(), "*") {
				col = "f"
			}
			sb.WriteString(" ORDER BY " + col)
			if rng.Intn(2) == 0 {
				sb.WriteString(" DESC")
			}
		}
		if rng.Intn(3) == 0 {
			fmt.Fprintf(&sb, " LIMIT %d", rng.Intn(30))
			if rng.Intn(2) == 0 {
				fmt.Fprintf(&sb, " OFFSET %d", rng.Intn(10))
			}
		}
		return sb.String()
	}

	format := func(rs *ResultSet) string {
		var sb strings.Builder
		for _, row := range rs.Rows {
			for _, v := range row {
				sb.WriteString(FormatValue(v))
				sb.WriteByte('|')
			}
			sb.WriteByte('\n')
		}
		return sb.String()
	}

	// drainCursorFormatted streams a query through the cursor API, building
	// the same formatted transcript the materialized comparison uses.
	drainCursorFormatted := func(db *DB, query string) (string, error) {
		cur, err := db.QueryCursor(query)
		if err != nil {
			return "", err
		}
		defer cur.Close()
		var sb strings.Builder
		for {
			row, err := cur.Next()
			if err != nil {
				return "", err
			}
			if row == nil {
				return sb.String(), nil
			}
			for _, v := range row {
				sb.WriteString(FormatValue(v))
				sb.WriteByte('|')
			}
			sb.WriteByte('\n')
		}
	}

	type legResult struct {
		name string
		out  string
		err  error
	}
	// runLegs executes query on every leg of db. Shapes the kernels don't
	// cover fall back to the row cursor, so every query is answerable on
	// all legs; with no concurrent writer the latest MVCC snapshot must
	// reproduce the lock-mode transcripts byte for byte.
	runLegs := func(db *DB, name, query string) []legResult {
		var out []legResult
		materialized := func(leg string) {
			rs, err := db.Query(query)
			r := legResult{name: name + " " + leg, err: err}
			if err == nil {
				r.out = format(rs)
			}
			out = append(out, r)
		}
		streamed := func(leg string) {
			s, err := drainCursorFormatted(db, query)
			out = append(out, legResult{name: name + " " + leg + " cursor", out: s, err: err})
		}
		materialized("row")
		streamed("row")
		db.setIndexAccess(false)
		materialized("row without indexes")
		db.setIndexAccess(true)
		db.SetBatchExecution(true)
		materialized("vectorized")
		streamed("vectorized")
		db.SetBatchExecution(false)
		db.SetMVCC(true)
		materialized("mvcc row")
		streamed("mvcc row")
		db.SetBatchExecution(true)
		materialized("mvcc vectorized")
		streamed("mvcc vectorized")
		db.SetBatchExecution(false)
		db.SetMVCC(false)
		return out
	}

	for q := 0; q < 500; q++ {
		query := genQuery()
		var legs []legResult
		for i, db := range dbs {
			legs = append(legs, runLegs(db, dbNames[i], query)...)
		}
		ref := legs[0]
		for _, l := range legs[1:] {
			if (ref.err != nil) != (l.err != nil) {
				t.Fatalf("query %q: error mismatch: %s=%v %s=%v", query, ref.name, ref.err, l.name, l.err)
			}
			if l.out != ref.out {
				t.Fatalf("query %q:\n%s:\n%s\n%s:\n%s", query, l.name, l.out, ref.name, ref.out)
			}
		}
	}
	if ps := fanDB.ParallelStats(); ps.ParallelScans == 0 || ps.ParallelAggregates == 0 {
		t.Fatalf("fuzz never exercised the partition exchange: %+v", ps)
	}
	if ps := serialDB.ParallelStats(); ps.ParallelScans != 0 || ps.ParallelAggregates != 0 {
		t.Fatalf("a one-partition database fanned out: %+v", ps)
	}
	for i, db := range dbs {
		if bs := db.BatchStats(); bs.BatchScans == 0 || bs.BatchAggregates == 0 {
			t.Fatalf("%s: fuzz never exercised the vectorized paths: %+v", dbNames[i], bs)
		}
	}
}

func TestAggregatesMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	db, data := buildOracleDB(t, rng, 200)
	rs := mustQuery(t, db, "SELECT COUNT(*), COUNT(n), SUM(n), MIN(f), MAX(f) FROM t")
	row := rs.Rows[0]

	var cnt, cntN, sum int64
	var minF, maxF Value
	for _, r := range data {
		cnt++
		if r.n != nil {
			cntN++
			sum += r.n.(int64)
		}
		if r.f != nil {
			if minF == nil || r.f.(float64) < minF.(float64) {
				minF = r.f
			}
			if maxF == nil || r.f.(float64) > maxF.(float64) {
				maxF = r.f
			}
		}
	}
	if row[0] != cnt || row[1] != cntN || row[2] != sum {
		t.Fatalf("counts: got %v/%v/%v want %d/%d/%d", row[0], row[1], row[2], cnt, cntN, sum)
	}
	if Compare(row[3], minF) != 0 || Compare(row[4], maxF) != 0 {
		t.Fatalf("min/max: got %v/%v want %v/%v", row[3], row[4], minF, maxF)
	}

	// GROUP BY n cross-check.
	rs = mustQuery(t, db, "SELECT n, COUNT(*) FROM t WHERE n IS NOT NULL GROUP BY n ORDER BY n")
	wantGroups := map[int64]int64{}
	for _, r := range data {
		if r.n != nil {
			wantGroups[r.n.(int64)]++
		}
	}
	if len(rs.Rows) != len(wantGroups) {
		t.Fatalf("groups = %d, want %d", len(rs.Rows), len(wantGroups))
	}
	for _, row := range rs.Rows {
		if wantGroups[row[0].(int64)] != row[1].(int64) {
			t.Fatalf("group %v count %v, want %d", row[0], row[1], wantGroups[row[0].(int64)])
		}
	}
}
