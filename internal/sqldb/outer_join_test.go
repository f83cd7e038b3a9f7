package sqldb

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

func TestRightJoin(t *testing.T) {
	db := newJoinDB(t)
	// RIGHT JOIN preserves the right-hand relation: every gene appears,
	// ORPHAN with a NULL term — exactly the LEFT JOIN with inputs flipped.
	rs := mustQuery(t, db, `SELECT g.symbol, a.term FROM annos a
		RIGHT JOIN genes g ON a.gene_id = g.id ORDER BY g.symbol, a.term`)
	left := mustQuery(t, db, `SELECT g.symbol, a.term FROM genes g
		LEFT JOIN annos a ON a.gene_id = g.id ORDER BY g.symbol, a.term`)
	if len(rs.Rows) != len(left.Rows) {
		t.Fatalf("right join rows = %d, flipped left join rows = %d", len(rs.Rows), len(left.Rows))
	}
	for i := range rs.Rows {
		if FormatValue(rs.Rows[i][0]) != FormatValue(left.Rows[i][0]) ||
			FormatValue(rs.Rows[i][1]) != FormatValue(left.Rows[i][1]) {
			t.Fatalf("row %d: right=%v left=%v", i, rs.Rows[i], left.Rows[i])
		}
	}
}

func TestRightJoinPreservesDangling(t *testing.T) {
	db := newJoinDB(t)
	// Flipping the other way: annos is preserved, so the dangling
	// annotation (gene_id=99) survives with a NULL symbol.
	rs := mustQuery(t, db, `SELECT a.term, g.symbol FROM genes g
		RIGHT JOIN annos a ON a.gene_id = g.id ORDER BY a.term`)
	if len(rs.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(rs.Rows))
	}
	found := false
	for _, r := range rs.Rows {
		if r[0] == "GO:dangling" {
			found = true
			if r[1] != nil {
				t.Errorf("dangling annotation symbol = %v, want NULL", r[1])
			}
		}
	}
	if !found {
		t.Error("right join lost the dangling annotation")
	}
}

func TestRightJoinRequiresSoleJoin(t *testing.T) {
	db := newJoinDB(t)
	mustExec(t, db, "CREATE TABLE terms (term TEXT, name TEXT)")
	_, err := db.Query(`SELECT g.symbol FROM genes g
		RIGHT JOIN annos a ON a.gene_id = g.id
		JOIN terms t ON a.term = t.term`)
	if err == nil || !strings.Contains(err.Error(), "RIGHT JOIN") {
		t.Fatalf("multi-join RIGHT JOIN err = %v, want sole-join restriction", err)
	}
}

func TestCrossJoin(t *testing.T) {
	db := newJoinDB(t)
	rs := mustQuery(t, db, "SELECT g.symbol, a.term FROM genes g CROSS JOIN annos a")
	if len(rs.Rows) != 4*5 {
		t.Fatalf("cross join rows = %d, want 20", len(rs.Rows))
	}
	// A WHERE over the cross product recovers the equi-join.
	rs = mustQuery(t, db, `SELECT g.symbol, a.term FROM genes g CROSS JOIN annos a
		WHERE g.id = a.gene_id ORDER BY g.symbol, a.term`)
	inner := mustQuery(t, db, `SELECT g.symbol, a.term FROM genes g
		JOIN annos a ON g.id = a.gene_id ORDER BY g.symbol, a.term`)
	if len(rs.Rows) != len(inner.Rows) {
		t.Fatalf("filtered cross product rows = %d, inner join rows = %d", len(rs.Rows), len(inner.Rows))
	}
}

// TestLeftJoinNullThroughWhere pins the Kleene tri-state treatment of
// NULL-extended rows: a comparison against the NULL-extended column is
// unknown, so both the predicate and its negation drop the row; only IS
// NULL keeps it.
func TestLeftJoinNullThroughWhere(t *testing.T) {
	db := newJoinDB(t)
	q := func(where string) int {
		rs := mustQuery(t, db, `SELECT g.symbol FROM genes g
			LEFT JOIN annos a ON g.id = a.gene_id WHERE `+where)
		return len(rs.Rows)
	}
	if n := q("a.term <> 'GO:0009116'"); n != 3 {
		t.Errorf("<> over NULL-extended rows = %d, want 3 (unknown filters out)", n)
	}
	if n := q("NOT (a.term = 'GO:0009116')"); n != 3 {
		t.Errorf("NOT(=) over NULL-extended rows = %d, want 3 (NOT unknown is unknown)", n)
	}
	if n := q("a.term IS NULL"); n != 1 {
		t.Errorf("IS NULL rows = %d, want 1", n)
	}
	if n := q("a.term IS NOT NULL"); n != 4 {
		t.Errorf("IS NOT NULL rows = %d, want 4", n)
	}
}

// TestLeftJoinNullThroughAggregates: COUNT(col) skips the NULL-extended
// values COUNT(*) keeps, and MIN/MAX/SUM ignore them.
func TestLeftJoinNullThroughAggregates(t *testing.T) {
	db := newJoinDB(t)
	rs := mustQuery(t, db, `SELECT COUNT(*), COUNT(a.term) FROM genes g
		LEFT JOIN annos a ON g.id = a.gene_id`)
	if rs.Rows[0][0].(int64) != 5 || rs.Rows[0][1].(int64) != 4 {
		t.Fatalf("COUNT(*), COUNT(term) = %v, want 5, 4", rs.Rows[0])
	}
	rs = mustQuery(t, db, `SELECT MIN(a.term), MAX(a.term) FROM genes g
		LEFT JOIN annos a ON g.id = a.gene_id WHERE g.symbol = 'ORPHAN'`)
	if rs.Rows[0][0] != nil || rs.Rows[0][1] != nil {
		t.Fatalf("MIN/MAX over only-NULL group = %v, want NULLs", rs.Rows[0])
	}
}

// TestLeftJoinNullThroughDistinct: the NULL-extended value is one distinct
// value, not dropped and not duplicated.
func TestLeftJoinNullThroughDistinct(t *testing.T) {
	db := newJoinDB(t)
	rs := mustQuery(t, db, `SELECT DISTINCT a.term FROM genes g
		LEFT JOIN annos a ON g.id = a.gene_id`)
	nulls, vals := 0, map[string]bool{}
	for _, r := range rs.Rows {
		if r[0] == nil {
			nulls++
		} else {
			vals[r[0].(string)] = true
		}
	}
	if nulls != 1 || len(vals) != 4 {
		t.Fatalf("distinct terms = %d values + %d NULL rows, want 4 + 1", len(vals), nulls)
	}
}

// TestLeftJoinAntiJoinUnionOracle proves on random data that LEFT JOIN
// equals the manual union of the inner join and the NULL-extended
// anti-join, across the row and index legs.
func TestLeftJoinAntiJoinUnionOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	db := NewDB()
	mustExec(t, db, "CREATE TABLE l (id INTEGER PRIMARY KEY, k INTEGER)")
	mustExec(t, db, "CREATE TABLE r (k INTEGER, w TEXT)")
	mustExec(t, db, "CREATE INDEX idx_r_k ON r (k)")
	type lrow struct {
		id int64
		k  any
	}
	var left []lrow
	rightKs := map[int64]int{} // k -> matching right-row count
	for i := 0; i < 120; i++ {
		var k any
		if rng.Intn(8) > 0 {
			k = int64(rng.Intn(15))
		}
		left = append(left, lrow{int64(i), k})
		mustExec(t, db, "INSERT INTO l VALUES (?, ?)", i, k)
	}
	for i := 0; i < 50; i++ {
		var k any
		if rng.Intn(8) > 0 {
			kk := int64(rng.Intn(15))
			k = kk
			rightKs[kk]++
		}
		mustExec(t, db, "INSERT INTO r VALUES (?, ?)", k, fmt.Sprintf("w%d", i))
	}

	format := func(rows [][]Value) []string {
		var out []string
		for _, r := range rows {
			out = append(out, FormatValue(r[0])+"|"+FormatValue(r[1]))
		}
		sortStrings(out)
		return out
	}

	for _, useIndex := range []bool{true, false} {
		db.setIndexAccess(useIndex)
		outer := mustQuery(t, db, "SELECT l.id, r.w FROM l LEFT JOIN r ON l.k = r.k")
		inner := mustQuery(t, db, "SELECT l.id, r.w FROM l JOIN r ON l.k = r.k")
		// Manual anti-join: left rows with no right match (a NULL key never
		// matches), NULL-extended.
		union := append([][]Value{}, inner.Rows...)
		for _, lr := range left {
			k, ok := lr.k.(int64)
			if !ok || rightKs[k] == 0 {
				union = append(union, []Value{lr.id, nil})
			}
		}
		got, want := format(outer.Rows), format(union)
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("useIndex=%v: LEFT JOIN (%d rows) != inner ∪ anti-join (%d rows)",
				useIndex, len(got), len(want))
		}
	}
	db.setIndexAccess(true)
}
