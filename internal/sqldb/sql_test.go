package sqldb

import (
	"errors"
	"strings"
	"testing"
)

func mustExec(t *testing.T, db *DB, sql string, args ...any) Result {
	t.Helper()
	res, err := db.Exec(sql, args...)
	if err != nil {
		t.Fatalf("Exec(%s): %v", sql, err)
	}
	return res
}

func mustQuery(t *testing.T, db *DB, sql string, args ...any) *ResultSet {
	t.Helper()
	rs, err := db.Query(sql, args...)
	if err != nil {
		t.Fatalf("Query(%s): %v", sql, err)
	}
	return rs
}

func newPeopleDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	mustExec(t, db, `CREATE TABLE people (
		id INTEGER PRIMARY KEY AUTOINCREMENT,
		name TEXT NOT NULL,
		age INTEGER,
		city TEXT
	)`)
	rows := []struct {
		name string
		age  any
		city any
	}{
		{"alice", 30, "leipzig"},
		{"bob", 25, "berlin"},
		{"carol", 35, "leipzig"},
		{"dave", nil, "munich"},
		{"erin", 28, nil},
	}
	for _, r := range rows {
		mustExec(t, db, "INSERT INTO people (name, age, city) VALUES (?, ?, ?)", r.name, r.age, r.city)
	}
	return db
}

func TestCreateInsertSelect(t *testing.T) {
	db := newPeopleDB(t)
	rs := mustQuery(t, db, "SELECT id, name FROM people ORDER BY id")
	if len(rs.Rows) != 5 {
		t.Fatalf("got %d rows, want 5", len(rs.Rows))
	}
	if rs.Rows[0][0] != int64(1) || rs.Rows[0][1] != "alice" {
		t.Errorf("first row = %v", rs.Rows[0])
	}
	if rs.Columns[0] != "id" || rs.Columns[1] != "name" {
		t.Errorf("columns = %v", rs.Columns)
	}
}

func TestAutoIncrement(t *testing.T) {
	db := newPeopleDB(t)
	res := mustExec(t, db, "INSERT INTO people (name) VALUES ('frank')")
	if res.LastInsertID != 6 {
		t.Errorf("LastInsertID = %d, want 6", res.LastInsertID)
	}
	// Explicit higher ID advances the sequence.
	mustExec(t, db, "INSERT INTO people (id, name) VALUES (100, 'gina')")
	res = mustExec(t, db, "INSERT INTO people (name) VALUES ('hank')")
	if res.LastInsertID != 101 {
		t.Errorf("LastInsertID after explicit 100 = %d, want 101", res.LastInsertID)
	}
}

func TestWhereOperators(t *testing.T) {
	db := newPeopleDB(t)
	cases := []struct {
		where string
		want  []string
	}{
		{"age = 30", []string{"alice"}},
		{"age <> 30", []string{"bob", "carol", "erin"}},
		{"age > 28", []string{"alice", "carol"}},
		{"age >= 28", []string{"alice", "carol", "erin"}},
		{"age < 28", []string{"bob"}},
		{"age <= 28", []string{"bob", "erin"}},
		{"age BETWEEN 25 AND 30", []string{"alice", "bob", "erin"}},
		{"age NOT BETWEEN 25 AND 30", []string{"carol"}},
		{"age IS NULL", []string{"dave"}},
		{"age IS NOT NULL", []string{"alice", "bob", "carol", "erin"}},
		{"name LIKE 'a%'", []string{"alice"}},
		{"name LIKE '%o%'", []string{"bob", "carol"}},
		{"name LIKE '_ob'", []string{"bob"}},
		{"name NOT LIKE '%a%'", []string{"bob", "erin"}},
		{"city IN ('leipzig', 'berlin')", []string{"alice", "bob", "carol"}},
		{"city NOT IN ('leipzig')", []string{"bob", "dave"}},
		{"age = 30 OR age = 25", []string{"alice", "bob"}},
		{"age > 20 AND city = 'leipzig'", []string{"alice", "carol"}},
		{"NOT (city = 'leipzig')", []string{"bob", "dave"}},
	}
	for _, c := range cases {
		rs := mustQuery(t, db, "SELECT name FROM people WHERE "+c.where+" ORDER BY name")
		var got []string
		for _, r := range rs.Rows {
			got = append(got, r[0].(string))
		}
		if strings.Join(got, ",") != strings.Join(c.want, ",") {
			t.Errorf("WHERE %s: got %v, want %v", c.where, got, c.want)
		}
	}
}

func TestNullComparisonYieldsNoRows(t *testing.T) {
	db := newPeopleDB(t)
	// age = NULL is never true.
	rs := mustQuery(t, db, "SELECT name FROM people WHERE age = NULL")
	if len(rs.Rows) != 0 {
		t.Errorf("age = NULL matched %d rows, want 0", len(rs.Rows))
	}
	// NULL city doesn't match NOT IN either (three-valued logic).
	rs = mustQuery(t, db, "SELECT name FROM people WHERE city NOT IN ('munich')")
	for _, r := range rs.Rows {
		if r[0] == "erin" {
			t.Error("NULL city must not satisfy NOT IN")
		}
	}
}

func TestProjectionExpressions(t *testing.T) {
	db := newPeopleDB(t)
	rs := mustQuery(t, db, "SELECT name, age + 10 AS later, UPPER(name) FROM people WHERE age IS NOT NULL ORDER BY age")
	if rs.Columns[1] != "later" {
		t.Errorf("alias column = %q", rs.Columns[1])
	}
	if rs.Rows[0][1] != int64(35) {
		t.Errorf("bob age+10 = %v", rs.Rows[0][1])
	}
	if rs.Rows[0][2] != "BOB" {
		t.Errorf("UPPER = %v", rs.Rows[0][2])
	}
}

func TestScalarFunctions(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE t (s TEXT, n INTEGER, f REAL)")
	mustExec(t, db, "INSERT INTO t VALUES ('  Hello  ', -7, -2.5)")
	rs := mustQuery(t, db, "SELECT TRIM(s), LOWER(s), LENGTH(s), ABS(n), ABS(f), SUBSTR(TRIM(s), 2, 3), COALESCE(NULL, n, 99) FROM t")
	row := rs.Rows[0]
	if row[0] != "Hello" {
		t.Errorf("TRIM = %q", row[0])
	}
	if row[1] != "  hello  " {
		t.Errorf("LOWER = %q", row[1])
	}
	if row[2] != int64(9) {
		t.Errorf("LENGTH = %v", row[2])
	}
	if row[3] != int64(7) {
		t.Errorf("ABS int = %v", row[3])
	}
	if row[4] != 2.5 {
		t.Errorf("ABS float = %v", row[4])
	}
	if row[5] != "ell" {
		t.Errorf("SUBSTR = %q", row[5])
	}
	if row[6] != int64(-7) {
		t.Errorf("COALESCE = %v", row[6])
	}
}

func TestStringConcat(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE t (a TEXT, b TEXT)")
	mustExec(t, db, "INSERT INTO t VALUES ('foo', 'bar')")
	rs := mustQuery(t, db, "SELECT a || '-' || b FROM t")
	if rs.Rows[0][0] != "foo-bar" {
		t.Errorf("concat = %v", rs.Rows[0][0])
	}
}

func TestArithmetic(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE t (n INTEGER, f REAL)")
	mustExec(t, db, "INSERT INTO t VALUES (7, 2.0)")
	rs := mustQuery(t, db, "SELECT n + 3, n - 3, n * 2, n / 2, n % 3, n / f, -n FROM t")
	row := rs.Rows[0]
	want := []Value{int64(10), int64(4), int64(14), int64(3), int64(1), 3.5, int64(-7)}
	for i, w := range want {
		if row[i] != w {
			t.Errorf("col %d = %v, want %v", i, row[i], w)
		}
	}
	if _, err := db.Query("SELECT n / 0 FROM t"); err == nil {
		t.Error("expected division-by-zero error")
	}
}

func TestOrderByDirections(t *testing.T) {
	db := newPeopleDB(t)
	rs := mustQuery(t, db, "SELECT name FROM people WHERE age IS NOT NULL ORDER BY age DESC, name ASC")
	got := make([]string, len(rs.Rows))
	for i, r := range rs.Rows {
		got[i] = r[0].(string)
	}
	want := []string{"carol", "alice", "erin", "bob"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("ORDER BY DESC = %v, want %v", got, want)
	}
	// NULLs sort first ascending.
	rs = mustQuery(t, db, "SELECT name FROM people ORDER BY age, name")
	if rs.Rows[0][0] != "dave" {
		t.Errorf("NULL should sort first, got %v", rs.Rows[0][0])
	}
}

func TestOrderByOrdinalAndAlias(t *testing.T) {
	db := newPeopleDB(t)
	rs := mustQuery(t, db, "SELECT name, age AS years FROM people WHERE age IS NOT NULL ORDER BY 2 DESC")
	if rs.Rows[0][0] != "carol" {
		t.Errorf("ORDER BY ordinal: first = %v", rs.Rows[0][0])
	}
	rs = mustQuery(t, db, "SELECT name, age * 2 AS doubled FROM people WHERE age IS NOT NULL ORDER BY doubled")
	if rs.Rows[0][0] != "bob" {
		t.Errorf("ORDER BY alias: first = %v", rs.Rows[0][0])
	}
}

func TestLimitOffset(t *testing.T) {
	db := newPeopleDB(t)
	rs := mustQuery(t, db, "SELECT name FROM people ORDER BY name LIMIT 2")
	if len(rs.Rows) != 2 || rs.Rows[0][0] != "alice" {
		t.Errorf("LIMIT 2 = %v", rs.Rows)
	}
	rs = mustQuery(t, db, "SELECT name FROM people ORDER BY name LIMIT 2 OFFSET 3")
	if len(rs.Rows) != 2 || rs.Rows[0][0] != "dave" {
		t.Errorf("LIMIT/OFFSET = %v", rs.Rows)
	}
	rs = mustQuery(t, db, "SELECT name FROM people ORDER BY name LIMIT 10 OFFSET 100")
	if len(rs.Rows) != 0 {
		t.Errorf("offset beyond end should be empty, got %v", rs.Rows)
	}
}

func TestDistinct(t *testing.T) {
	db := newPeopleDB(t)
	rs := mustQuery(t, db, "SELECT DISTINCT city FROM people WHERE city IS NOT NULL ORDER BY city")
	if len(rs.Rows) != 3 {
		t.Fatalf("DISTINCT returned %d rows, want 3", len(rs.Rows))
	}
}

func TestAggregates(t *testing.T) {
	db := newPeopleDB(t)
	rs := mustQuery(t, db, "SELECT COUNT(*), COUNT(age), SUM(age), AVG(age), MIN(age), MAX(age) FROM people")
	row := rs.Rows[0]
	if row[0] != int64(5) {
		t.Errorf("COUNT(*) = %v", row[0])
	}
	if row[1] != int64(4) {
		t.Errorf("COUNT(age) = %v (NULLs must be skipped)", row[1])
	}
	if row[2] != int64(118) {
		t.Errorf("SUM = %v", row[2])
	}
	if row[3] != 29.5 {
		t.Errorf("AVG = %v", row[3])
	}
	if row[4] != int64(25) || row[5] != int64(35) {
		t.Errorf("MIN/MAX = %v/%v", row[4], row[5])
	}
}

func TestAggregateEmptyTable(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE empty (n INTEGER)")
	rs := mustQuery(t, db, "SELECT COUNT(*), SUM(n), MIN(n) FROM empty")
	if len(rs.Rows) != 1 {
		t.Fatalf("global aggregate over empty table must yield one row, got %d", len(rs.Rows))
	}
	row := rs.Rows[0]
	if row[0] != int64(0) {
		t.Errorf("COUNT(*) = %v, want 0", row[0])
	}
	if row[1] != nil || row[2] != nil {
		t.Errorf("SUM/MIN over empty = %v/%v, want NULL/NULL", row[1], row[2])
	}
}

func TestGroupByHaving(t *testing.T) {
	db := newPeopleDB(t)
	rs := mustQuery(t, db, `SELECT city, COUNT(*) AS n, AVG(age)
		FROM people WHERE city IS NOT NULL
		GROUP BY city HAVING COUNT(*) > 1 ORDER BY city`)
	if len(rs.Rows) != 1 {
		t.Fatalf("HAVING filtered to %d groups, want 1", len(rs.Rows))
	}
	if rs.Rows[0][0] != "leipzig" || rs.Rows[0][1] != int64(2) || rs.Rows[0][2] != 32.5 {
		t.Errorf("group row = %v", rs.Rows[0])
	}
}

func TestGroupByExpression(t *testing.T) {
	db := newPeopleDB(t)
	rs := mustQuery(t, db, "SELECT age % 2, COUNT(*) FROM people WHERE age IS NOT NULL GROUP BY age % 2 ORDER BY 1")
	if len(rs.Rows) != 2 {
		t.Fatalf("groups = %d, want 2", len(rs.Rows))
	}
}

func TestUpdate(t *testing.T) {
	db := newPeopleDB(t)
	res := mustExec(t, db, "UPDATE people SET city = 'dresden' WHERE city = 'leipzig'")
	if res.RowsAffected != 2 {
		t.Fatalf("RowsAffected = %d, want 2", res.RowsAffected)
	}
	rs := mustQuery(t, db, "SELECT COUNT(*) FROM people WHERE city = 'dresden'")
	if rs.Rows[0][0] != int64(2) {
		t.Errorf("dresden count = %v", rs.Rows[0][0])
	}
	// Update referencing old value.
	mustExec(t, db, "UPDATE people SET age = age + 1 WHERE age IS NOT NULL")
	rs = mustQuery(t, db, "SELECT age FROM people WHERE name = 'alice'")
	if rs.Rows[0][0] != int64(31) {
		t.Errorf("alice age = %v, want 31", rs.Rows[0][0])
	}
}

func TestDelete(t *testing.T) {
	db := newPeopleDB(t)
	res := mustExec(t, db, "DELETE FROM people WHERE age < 30")
	if res.RowsAffected != 2 {
		t.Fatalf("RowsAffected = %d, want 2", res.RowsAffected)
	}
	rs := mustQuery(t, db, "SELECT COUNT(*) FROM people")
	if rs.Rows[0][0] != int64(3) {
		t.Errorf("remaining = %v, want 3", rs.Rows[0][0])
	}
	res = mustExec(t, db, "DELETE FROM people")
	if res.RowsAffected != 3 {
		t.Fatalf("delete all affected %d", res.RowsAffected)
	}
}

func TestNotNullConstraint(t *testing.T) {
	db := newPeopleDB(t)
	if _, err := db.Exec("INSERT INTO people (age) VALUES (40)"); err == nil {
		t.Fatal("expected NOT NULL violation for missing name")
	}
}

func TestUniquePrimaryKey(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
	mustExec(t, db, "INSERT INTO t VALUES (1, 'a')")
	_, err := db.Exec("INSERT INTO t VALUES (1, 'b')")
	if err == nil {
		t.Fatal("expected UNIQUE violation")
	}
	var ue *UniqueError
	if !asUniqueError(err, &ue) {
		t.Fatalf("error type = %T, want *UniqueError", err)
	}
}

func asUniqueError(err error, target **UniqueError) bool {
	for err != nil {
		if ue, ok := err.(*UniqueError); ok {
			*target = ue
			return true
		}
		type unwrapper interface{ Unwrap() error }
		u, ok := err.(unwrapper)
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

func TestMultiRowInsertAtomicity(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE t (id INTEGER PRIMARY KEY)")
	mustExec(t, db, "INSERT INTO t VALUES (3)")
	// Second row collides; the whole statement must roll back.
	if _, err := db.Exec("INSERT INTO t VALUES (1), (3), (5)"); err == nil {
		t.Fatal("expected UNIQUE violation")
	}
	rs := mustQuery(t, db, "SELECT COUNT(*) FROM t")
	if rs.Rows[0][0] != int64(1) {
		t.Errorf("partial insert leaked rows: count = %v, want 1", rs.Rows[0][0])
	}
}

func TestDefaultValues(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE t (id INTEGER PRIMARY KEY AUTOINCREMENT, status TEXT DEFAULT 'new', score INTEGER DEFAULT 0)")
	mustExec(t, db, "INSERT INTO t (id) VALUES (NULL)")
	rs := mustQuery(t, db, "SELECT status, score FROM t")
	if rs.Rows[0][0] != "new" || rs.Rows[0][1] != int64(0) {
		t.Errorf("defaults = %v", rs.Rows[0])
	}
}

func TestSecondaryIndexUse(t *testing.T) {
	db := newPeopleDB(t)
	mustExec(t, db, "CREATE INDEX idx_city ON people (city)")
	rs := mustQuery(t, db, "SELECT name FROM people WHERE city = 'leipzig' ORDER BY name")
	if len(rs.Rows) != 2 {
		t.Fatalf("indexed lookup returned %d rows, want 2", len(rs.Rows))
	}
	// Index stays consistent across update/delete.
	mustExec(t, db, "UPDATE people SET city = 'halle' WHERE name = 'alice'")
	rs = mustQuery(t, db, "SELECT name FROM people WHERE city = 'leipzig'")
	if len(rs.Rows) != 1 || rs.Rows[0][0] != "carol" {
		t.Fatalf("after update: %v", rs.Rows)
	}
	mustExec(t, db, "DELETE FROM people WHERE city = 'halle'")
	rs = mustQuery(t, db, "SELECT name FROM people WHERE city = 'halle'")
	if len(rs.Rows) != 0 {
		t.Fatalf("after delete: %v", rs.Rows)
	}
}

func TestUniqueSecondaryIndex(t *testing.T) {
	db := newPeopleDB(t)
	mustExec(t, db, "CREATE UNIQUE INDEX idx_name ON people (name)")
	if _, err := db.Exec("INSERT INTO people (name) VALUES ('alice')"); err == nil {
		t.Fatal("expected unique index violation")
	}
	// Building a unique index over duplicate data must fail.
	mustExec(t, db, "INSERT INTO people (name, city) VALUES ('zeta', 'leipzig')")
	mustExec(t, db, "INSERT INTO people (name, city) VALUES ('ypsilon', 'leipzig')")
	if _, err := db.Exec("CREATE UNIQUE INDEX idx_city2 ON people (city)"); err == nil {
		t.Fatal("expected unique index build failure over duplicates")
	}

	// The build reports the first duplicate in row-ID order ("a" repeats
	// at row 50, before "x" at row 200; NULLs never collide) whatever the
	// partition layout, and a failed build leaves the index name free.
	u := NewDB()
	u.SetPartitions(4)
	mustExec(t, u, "CREATE TABLE u (id INTEGER PRIMARY KEY, k TEXT)")
	for _, r := range []struct {
		id int64
		k  any
	}{
		{0, "x"}, {10, "a"}, {50, "a"}, {200, "x"}, {201, nil}, {202, nil},
	} {
		mustExec(t, u, "INSERT INTO u VALUES (?, ?)", r.id, r.k)
	}
	_, err := u.Exec("CREATE UNIQUE INDEX uk ON u (k) USING BTREE")
	var ue *UniqueError
	if !errors.As(err, &ue) || ue.Table != "u" || ue.Value != "a" {
		t.Fatalf("unique build over duplicates: %v, want UniqueError on %q", err, "a")
	}
	mustExec(t, u, "CREATE INDEX uk ON u (k) USING BTREE")
}

func TestBTreeIndexRangeConsistency(t *testing.T) {
	db := newPeopleDB(t)
	mustExec(t, db, "CREATE INDEX idx_age ON people (age) USING BTREE")
	rs := mustQuery(t, db, "SELECT name FROM people WHERE age >= 28 AND age <= 35 ORDER BY name")
	if len(rs.Rows) != 3 {
		t.Fatalf("range query rows = %d, want 3", len(rs.Rows))
	}
}

func TestDropTableAndIndex(t *testing.T) {
	db := newPeopleDB(t)
	mustExec(t, db, "CREATE INDEX idx_city ON people (city)")
	mustExec(t, db, "DROP INDEX idx_city ON people")
	if _, err := db.Exec("DROP INDEX idx_city ON people"); err == nil {
		t.Fatal("double drop index should fail")
	}
	mustExec(t, db, "DROP INDEX IF EXISTS idx_city ON people")
	mustExec(t, db, "DROP TABLE people")
	if _, err := db.Query("SELECT * FROM people"); err == nil {
		t.Fatal("query after drop should fail")
	}
	mustExec(t, db, "DROP TABLE IF EXISTS people")
	if _, err := db.Exec("DROP TABLE people"); err == nil {
		t.Fatal("double drop table should fail")
	}
}

func TestCreateTableIfNotExists(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE t (id INTEGER)")
	if _, err := db.Exec("CREATE TABLE t (id INTEGER)"); err == nil {
		t.Fatal("duplicate create should fail")
	}
	mustExec(t, db, "CREATE TABLE IF NOT EXISTS t (id INTEGER)")
}

func TestSelectStar(t *testing.T) {
	db := newPeopleDB(t)
	rs := mustQuery(t, db, "SELECT * FROM people WHERE name = 'alice'")
	if len(rs.Columns) != 4 {
		t.Fatalf("star columns = %v", rs.Columns)
	}
	if rs.Rows[0][1] != "alice" {
		t.Errorf("star row = %v", rs.Rows[0])
	}
}

func TestQuotedIdentifiersAndComments(t *testing.T) {
	db := NewDB()
	mustExec(t, db, `CREATE TABLE "select" ("order" INTEGER) -- tricky names`)
	mustExec(t, db, `INSERT INTO "select" ("order") VALUES (1)`)
	rs := mustQuery(t, db, `SELECT "order" FROM "select"`)
	if rs.Rows[0][0] != int64(1) {
		t.Errorf("quoted identifier round trip = %v", rs.Rows[0])
	}
}

func TestParameterBinding(t *testing.T) {
	db := newPeopleDB(t)
	rs := mustQuery(t, db, "SELECT name FROM people WHERE age > ? AND city = ? ORDER BY name", 20, "leipzig")
	if len(rs.Rows) != 2 {
		t.Fatalf("param query rows = %d, want 2", len(rs.Rows))
	}
	if _, err := db.Query("SELECT name FROM people WHERE age > ?"); err == nil {
		t.Fatal("missing argument should fail")
	}
}

func TestParseErrors(t *testing.T) {
	db := NewDB()
	bad := []string{
		"",
		"SELEC * FROM t",
		"SELECT FROM t",
		"SELECT * FROM",
		"INSERT t VALUES (1)",
		"CREATE TABLE t (x BLOB)",
		"SELECT * FROM t WHERE",
		"SELECT * FROM t GROUP",
		"CREATE UNIQUE TABLE t (x INTEGER)",
		"SELECT * FROM t; garbage",
		"SELECT 'unterminated FROM t",
	}
	for _, sql := range bad {
		if _, err := db.Query(sql); err == nil {
			t.Errorf("expected parse error for %q", sql)
		}
	}
}

func TestQueryRejectsWrites(t *testing.T) {
	db := NewDB()
	if _, err := db.Query("CREATE TABLE t (x INTEGER)"); err == nil {
		t.Fatal("Query must reject DDL")
	}
	if _, err := db.Exec("SELECT 1 FROM t"); err == nil {
		t.Fatal("Exec must reject SELECT")
	}
}

func TestInsertColumnCountMismatch(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE t (a INTEGER, b INTEGER)")
	if _, err := db.Exec("INSERT INTO t (a) VALUES (1, 2)"); err == nil {
		t.Fatal("expected column/value count mismatch error")
	}
	if _, err := db.Exec("INSERT INTO t VALUES (1)"); err == nil {
		t.Fatal("expected full-width mismatch error")
	}
	if _, err := db.Exec("INSERT INTO t (nope) VALUES (1)"); err == nil {
		t.Fatal("expected unknown column error")
	}
}

func TestTypeCoercionOnInsert(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE t (n INTEGER, s TEXT)")
	mustExec(t, db, "INSERT INTO t VALUES ('42', 17)")
	rs := mustQuery(t, db, "SELECT n, s FROM t")
	if rs.Rows[0][0] != int64(42) {
		t.Errorf("text->int coercion = %v", rs.Rows[0][0])
	}
	if rs.Rows[0][1] != "17" {
		t.Errorf("int->text coercion = %v", rs.Rows[0][1])
	}
	if _, err := db.Exec("INSERT INTO t VALUES ('abc', 'x')"); err == nil {
		t.Fatal("non-numeric text into INTEGER should fail")
	}
}
