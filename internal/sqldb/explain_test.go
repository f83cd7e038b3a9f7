package sqldb

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

var updatePlans = flag.Bool("update-plans", false, "rewrite testdata/plans goldens from current planner output")

func planFixture(t *testing.T) *DB {
	t.Helper()
	db, err := NewPlanFixtureDB()
	if err != nil {
		t.Fatalf("fixture: %v", err)
	}
	return db
}

func goldenPath(name string) string {
	return filepath.Join("testdata", "plans", name+".json")
}

// TestPlanGoldens asserts that EXPLAIN (FORMAT JSON) is byte-identical to
// the committed goldens for every representative case. Run with
// -update-plans after an intentional planner change.
func TestPlanGoldens(t *testing.T) {
	db := planFixture(t)
	for _, tc := range PlanGoldenCases {
		got, err := db.Explain(tc.SQL, "json")
		if err != nil {
			t.Fatalf("%s: Explain: %v", tc.Name, err)
		}
		got += "\n"
		if *updatePlans {
			if err := os.MkdirAll(filepath.Join("testdata", "plans"), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(goldenPath(tc.Name), []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(goldenPath(tc.Name))
		if err != nil {
			t.Fatalf("%s: missing golden (run go test -run TestPlanGoldens -update-plans): %v", tc.Name, err)
		}
		if got != string(want) {
			t.Errorf("%s: plan JSON drifted from golden\n--- got ---\n%s\n--- want ---\n%s", tc.Name, got, want)
		}
	}
}

// TestPlanGoldenStability re-runs every golden case at GOMAXPROCS
// 1/2/4/8: the plan document must not change with the machine's core
// count.
func TestPlanGoldenStability(t *testing.T) {
	db := planFixture(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4, 8} {
		runtime.GOMAXPROCS(procs)
		for _, tc := range PlanGoldenCases {
			got, err := db.Explain(tc.SQL, "json")
			if err != nil {
				t.Fatalf("GOMAXPROCS=%d %s: %v", procs, tc.Name, err)
			}
			want, err := os.ReadFile(goldenPath(tc.Name))
			if err != nil {
				t.Fatalf("%s: %v", tc.Name, err)
			}
			if got+"\n" != string(want) {
				t.Errorf("GOMAXPROCS=%d %s: plan JSON not byte-stable\n--- got ---\n%s", procs, tc.Name, got)
			}
		}
	}
}

// TestPlanGateCatchesRegression is the synthetic planner regression from
// the acceptance criteria: forcing index access off flips an indexed point
// lookup back to a full scan, and the golden comparison must go red.
func TestPlanGateCatchesRegression(t *testing.T) {
	db := planFixture(t)
	db.setIndexAccess(false)
	got, err := db.Explain("SELECT symbol FROM genes WHERE id = 42", "json")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(goldenPath("point_lookup"))
	if err != nil {
		t.Fatal(err)
	}
	if got+"\n" == string(want) {
		t.Fatal("disabling index access did not change the plan document; the plan gate cannot catch planner regressions")
	}
	var doc PlanDoc
	if err := json.Unmarshal([]byte(got), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Access == nil || doc.Access.Path != "full-scan" {
		t.Fatalf("expected regressed plan to be a full scan, got %+v", doc.Access)
	}
}

// TestExplainDocumentFields spot-checks the semantic content of a few
// documents rather than their bytes.
func TestExplainDocumentFields(t *testing.T) {
	db := planFixture(t)
	get := func(sql string) PlanDoc {
		t.Helper()
		s, err := db.Explain(sql, "json")
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		var doc PlanDoc
		if err := json.Unmarshal([]byte(s), &doc); err != nil {
			t.Fatal(err)
		}
		return doc
	}

	doc := get("SELECT symbol FROM genes WHERE id = 42")
	if doc.PlanVersion != PlanVersion {
		t.Fatalf("plan_version = %d, want %d", doc.PlanVersion, PlanVersion)
	}
	if doc.Access.Path != "index-eq" || doc.Access.Key != "42" {
		t.Fatalf("point lookup access = %+v", doc.Access)
	}
	if doc.Cardinality == nil || doc.Cardinality.Estimate != 100 || !doc.Cardinality.Exact {
		t.Fatalf("cardinality = %+v", doc.Cardinality)
	}

	doc = get("SELECT symbol FROM genes WHERE id = ?")
	if doc.Access.Key != "?" {
		t.Fatalf("param key rendered %q, want ?", doc.Access.Key)
	}

	doc = get("SELECT symbol, tss FROM genes ORDER BY tss LIMIT 10")
	if !doc.OrderByIdx || !doc.EarlyExit || doc.Limit != "10" {
		t.Fatalf("ordered-limit doc = order_by_satisfied=%v early_exit=%v limit=%q",
			doc.OrderByIdx, doc.EarlyExit, doc.Limit)
	}
	if doc.Access.Path != "index-range" || !doc.Access.Ordered {
		t.Fatalf("ordered-limit access = %+v", doc.Access)
	}

	doc = get("SELECT g.symbol, a.term FROM annos a RIGHT JOIN genes g ON a.gene_id = g.id")
	if len(doc.Joins) != 1 {
		t.Fatalf("joins = %+v", doc.Joins)
	}
	j := doc.Joins[0]
	if j.Kind != "RIGHT" || !j.Swapped || j.Strategy != "index-loop" || j.Table != "annos" {
		t.Fatalf("right join doc = %+v", j)
	}
	if doc.Access.Table != "genes" {
		t.Fatalf("right join drives from %q, want genes", doc.Access.Table)
	}

	doc = get("SELECT g.symbol, a.term FROM genes g CROSS JOIN annos a")
	if doc.Joins[0].Kind != "CROSS" || doc.Joins[0].On != "" || doc.Joins[0].Strategy != "nested-loop" {
		t.Fatalf("cross join doc = %+v", doc.Joins[0])
	}

	doc = get("SELECT grp, COUNT(*), SUM(val) FROM big GROUP BY grp")
	if a := doc.Aggregate; a == nil || len(a.GroupBy) != 1 || a.GroupBy[0] != "grp" || len(a.Calls) != 2 {
		t.Fatalf("grouped big doc agg=%+v", doc.Aggregate)
	}

	doc = get("UPDATE genes SET symbol = 'X' WHERE id = 7")
	if doc.Statement != "UPDATE" || doc.Table != "genes" || doc.Access.Path != "index-eq" {
		t.Fatalf("update doc = %+v", doc)
	}
	if len(doc.Sets) != 1 || doc.Sets[0] != "symbol = 'X'" {
		t.Fatalf("update sets = %+v", doc.Sets)
	}

	doc = get("INSERT INTO annos (gene_id, term) VALUES (1, 'GO:1'), (2, 'GO:2')")
	if doc.Statement != "INSERT" || doc.Rows != 2 || doc.Table != "annos" {
		t.Fatalf("insert doc = %+v", doc)
	}
}

// TestExplainSurfaces exercises the non-Query entry points and the error
// paths of the EXPLAIN statement itself.
func TestExplainSurfaces(t *testing.T) {
	db := planFixture(t)

	// Default format is text; rows render one line each.
	rs, err := db.Query("EXPLAIN SELECT symbol FROM genes WHERE id = 1")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Columns) != 1 || rs.Columns[0] != "plan" {
		t.Fatalf("columns = %v", rs.Columns)
	}
	if first, _ := rs.Rows[0][0].(string); first != "SELECT" {
		t.Fatalf("text header = %q", first)
	}

	// FORMAT TEXT is accepted explicitly; FORMAT JSON starts a JSON object.
	rs, err = db.Query("EXPLAIN (FORMAT TEXT) SELECT symbol FROM genes")
	if err != nil {
		t.Fatal(err)
	}
	rs, err = db.Query("EXPLAIN (FORMAT JSON) SELECT symbol FROM genes")
	if err != nil {
		t.Fatal(err)
	}
	if first, _ := rs.Rows[0][0].(string); first != "{" {
		t.Fatalf("json first line = %q", first)
	}

	// QueryEach streams the same rendering.
	lines, err := eachRows(db.QueryEach, "EXPLAIN (FORMAT JSON) SELECT symbol FROM genes")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(lines) != fmt.Sprint(rs.Rows) {
		t.Fatalf("QueryEach streamed %q, Query returned %q", lines, rs.Rows)
	}

	// Exec must reject EXPLAIN without executing anything.
	if _, err := db.Exec("EXPLAIN SELECT symbol FROM genes"); err == nil ||
		!strings.Contains(err.Error(), "Exec cannot run EXPLAIN") {
		t.Fatalf("Exec(EXPLAIN) err = %v", err)
	}

	// EXPLAIN INSERT does not insert.
	before := mustCount(t, db, "annos")
	if _, err := db.Query("EXPLAIN INSERT INTO annos VALUES (1, 'GO:x')"); err != nil {
		t.Fatal(err)
	}
	if after := mustCount(t, db, "annos"); after != before {
		t.Fatalf("EXPLAIN INSERT changed row count %d -> %d", before, after)
	}

	// Error paths.
	for _, bad := range []string{
		"EXPLAIN EXPLAIN SELECT 1",
		"EXPLAIN CREATE TABLE t (x INTEGER)",
		"EXPLAIN (FORMAT yaml) SELECT symbol FROM genes",
	} {
		if _, err := db.Query(bad); err == nil {
			t.Fatalf("%q unexpectedly succeeded", bad)
		}
	}
	if _, err := db.Explain("SELECT 1 FROM genes", "yaml"); err == nil {
		t.Fatal("Explain with bad format succeeded")
	}
}

func mustCount(t *testing.T, db *DB, table string) int64 {
	t.Helper()
	rs, err := db.Query(fmt.Sprintf("SELECT COUNT(*) FROM %s", table))
	if err != nil {
		t.Fatal(err)
	}
	return rs.Rows[0][0].(int64)
}
