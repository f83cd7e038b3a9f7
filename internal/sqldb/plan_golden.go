package sqldb

import "fmt"

// PlanGoldenCase is one representative statement whose EXPLAIN (FORMAT
// JSON) document is committed under testdata/plans/<Name>.json and
// asserted byte-stable by TestPlanGoldens and the `gmbenchdiff -plan`
// CI gate. SQL is the statement without the EXPLAIN prefix.
type PlanGoldenCase struct {
	Name string
	SQL  string
}

// PlanGoldenCases covers every planner decision the plan document can
// express: each access path, each join strategy and outer-join form,
// grouped aggregation, DISTINCT, order-satisfying scans with early-exit
// LIMIT, and the write statements.
// The list is exported (with NewPlanFixtureDB) so the golden test and the
// gmbenchdiff plan gate assert the exact same shapes.
var PlanGoldenCases = []PlanGoldenCase{
	{Name: "point_lookup", SQL: "SELECT symbol FROM genes WHERE id = 42"},
	{Name: "point_param", SQL: "SELECT symbol FROM genes WHERE id = ?"},
	{Name: "range_scan", SQL: "SELECT symbol FROM genes WHERE tss > 1000 AND tss <= 5000"},
	{Name: "in_list", SQL: "SELECT symbol FROM genes WHERE id IN (1, 2, 3)"},
	{Name: "full_scan_filter", SQL: "SELECT symbol FROM genes WHERE symbol LIKE 'g01%'"},
	{Name: "ordered_limit", SQL: "SELECT symbol, tss FROM genes ORDER BY tss LIMIT 10"},
	{Name: "index_join", SQL: "SELECT g.symbol, a.term FROM genes g JOIN annos a ON a.gene_id = g.id"},
	{Name: "hash_join", SQL: "SELECT g.symbol, a.term FROM genes g JOIN annos a ON a.term = g.symbol"},
	{Name: "nested_loop_join", SQL: "SELECT g.symbol, a.term FROM genes g JOIN annos a ON a.gene_id < g.id"},
	{Name: "left_join", SQL: "SELECT g.symbol, a.term FROM genes g LEFT JOIN annos a ON a.gene_id = g.id"},
	{Name: "right_join", SQL: "SELECT g.symbol, a.term FROM annos a RIGHT JOIN genes g ON a.gene_id = g.id"},
	{Name: "cross_join", SQL: "SELECT g.symbol, a.term FROM genes g CROSS JOIN annos a"},
	{Name: "group_aggregate", SQL: "SELECT chrom, COUNT(*) FROM genes GROUP BY chrom"},
	{Name: "distinct_order", SQL: "SELECT DISTINCT chrom FROM genes ORDER BY chrom"},
	{Name: "expression_scan", SQL: "SELECT n + grp FROM big WHERE val > 100.0"},
	{Name: "update_indexed", SQL: "UPDATE genes SET symbol = 'X' WHERE id = 7"},
	{Name: "delete_range", SQL: "DELETE FROM big WHERE n < 100"},
	{Name: "insert_rows", SQL: "INSERT INTO annos (gene_id, term) VALUES (1, 'GO:1'), (2, 'GO:2')"},
}

// NewPlanFixtureDB builds the deterministic database the golden cases
// compile against: `genes` (100 rows), `annos` (301) and `big` (5000), so
// cardinalities differ by table without touching machine-dependent knobs.
func NewPlanFixtureDB() (*DB, error) {
	db := NewDB()
	ddl := []string{
		"CREATE TABLE genes (id INTEGER PRIMARY KEY, symbol TEXT, chrom TEXT, tss INTEGER)",
		"CREATE INDEX idx_genes_tss ON genes (tss) USING BTREE",
		"CREATE TABLE annos (gene_id INTEGER, term TEXT)",
		"CREATE INDEX idx_annos_gene ON annos (gene_id) USING HASH",
		"CREATE TABLE big (n INTEGER, grp INTEGER, val REAL)",
		"CREATE INDEX idx_big_n ON big (n) USING BTREE",
	}
	for _, s := range ddl {
		if _, err := db.Exec(s); err != nil {
			return nil, fmt.Errorf("plan fixture DDL %q: %w", s, err)
		}
	}
	for i := 0; i < 100; i++ {
		_, err := db.Exec("INSERT INTO genes VALUES (?, ?, ?, ?)",
			i+1, fmt.Sprintf("g%03d", i+1), fmt.Sprintf("chr%d", i%5+1), (i*37)%10000)
		if err != nil {
			return nil, err
		}
	}
	for i := 0; i < 100; i++ {
		for k := 0; k < 3; k++ {
			_, err := db.Exec("INSERT INTO annos VALUES (?, ?)",
				i+1, fmt.Sprintf("GO:%04d", i*3+k))
			if err != nil {
				return nil, err
			}
		}
	}
	if _, err := db.Exec("INSERT INTO annos VALUES (9999, 'GO:dangling')"); err != nil {
		return nil, err
	}
	for i := 0; i < 5000; i++ {
		_, err := db.Exec("INSERT INTO big VALUES (?, ?, ?)",
			i, i%16, float64((i*7)%1000))
		if err != nil {
			return nil, err
		}
	}
	return db, nil
}
