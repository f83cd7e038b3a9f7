// Package genmapper is the public API of this GenMapper reproduction: a
// system for flexible integration of molecular-biological annotation data
// (Do & Rahm, EDBT 2004).
//
// GenMapper physically integrates heterogeneous annotation sources into a
// central database using the generic GAM data model (SOURCE, OBJECT,
// SOURCE_REL, OBJECT_REL), exploits existing cross-references between
// sources to combine annotation knowledge, and derives tailored annotation
// views through high-level operators (Map, Compose, GenerateView).
//
// Typical usage:
//
//	sys, _ := genmapper.New()
//	u := genmapper.NewUniverse(genmapper.GenConfig{Seed: 1, Scale: 0.01})
//	sys.ImportUniverse(u, genmapper.ImportOptions{DeriveSubsumed: true}, nil)
//	table, _ := sys.AnnotationView(genmapper.Query{
//		Source:  "LocusLink",
//		Targets: []genmapper.Target{{Source: "Hugo"}, {Source: "GO"}},
//		Mode:    "OR",
//	})
//	table.WriteText(os.Stdout)
package genmapper

import (
	"fmt"
	"io"
	"strings"

	"genmapper/internal/eav"
	"genmapper/internal/gam"
	"genmapper/internal/gen"
	"genmapper/internal/graph"
	"genmapper/internal/importer"
	"genmapper/internal/ops"
	"genmapper/internal/sqldb"
	"genmapper/internal/view"
)

// Re-exported configuration and result types, so applications only import
// this package.
type (
	// SourceInfo identifies a source being imported (name + audit info).
	SourceInfo = eav.SourceInfo
	// Dataset is the parsed EAV staging representation of one source.
	Dataset = eav.Dataset
	// ImportOptions tunes the Import step.
	ImportOptions = importer.Options
	// ImportStats reports one import run.
	ImportStats = importer.Stats
	// GenConfig selects a synthetic universe (seed + scale).
	GenConfig = gen.Config
	// Universe generates synthetic source files and datasets.
	Universe = gen.Universe
	// Table is a rendered annotation view ready for export.
	Table = view.Table
	// Stats summarizes database content (sources, objects, mappings,
	// associations).
	Stats = gam.Stats
	// Source describes one integrated data source.
	Source = gam.Source
	// Object is one source object (accession, text, number).
	Object = gam.Object
	// Mapping is a set of object associations between two sources.
	Mapping = ops.Mapping
	// CacheStats reports the executor's mapping-cache effectiveness.
	CacheStats = ops.CacheStats
)

// NewUniverse scales the synthetic source catalog (1.0 reproduces the
// paper's ~2M objects / 60+ sources / ~5M associations deployment).
func NewUniverse(cfg GenConfig) *Universe { return gen.NewUniverse(cfg) }

// System is a GenMapper instance: the central database with the GAM
// schema, the source graph used for automatic mapping-path discovery, and
// the mapping-path execution engine that caches loaded and composed
// mappings across queries.
type System struct {
	db    *sqldb.DB
	repo  *gam.Repo
	graph *graph.Graph
	exec  *ops.Executor
}

// New creates an empty in-memory GenMapper system.
func New() (*System, error) {
	return Open(sqldb.NewDB())
}

// Open attaches a system to an existing embedded database (creating the
// GAM schema when missing).
func Open(db *sqldb.DB) (*System, error) {
	repo, err := gam.Open(db)
	if err != nil {
		return nil, err
	}
	g, err := graph.Build(repo)
	if err != nil {
		return nil, err
	}
	return &System{db: db, repo: repo, graph: g, exec: ops.NewExecutor(repo)}, nil
}

// DurableOptions configures OpenDurable (see sqldb.DurableOptions: fsync
// policy, segment size, checkpoint cadence).
type DurableOptions = sqldb.DurableOptions

// OpenDurable opens a crash-safe GenMapper system rooted at a data
// directory: every committed write is appended to a write-ahead log
// before it is acknowledged, a background checkpointer bounds the log,
// and opening recovers the newest checkpoint plus the log tail. Call
// Close on shutdown to release the log.
func OpenDurable(dir string, opts DurableOptions) (*System, error) {
	db, err := sqldb.OpenDurable(dir, opts)
	if err != nil {
		return nil, err
	}
	sys, err := Open(db)
	if err != nil {
		db.Close()
		return nil, err
	}
	return sys, nil
}

// Close releases the durability subsystem (checkpointer + log). It is a
// no-op for in-memory systems.
func (s *System) Close() error { return s.db.Close() }

// Checkpoint forces a durable snapshot now and prunes the covered log
// (durable systems only).
func (s *System) Checkpoint() error { return s.db.Checkpoint() }

// LoadSnapshot opens a system from a database snapshot file written by
// SaveSnapshot.
func LoadSnapshot(path string) (*System, error) {
	db, err := sqldb.Load(path)
	if err != nil {
		return nil, err
	}
	return Open(db)
}

// SaveSnapshot persists the entire database to a file.
func (s *System) SaveSnapshot(path string) error { return s.db.Save(path) }

// Restore replaces the system's database contents with a snapshot file,
// in place, and invalidates every derived layer: cached statement plans
// and open cursors (engine), the GAM lookup caches (repo), the mapping
// cache (executor), and the source graph. On a durable system the WAL is
// reset too — the restored state becomes a new checkpoint and the
// pre-restore log tail can never be replayed over it.
func (s *System) Restore(path string) error {
	if err := s.db.Restore(path); err != nil {
		return err
	}
	if err := s.repo.Reload(); err != nil {
		return err
	}
	s.exec.Reset()
	return s.RefreshGraph()
}

// SQLWALStats returns the durability counters of the embedded engine
// (zero-valued with Enabled=false for in-memory systems).
func (s *System) SQLWALStats() sqldb.WALStats { return s.db.WALStats() }

// DB exposes the embedded database (for direct SQL). Write the GAM tables
// through the System, not through this handle: rows written around it are
// missing from Stats, Sources and the lookup caches until Restore.
func (s *System) DB() *sqldb.DB { return s.db }

// Repo exposes the GAM repository (for operator-level access).
func (s *System) Repo() *gam.Repo { return s.repo }

// Graph exposes the source/mapping graph.
func (s *System) Graph() *graph.Graph { return s.graph }

// Executor exposes the mapping-path execution engine.
func (s *System) Executor() *ops.Executor { return s.exec }

// CacheStats returns the executor's cache hit/miss counters.
func (s *System) CacheStats() CacheStats { return s.exec.Stats() }

// SQLStmtCacheStats returns the embedded engine's statement-cache counters
// (parse-once effectiveness across every SQL path).
func (s *System) SQLStmtCacheStats() sqldb.StmtCacheStats { return s.db.StmtCacheStats() }

// SQLPlanStats returns the embedded engine's planner counters: how often
// each access path and join strategy executed.
func (s *System) SQLPlanStats() sqldb.PlanStats { return s.db.PlanStats() }

// SQLExplain compiles a SQL statement against the embedded engine and
// returns its EXPLAIN document ("json" or "text"; empty means json)
// without executing the statement. See docs/plan-json.md for the format.
func (s *System) SQLExplain(sql, format string) (string, error) {
	return s.db.Explain(sql, format)
}

// SQLParallelStats returns zero counters: the engine has no partition
// fan-out left to count. bench/e2e still reads it; it is deleted when
// bench/ is next unfrozen (ROADMAP item 2).
//
// Deprecated: always zero; drop the call.
func (s *System) SQLParallelStats() sqldb.ParallelStats { return sqldb.ParallelStats{} }

// SQLBatchStats returns zero counters: the engine has no vectorized leg
// left to count. bench/e2e still reads it; it is deleted when bench/ is
// next unfrozen (ROADMAP item 2).
//
// Deprecated: always zero; drop the call.
func (s *System) SQLBatchStats() sqldb.BatchStats { return sqldb.BatchStats{} }

// SetMVCC does nothing: the embedded engine always runs under snapshot
// isolation, so readers never block on writers and never see an open
// import. bench/e2e still calls it; it is deleted when bench/ is next
// unfrozen (ROADMAP item 2).
//
// Deprecated: snapshot isolation is always on; drop the call.
func (s *System) SetMVCC(bool) {}

// SQLMVCCStats returns the MVCC counters: current epoch, active snapshots,
// commit/abort/conflict counts and vacuum progress.
func (s *System) SQLMVCCStats() sqldb.MVCCStats { return s.db.MVCCStats() }

// Stats returns the deployment counters (§5-style).
func (s *System) Stats() (*Stats, error) { return s.repo.Stats() }

// Sources lists all integrated sources ordered by name.
func (s *System) Sources() []*Source { return s.repo.Sources() }

// ---------------------------------------------------------------------------
// Import

// ImportDataset runs the generic Import step for one parsed dataset and
// refreshes the source graph.
func (s *System) ImportDataset(d *Dataset, opts ImportOptions) (*ImportStats, error) {
	st, err := importer.Import(s.repo, d, opts)
	if err != nil {
		return nil, err
	}
	if err := s.RefreshGraph(); err != nil {
		return nil, err
	}
	return st, nil
}

// ImportFile parses a native source file with the named format parser
// (locuslink, obo, enzyme, tabular) and imports it.
func (s *System) ImportFile(format, path string, info SourceInfo, opts ImportOptions) (*ImportStats, error) {
	st, err := importer.ImportFile(s.repo, format, path, info, opts)
	if err != nil {
		return nil, err
	}
	if err := s.RefreshGraph(); err != nil {
		return nil, err
	}
	return st, nil
}

// ImportUniverse imports every source of a synthetic universe. progress,
// when non-nil, is called after each source.
func (s *System) ImportUniverse(u *Universe, opts ImportOptions, progress func(*ImportStats)) ([]*ImportStats, error) {
	var out []*ImportStats
	for _, name := range u.Names() {
		d, err := u.Dataset(name)
		if err != nil {
			return out, err
		}
		st, err := importer.Import(s.repo, d, opts)
		if err != nil {
			return out, fmt.Errorf("genmapper: import %s: %w", name, err)
		}
		out = append(out, st)
		if progress != nil {
			progress(st)
		}
	}
	if err := s.RefreshGraph(); err != nil {
		return out, err
	}
	return out, nil
}

// RefreshGraph rebuilds the source graph from the current mappings.
func (s *System) RefreshGraph() error {
	g, err := graph.Build(s.repo)
	if err != nil {
		return err
	}
	// Preserve saved paths across refreshes.
	for _, name := range s.graph.SavedPathNames() {
		if p, ok := s.graph.SavedPath(name); ok {
			_ = g.SavePath(name, p)
		}
	}
	s.graph = g
	return nil
}

// DeriveSubsumed (re)materializes the Subsumed mapping of a network source.
func (s *System) DeriveSubsumed(source string) (int, error) {
	src := s.repo.SourceByName(source)
	if src == nil {
		return 0, fmt.Errorf("genmapper: unknown source %q", source)
	}
	return importer.DeriveSubsumed(s.repo, src.ID)
}

// ---------------------------------------------------------------------------
// Paths and composition

func (s *System) sourceIDs(names []string) ([]gam.SourceID, error) {
	out := make([]gam.SourceID, len(names))
	for i, n := range names {
		src := s.repo.SourceByName(n)
		if src == nil {
			return nil, fmt.Errorf("genmapper: unknown source %q", n)
		}
		out[i] = src.ID
	}
	return out, nil
}

func (s *System) sourceNames(ids []gam.SourceID) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		if src := s.repo.SourceByID(id); src != nil {
			out[i] = src.Name
		}
	}
	return out
}

// FindPath returns the shortest mapping path between two sources as source
// names, or an error when they are not connected (§5.1's automatic path
// discovery).
func (s *System) FindPath(from, to string) ([]string, error) {
	ids, err := s.sourceIDs([]string{from, to})
	if err != nil {
		return nil, err
	}
	p := s.graph.ShortestPath(ids[0], ids[1])
	if p == nil {
		return nil, fmt.Errorf("genmapper: no mapping path from %s to %s", from, to)
	}
	return s.sourceNames(p), nil
}

// FindPathVia returns the shortest path passing through an intermediate
// source.
func (s *System) FindPathVia(from, via, to string) ([]string, error) {
	ids, err := s.sourceIDs([]string{from, via, to})
	if err != nil {
		return nil, err
	}
	p := s.graph.ShortestPathVia(ids[0], ids[1], ids[2])
	if p == nil {
		return nil, fmt.Errorf("genmapper: no mapping path from %s via %s to %s", from, via, to)
	}
	return s.sourceNames(p), nil
}

// SavePath stores a user-constructed mapping path under a name.
func (s *System) SavePath(name string, sources []string) error {
	ids, err := s.sourceIDs(sources)
	if err != nil {
		return err
	}
	return s.graph.SavePath(name, ids)
}

// ComposePath loads and composes the mappings along a path of source
// names, deriving a new mapping from the first to the last source. It runs
// on the executor, so repeated compositions hit the mapping cache.
func (s *System) ComposePath(sources []string) (*Mapping, error) {
	ids, err := s.sourceIDs(sources)
	if err != nil {
		return nil, err
	}
	return s.exec.MapPath(ids)
}

// Materialize stores a derived mapping in the central database so that
// later queries find it directly.
func (s *System) Materialize(m *Mapping) error {
	if _, err := ops.Materialize(s.repo, m); err != nil {
		return err
	}
	return s.RefreshGraph()
}

// Resolver returns the mapping resolver GenerateView uses: an existing
// mapping when available, otherwise a Compose over the shortest mapping
// path in the source graph. Both lookups run on the executor cache.
func (s *System) Resolver() ops.Resolver {
	return s.exec.Resolver(func(from, to gam.SourceID) []gam.SourceID {
		return s.graph.ShortestPath(from, to)
	})
}

// ---------------------------------------------------------------------------
// Annotation views

// Target specifies one annotation target of a query.
type Target struct {
	// Source is the target source name.
	Source string
	// Accessions restricts the target objects of interest (empty = all).
	Accessions []string
	// Negate selects source objects NOT associated with the given target
	// objects.
	Negate bool
	// Via forces an explicit mapping path (source names from the query
	// source to this target), overriding automatic path discovery.
	Via []string
	// MinEvidence drops computed associations whose evidence falls below
	// the threshold; curated facts (no evidence value) always pass.
	MinEvidence float64
}

// ParseTargets parses the CLI target-list syntax shared by gmquery and
// gmexport: comma-separated target specs, a "!" prefix negates, and
// "name=acc1|acc2" restricts the target objects of interest. Empty specs
// are skipped.
func ParseTargets(list string) []Target {
	var out []Target
	for _, spec := range strings.Split(list, ",") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		t := Target{}
		if strings.HasPrefix(spec, "!") {
			t.Negate = true
			spec = strings.TrimSpace(spec[1:])
		}
		name, restrict, has := strings.Cut(spec, "=")
		t.Source = strings.TrimSpace(name)
		if has {
			for _, a := range strings.Split(restrict, "|") {
				if a = strings.TrimSpace(a); a != "" {
					t.Accessions = append(t.Accessions, a)
				}
			}
		}
		out = append(out, t)
	}
	return out
}

// Query describes an annotation view request (the programmatic form of
// Figure 6a's query specification).
type Query struct {
	// Source is the source whose objects are annotated.
	Source string
	// Accessions restricts the source objects (empty = whole source).
	Accessions []string
	// Targets are the annotation columns.
	Targets []Target
	// Mode combines the target mappings: "AND" or "OR" (default OR).
	Mode string
	// WithText renders cells as "accession (text)".
	WithText bool
	// Offset skips the first view rows before rendering.
	Offset int
	// Limit caps the number of rendered rows (0 = all).
	Limit int
}

// generateView runs GenerateView for the query and applies its
// Limit/Offset window, returning the object-ID view both the materializing
// and streaming render paths consume.
func (s *System) generateView(q Query) (*ops.View, error) {
	src := s.repo.SourceByName(q.Source)
	if src == nil {
		return nil, fmt.Errorf("genmapper: unknown source %q", q.Source)
	}
	sSet, err := s.objectSet(src.ID, q.Accessions)
	if err != nil {
		return nil, err
	}
	var mode ops.Combine
	switch strings.ToUpper(strings.TrimSpace(q.Mode)) {
	case "", "OR":
		mode = ops.CombineOR
	case "AND":
		mode = ops.CombineAND
	default:
		return nil, fmt.Errorf("genmapper: unknown combination mode %q (AND or OR)", q.Mode)
	}
	specs := make([]ops.TargetSpec, len(q.Targets))
	for i, t := range q.Targets {
		tgt := s.repo.SourceByName(t.Source)
		if tgt == nil {
			return nil, fmt.Errorf("genmapper: unknown target source %q", t.Source)
		}
		tSet, err := s.objectSet(tgt.ID, t.Accessions)
		if err != nil {
			return nil, err
		}
		spec := ops.TargetSpec{Source: tgt.ID, Restrict: tSet, Negate: t.Negate, MinEvidence: t.MinEvidence}
		if len(t.Via) > 0 {
			ids, err := s.sourceIDs(t.Via)
			if err != nil {
				return nil, err
			}
			if len(ids) == 0 || ids[0] != src.ID || ids[len(ids)-1] != tgt.ID {
				return nil, fmt.Errorf("genmapper: target %q: via path must lead from %s to %s", t.Source, q.Source, t.Source)
			}
			// Explicit paths run on the executor so repeated via-queries
			// hit the mapping cache like automatic ones.
			m, err := s.exec.MapPath(ids)
			if err != nil {
				return nil, fmt.Errorf("genmapper: target %q: %w", t.Source, err)
			}
			spec.Mapping = m
		}
		specs[i] = spec
	}
	v, err := ops.GenerateView(s.repo, src.ID, sSet, specs, mode, s.Resolver())
	if err != nil {
		return nil, err
	}
	applyRowWindow(v, q.Offset, q.Limit)
	return v, nil
}

// applyRowWindow slices a view down to the requested offset/limit window.
func applyRowWindow(v *ops.View, offset, limit int) {
	if offset > 0 {
		if offset >= len(v.Rows) {
			v.Rows = nil
		} else {
			v.Rows = v.Rows[offset:]
		}
	}
	if limit > 0 && limit < len(v.Rows) {
		v.Rows = v.Rows[:limit]
	}
}

// AnnotationView runs GenerateView for the query and renders the result
// (Figures 3 and 6b).
func (s *System) AnnotationView(q Query) (*Table, error) {
	v, err := s.generateView(q)
	if err != nil {
		return nil, err
	}
	return view.Render(s.repo, v, view.Options{WithText: q.WithText})
}

// StreamAnnotationView runs GenerateView for the query and streams the
// rendered rows to w in the named format (text, tsv, csv, json) without
// materializing the table. Query validation and view generation complete
// before the first byte is written, so an error return before any output
// can still be reported cleanly; flush, when non-nil, is invoked after
// every flushEvery rendered rows and once at the end.
func (s *System) StreamAnnotationView(q Query, w io.Writer, format string, flushEvery int, flush func() error) error {
	v, err := s.generateView(q)
	if err != nil {
		return err
	}
	return view.Stream(s.repo, v, view.Options{WithText: q.WithText}, w, format, flushEvery, flush)
}

// objectSet resolves accessions to an ObjectSet (nil when accessions is
// empty, meaning "all objects"). Unknown accessions are reported.
func (s *System) objectSet(src gam.SourceID, accessions []string) (ops.ObjectSet, error) {
	if len(accessions) == 0 {
		return nil, nil
	}
	m, err := s.repo.LookupObjects(src, accessions)
	if err != nil {
		return nil, err
	}
	set := make(ops.ObjectSet, len(accessions))
	var missing []string
	for _, acc := range accessions {
		id := m[acc]
		if id == 0 {
			missing = append(missing, acc)
			continue
		}
		set[id] = true
	}
	if len(set) == 0 {
		return nil, fmt.Errorf("genmapper: none of the %d accessions exist in the source (e.g. %s)",
			len(accessions), strings.Join(missing[:min(3, len(missing))], ", "))
	}
	return set, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// ObjectInfo retrieves one object by source name and accession (Figure 6c).
func (s *System) ObjectInfo(source, accession string) (*Object, error) {
	src := s.repo.SourceByName(source)
	if src == nil {
		return nil, fmt.Errorf("genmapper: unknown source %q", source)
	}
	id, err := s.repo.LookupObject(src.ID, accession)
	if err != nil {
		return nil, err
	}
	if id == 0 {
		return nil, fmt.Errorf("genmapper: no object %q in source %s", accession, source)
	}
	return s.repo.Object(id)
}
