// Mapping-path execution engine. The plain ops.MapPath loads and composes
// every mapping from the SQL layer on each call; the Executor turns the
// same operation into a cached pipeline so that repeated
// annotation queries (the paper's dominant workload, §5.1) hit memory:
//
//   - loaded edges and composed paths are kept apart, as the paper keeps
//     stored mappings (the edges of the source graph) apart from the
//     compositions derived from them per query (§2, §4.2). Edges live in
//     their own table, keyed by the stored mapping they were loaded from
//     and the direction they are read in; composed paths live in a
//     bounded LRU keyed by path signature, so a stream of one-shot paths
//     evicts other paths, never the edges they are composed from;
//   - both carry the repository generation observed before the load; any
//     repository write bumps the generation. A stale path is detected on
//     lookup and refetched, and the edge table belongs to one generation
//     and is dropped whole when a lookup or a load sees a newer one — a
//     materialized, replaced or deleted mapping is never served stale;
//   - on a path-cache miss, the per-edge associations of all uncached
//     edges are fetched in one batched SQL round-trip
//     (Repo.AssociationsBatch) instead of one query per edge, and the
//     edge mappings are composed as ComposePath composes them: joined in
//     the order its planner picks from the edges' association and domain
//     counts, so a path derives the same evidence here as through
//     ops.MapPath. The intermediate results live in pooled scratch
//     memory; each join emits its result grouped by domain object, and
//     only the root join's is copied, at exact length and with its
//     grouping, into the cached mapping;
//   - cached mappings are shared, never copied on a hit: Resolver and
//     MapPathShared hand them out read-only, Compose joins through the
//     grouping a shared mapping keeps and GenerateView through its domain
//     index. Map and MapPath return private copies.
package ops

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"

	"genmapper/internal/cache"
	"genmapper/internal/gam"
)

// DefaultCacheCapacity bounds the executor's path LRU: the number of
// composed paths it keeps. Loaded edges are not counted against it; the
// edge table holds every edge used at the current repository generation.
//
// Neither bound is one of bytes. One composed path can hold millions of
// associations, so 256 paths bound no byte count either. The edge table
// is bounded by the repository itself: at most one copy of each stored
// mapping's associations in each direction used, 24 bytes an association,
// beside the roughly 390 bytes an association takes in sqldb.
const DefaultCacheCapacity = 256

// CacheStats reports executor cache effectiveness. Hits and misses count
// edge and path lookups together; Entries counts cached edges and paths.
type CacheStats struct {
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Entries int    `json:"entries"`
}

// Executor executes mapping-path queries against a repository with
// caching. It is safe for concurrent use.
type Executor struct {
	repo *gam.Repo

	mu      sync.Mutex
	edgeGen uint64               // the repository generation edges belongs to
	edges   map[edgeKey]*Mapping // loaded edges, at generation edgeGen
	paths   *cache.LRU[string, *cacheEntry]
	hits    uint64
	misses  uint64
}

// edgeKey names a loaded edge by what it was loaded from: the stored
// mapping, and whether it is read against its stored direction.
type edgeKey struct {
	rel      gam.SourceRelID
	reversed bool
}

type cacheEntry struct {
	gen uint64 // repo generation observed before the load
	m   *Mapping
}

// NewExecutor creates an executor whose path LRU holds
// DefaultCacheCapacity composed paths.
func NewExecutor(repo *gam.Repo) *Executor {
	return newExecutor(repo, DefaultCacheCapacity)
}

// newExecutor creates an executor whose path LRU holds capacity composed
// paths.
func newExecutor(repo *gam.Repo, capacity int) *Executor {
	return &Executor{repo: repo, edges: make(map[edgeKey]*Mapping), paths: cache.New[string, *cacheEntry](capacity)}
}

// Repo returns the repository the executor reads from.
func (e *Executor) Repo() *gam.Repo { return e.repo }

// Stats returns a snapshot of the cache counters.
func (e *Executor) Stats() CacheStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return CacheStats{Hits: e.hits, Misses: e.misses, Entries: len(e.edges) + e.paths.Len()}
}

// Reset drops every cached edge and path and zeroes the counters (used by
// cold benchmarks and tests).
func (e *Executor) Reset() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.edgeGen, e.edges = 0, make(map[edgeKey]*Mapping)
	e.paths = cache.New[string, *cacheEntry](e.paths.Capacity())
	e.hits, e.misses = 0, 0
}

// edgesAt reports whether the edge table belongs to generation gen,
// dropping the table first when gen is newer. A table at a newer
// generation than gen is left alone. e.mu must be held.
func (e *Executor) edgesAt(gen uint64) bool {
	if gen > e.edgeGen {
		clear(e.edges)
		e.edgeGen = gen
	}
	return gen == e.edgeGen
}

// getEdge returns the loaded edge k when the edge table belongs to the
// repository generation gen. The returned mapping is shared: the caller
// must not mutate it.
func (e *Executor) getEdge(k edgeKey, gen uint64) (*Mapping, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.edgesAt(gen) {
		if m, ok := e.edges[k]; ok {
			e.hits++
			return m, true
		}
	}
	e.misses++
	return nil, false
}

// putEdge makes m, the edge k loaded while the repository was at
// generation gen, shared, and installs it unless the edge table has
// moved on to a newer generation. From here on nobody mutates m: its
// associations are sorted here, once, and grouped, before any other
// goroutine sees it.
func (e *Executor) putEdge(k edgeKey, gen uint64, m *Mapping) {
	sortAssocs(m.Assocs, true)
	m.index = &indexSlot{groups: groupAssocs(m.Assocs)}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.edgesAt(gen) {
		e.edges[k] = m
	}
}

// getPath returns a cached composed path when present and still valid at
// the current repository generation. Stale entries are evicted on sight.
// The returned mapping is shared: the caller must not mutate it.
func (e *Executor) getPath(key string, gen uint64) (*Mapping, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	ent, ok := e.paths.Get(key)
	if !ok {
		e.misses++
		return nil, false
	}
	if ent.gen != gen {
		e.paths.Delete(key)
		e.misses++
		return nil, false
	}
	e.hits++
	return ent.m, true
}

// putPath caches m, composed while the repository was at generation gen.
// m is shared already: a composed path arrives sorted and grouped, exactly
// sized, from composePath, and a one-edge path is its edge.
func (e *Executor) putPath(key string, gen uint64, m *Mapping) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.paths.Put(key, &cacheEntry{gen: gen, m: m})
}

// pathKey builds a path's cache key, its source IDs joined by '|', in a
// stack buffer, so a lookup allocates only the key string.
func pathKey(path []gam.SourceID) string {
	var buf [64]byte
	b := buf[:0]
	for i, s := range path {
		if i > 0 {
			b = append(b, '|')
		}
		b = strconv.AppendInt(b, int64(s), 10)
	}
	return string(b)
}

// Map is the cached equivalent of ops.Map: it returns the mapping between
// s and t, serving repeated requests from the LRU. The result is a private
// copy the caller may mutate.
func (e *Executor) Map(s, t gam.SourceID) (*Mapping, error) {
	m, err := e.mapShared(s, t)
	if err != nil {
		return nil, err
	}
	return m.clone(), nil
}

// mapShared is Map without the copy: it returns the shared cached mapping.
func (e *Executor) mapShared(s, t gam.SourceID) (*Mapping, error) {
	gen := e.repo.Generation()
	rel, reversed, err := e.repo.FindMapping(s, t)
	if err != nil {
		return nil, err
	}
	if rel == nil {
		return nil, fmt.Errorf("ops: %w: %d and %d", ErrNoMapping, s, t)
	}
	key := edgeKey{rel: rel.ID, reversed: reversed}
	if m, ok := e.getEdge(key, gen); ok {
		return m, nil
	}
	m, err := e.loadEdgeMapping(s, t, rel, reversed)
	if err != nil {
		return nil, err
	}
	e.putEdge(key, gen, m)
	return m, nil
}

// loadEdgeMapping streams one edge's associations straight from the engine
// cursor into the working Mapping, flipping stored-reversed associations
// inline so that From is always s — a single buffering instead of
// query-materialize-then-copy.
func (e *Executor) loadEdgeMapping(s, t gam.SourceID, rel *gam.SourceRel, reversed bool) (*Mapping, error) {
	m := &Mapping{Rel: rel.ID, From: s, To: t, Type: rel.Type}
	err := e.repo.AssociationsEach(rel.ID, func(a gam.Assoc) error {
		if reversed {
			a.Object1, a.Object2 = a.Object2, a.Object1
		}
		m.Assocs = append(m.Assocs, a)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return m, nil
}

// edgeMapping builds the working Mapping for one traversal edge from an
// already-loaded association set (the batched path), flipping
// stored-reversed associations so that From is always s.
func edgeMapping(s, t gam.SourceID, rel *gam.SourceRel, reversed bool, assocs []gam.Assoc) *Mapping {
	m := &Mapping{Rel: rel.ID, From: s, To: t, Type: rel.Type}
	if !reversed {
		m.Assocs = assocs
		return m
	}
	m.Assocs = make([]gam.Assoc, len(assocs))
	for i, a := range assocs {
		m.Assocs[i] = gam.Assoc{Object1: a.Object2, Object2: a.Object1, Evidence: a.Evidence}
	}
	return m
}

// MapPath is the cached equivalent of ops.MapPath: it loads the
// mappings along the source path and composes them into a single mapping
// from path[0] to path[len-1]. The result is a private copy the caller may
// mutate.
func (e *Executor) MapPath(path []gam.SourceID) (*Mapping, error) {
	m, err := e.MapPathShared(path)
	if err != nil {
		return nil, err
	}
	return m.clone(), nil
}

// MapPathShared is MapPath without the copy: it returns the executor's
// cached mapping, shared with every other caller. The caller must not
// mutate it. Pass it to GenerateView as a TargetSpec.Mapping, which joins
// through the index the mapping keeps.
func (e *Executor) MapPathShared(path []gam.SourceID) (*Mapping, error) {
	if len(path) < 2 {
		return nil, fmt.Errorf("ops: mapping path needs at least two sources, got %d", len(path))
	}
	gen := e.repo.Generation()
	pkey := pathKey(path)
	if m, ok := e.getPath(pkey, gen); ok {
		return m, nil
	}
	maps, err := e.loadEdges(path, gen)
	if err != nil {
		return nil, err
	}
	// A one-edge path is its edge, shared like it, index included. A
	// longer one is composed as ComposePath composes it and comes out
	// grouped.
	composed := maps[0]
	if len(maps) > 1 {
		if composed, err = composePath(maps, true); err != nil {
			return nil, err
		}
	}
	e.putPath(pkey, gen, composed)
	return composed, nil
}

// loadEdges returns the per-edge mappings of a path, serving loaded edges
// from the edge table and fetching all remaining edge associations in one
// batched SQL round-trip. A path that takes one mapping twice in the same
// direction loads it once and uses it at both steps.
func (e *Executor) loadEdges(path []gam.SourceID, gen uint64) ([]*Mapping, error) {
	type pending struct {
		idx int
		rel *gam.SourceRel
		key edgeKey
	}
	maps := make([]*Mapping, len(path)-1)
	var misses []pending
	for i := 0; i+1 < len(path); i++ {
		s, t := path[i], path[i+1]
		rel, reversed, err := e.repo.FindMapping(s, t)
		if err != nil {
			return nil, err
		}
		if rel == nil {
			return nil, fmt.Errorf("ops: path step %d: %w: %d and %d", i, ErrNoMapping, s, t)
		}
		key := edgeKey{rel: rel.ID, reversed: reversed}
		if m, ok := e.getEdge(key, gen); ok {
			maps[i] = m
			continue
		}
		misses = append(misses, pending{idx: i, rel: rel, key: key})
	}
	if len(misses) == 0 {
		return maps, nil
	}
	ids := make([]gam.SourceRelID, len(misses))
	for i, p := range misses {
		ids[i] = p.rel.ID
	}
	batch, err := e.repo.AssociationsBatch(ids)
	if err != nil {
		return nil, err
	}
	for j, p := range misses {
		if d := slices.IndexFunc(misses[:j], func(q pending) bool { return q.key == p.key }); d >= 0 {
			maps[p.idx] = maps[misses[d].idx]
			continue
		}
		s, t := path[p.idx], path[p.idx+1]
		m := edgeMapping(s, t, p.rel, p.key.reversed, batch[p.rel.ID])
		e.putEdge(p.key, gen, m)
		maps[p.idx] = m
	}
	return maps, nil
}

// Resolver returns a mapping resolver backed by the executor cache: a
// direct mapping when one exists, otherwise a composition over the path
// found by pathFind (typically graph.ShortestPath). Only the absence of a
// direct mapping triggers the path fallback; real repository errors
// propagate unchanged. The mappings it returns are the shared cached ones:
// callers read them and must not mutate them.
func (e *Executor) Resolver(pathFind func(from, to gam.SourceID) []gam.SourceID) Resolver {
	return func(from, to gam.SourceID) (*Mapping, error) {
		m, err := e.mapShared(from, to)
		if err == nil {
			return m, nil
		}
		if !errors.Is(err, ErrNoMapping) {
			return nil, err
		}
		p := pathFind(from, to)
		if p == nil {
			return nil, fmt.Errorf("ops: no mapping or mapping path between sources %d and %d", from, to)
		}
		return e.MapPathShared(p)
	}
}
