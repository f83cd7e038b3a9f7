// Mapping-path execution engine. The plain ops.MapPath loads and composes
// every mapping from the SQL layer on each call; the Executor turns the
// same operation into a cached pipeline so that repeated
// annotation queries (the paper's dominant workload, §5.1) hit memory:
//
//   - loaded edge mappings and composed path results live in a bounded
//     LRU, keyed by (from, to, relType) for edges and by path signature
//     for composed paths;
//   - cache entries carry the repository generation observed before the
//     load; any repository write bumps the generation, so stale entries
//     are detected on lookup and refetched — a materialized or deleted
//     mapping is never served stale;
//   - on a path-cache miss, the per-edge associations of all uncached
//     edges are fetched in one batched SQL round-trip
//     (Repo.AssociationsBatch) instead of one query per edge, and the
//     edge mappings are composed by ComposePath's left fold, so a path
//     derives the same evidence here as through ops.MapPath;
//   - cached mappings are shared, never copied on a hit: Resolver and
//     MapPathShared hand them out read-only, Compose joins through the
//     grouping a shared mapping keeps and GenerateView through its domain
//     index. Map and MapPath return private copies.
package ops

import (
	"errors"
	"fmt"
	"strconv"
	"sync"

	"genmapper/internal/cache"
	"genmapper/internal/gam"
)

// DefaultCacheCapacity bounds the executor LRU when no explicit capacity
// is configured.
const DefaultCacheCapacity = 256

// ExecutorConfig tunes an Executor.
type ExecutorConfig struct {
	// Capacity is the maximum number of cached mappings (edges and
	// composed paths together). <= 0 selects DefaultCacheCapacity.
	Capacity int
}

// CacheStats reports executor cache effectiveness.
type CacheStats struct {
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Entries int    `json:"entries"`
}

// Executor executes mapping-path queries against a repository with
// caching. It is safe for concurrent use.
type Executor struct {
	repo *gam.Repo

	mu     sync.Mutex
	lru    *cache.LRU[string, *cacheEntry]
	hits   uint64
	misses uint64
}

type cacheEntry struct {
	gen uint64 // repo generation observed before the load
	m   *Mapping
}

// NewExecutor creates an executor with default configuration.
func NewExecutor(repo *gam.Repo) *Executor {
	return NewExecutorConfig(repo, ExecutorConfig{})
}

// NewExecutorConfig creates an executor with explicit tuning.
func NewExecutorConfig(repo *gam.Repo, cfg ExecutorConfig) *Executor {
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefaultCacheCapacity
	}
	return &Executor{
		repo: repo,
		lru:  cache.New[string, *cacheEntry](cfg.Capacity),
	}
}

// Repo returns the repository the executor reads from.
func (e *Executor) Repo() *gam.Repo { return e.repo }

// Stats returns a snapshot of the cache counters.
func (e *Executor) Stats() CacheStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return CacheStats{Hits: e.hits, Misses: e.misses, Entries: e.lru.Len()}
}

// Reset drops every cached mapping and zeroes the counters (used by cold
// benchmarks and tests).
func (e *Executor) Reset() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.lru = cache.New[string, *cacheEntry](e.lru.Capacity())
	e.hits, e.misses = 0, 0
}

// get returns a cached mapping when present and still valid at the current
// repository generation. Stale entries are evicted on sight. The returned
// mapping is shared: the caller must not mutate it.
func (e *Executor) get(key string, gen uint64) (*Mapping, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	ent, ok := e.lru.Get(key)
	if !ok {
		e.misses++
		return nil, false
	}
	if ent.gen != gen {
		e.lru.Delete(key)
		e.misses++
		return nil, false
	}
	e.hits++
	return ent.m, true
}

// put caches m, loaded while the repository was at generation gen. m
// becomes shared: its associations are sorted here, once, and grouped,
// and from here on nobody mutates them. m is either fresh from a load or
// compose, so no other goroutine sees it change, or already shared (a
// one-edge path is its edge), so it is left as it is. A fresh edge may
// share its batch's slice with an edge cached earlier in the same load (a
// path that takes one mapping twice in the same direction); that slice is
// sorted already, so sortAssocs only reads it.
func (e *Executor) put(key string, gen uint64, m *Mapping) {
	if m.index == nil {
		sortAssocs(m.Assocs, true)
		m.index = &indexSlot{groups: groupAssocs(m.Assocs)}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.lru.Put(key, &cacheEntry{gen: gen, m: m})
}

// edgeKey and pathKey build a cache key in a stack buffer, so a lookup
// allocates only the key string.
func edgeKey(s, t gam.SourceID, typ gam.RelType) string {
	var buf [64]byte
	b := append(buf[:0], "e|"...)
	b = strconv.AppendInt(b, int64(s), 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(t), 10)
	b = append(b, '|')
	return string(append(b, typ...))
}

func pathKey(path []gam.SourceID) string {
	var buf [64]byte
	b := append(buf[:0], 'p')
	for _, s := range path {
		b = append(b, '|')
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
	key := edgeKey(s, t, rel.Type)
	if m, ok := e.get(key, gen); ok {
		return m, nil
	}
	m, err := e.loadEdgeMapping(s, t, rel, reversed)
	if err != nil {
		return nil, err
	}
	e.put(key, gen, m)
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
	if m, ok := e.get(pkey, gen); ok {
		return m, nil
	}
	maps, err := e.loadEdges(path, gen)
	if err != nil {
		return nil, err
	}
	// A one-edge path is its edge, shared like it, index included.
	composed := maps[0]
	for _, next := range maps[1:] {
		if composed, err = Compose(composed, next); err != nil {
			return nil, err
		}
	}
	e.put(pkey, gen, composed)
	return composed, nil
}

// loadEdges returns the per-edge mappings of a path, serving cached edges
// from the LRU and fetching all remaining edge associations in one batched
// SQL round-trip.
func (e *Executor) loadEdges(path []gam.SourceID, gen uint64) ([]*Mapping, error) {
	type pending struct {
		idx      int
		rel      *gam.SourceRel
		reversed bool
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
		if m, ok := e.get(edgeKey(s, t, rel.Type), gen); ok {
			maps[i] = m
			continue
		}
		misses = append(misses, pending{idx: i, rel: rel, reversed: reversed})
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
	for _, p := range misses {
		s, t := path[p.idx], path[p.idx+1]
		m := edgeMapping(s, t, p.rel, p.reversed, batch[p.rel.ID])
		e.put(edgeKey(s, t, p.rel.Type), gen, m)
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
