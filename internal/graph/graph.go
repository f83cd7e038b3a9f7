// Package graph maintains GenMapper's graph of sources and mappings and
// the path search used by the interactive interface (paper §5.1):
// "GenMapper internally manages a graph of all available sources and
// mappings. Using a shortest path algorithm, GenMapper is able to
// automatically determine a mapping path to traverse from the source to
// any specified target."
//
// It supports automatic shortest paths, constrained search through a
// required intermediate source, enumeration of alternative paths, and
// named saved paths customized for specific analyses.
package graph

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"genmapper/internal/gam"
)

// EdgeInfo describes one mapping usable for traversal.
type EdgeInfo struct {
	Rel  gam.SourceRelID
	From gam.SourceID
	To   gam.SourceID
	Type gam.RelType
}

// Graph is the source/mapping graph. Mappings are traversed in both
// directions. Structural mappings (IS_A, Contains) connect a source to
// itself and never contribute edges between different sources.
type Graph struct {
	mu    sync.RWMutex
	adj   map[gam.SourceID][]EdgeInfo
	saved map[string][]gam.SourceID

	// paths memoizes shortest paths between AddMapping calls. Readers
	// fill it under mu's read lock, so memoMu orders them; AddMapping
	// clears it under mu's write lock, so no path in it predates an edge.
	memoMu sync.Mutex
	paths  map[[2]gam.SourceID][]gam.SourceID
}

// New creates an empty graph.
func New() *Graph {
	return &Graph{
		adj:   make(map[gam.SourceID][]EdgeInfo),
		saved: make(map[string][]gam.SourceID),
		paths: make(map[[2]gam.SourceID][]gam.SourceID),
	}
}

// Build constructs the graph from all mappings in the repository.
func Build(repo *gam.Repo) (*Graph, error) {
	g := New()
	rels, err := repo.SourceRels()
	if err != nil {
		return nil, fmt.Errorf("graph: %w", err)
	}
	for _, r := range rels {
		g.AddMapping(EdgeInfo{Rel: r.ID, From: r.Source1, To: r.Source2, Type: r.Type})
	}
	return g, nil
}

// AddMapping registers a mapping as a bidirectional edge. Structural and
// self mappings are ignored for traversal.
func (g *Graph) AddMapping(e EdgeInfo) {
	if e.Type.IsStructural() || e.From == e.To {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	clear(g.paths)
	g.adj[e.From] = append(g.adj[e.From], e)
	rev := EdgeInfo{Rel: e.Rel, From: e.To, To: e.From, Type: e.Type}
	g.adj[e.To] = append(g.adj[e.To], rev)
}

// Neighbors returns the sources directly connected to s, ascending.
func (g *Graph) Neighbors(s gam.SourceID) []gam.SourceID {
	g.mu.RLock()
	defer g.mu.RUnlock()
	seen := make(map[gam.SourceID]bool)
	for _, e := range g.adj[s] {
		seen[e.To] = true
	}
	out := make([]gam.SourceID, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Sources returns all sources that participate in at least one edge.
func (g *Graph) Sources() []gam.SourceID {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]gam.SourceID, 0, len(g.adj))
	for id := range g.adj {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// EdgeCount returns the number of distinct mappings in the graph.
func (g *Graph) EdgeCount() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	rels := make(map[gam.SourceRelID]bool)
	for _, edges := range g.adj {
		for _, e := range edges {
			rels[e.Rel] = true
		}
	}
	return len(rels)
}

// ShortestPath returns a minimum-hop path of source IDs from src to dst
// (inclusive), or nil when the sources are not connected. Ties break
// deterministically toward lower source IDs. The search runs once per
// pair until the next AddMapping; the caller owns the returned copy.
func (g *Graph) ShortestPath(src, dst gam.SourceID) []gam.SourceID {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return slices.Clone(g.shortest(src, dst))
}

// shortest is the memoized bfs(src, dst, 0). The path it returns is the
// memo's: read it, never write to it. Caller holds at least a read lock.
func (g *Graph) shortest(src, dst gam.SourceID) []gam.SourceID {
	key := [2]gam.SourceID{src, dst}
	g.memoMu.Lock()
	p, ok := g.paths[key]
	g.memoMu.Unlock()
	if !ok {
		p = g.bfs(src, dst, 0)
		g.memoMu.Lock()
		g.paths[key] = p
		g.memoMu.Unlock()
	}
	return p
}

// ShortestPathVia returns the shortest path from src to dst that passes
// through the required intermediate source (§5.1: "The user can also
// search in the graph for specific paths, for example, with a particular
// intermediate source").
func (g *Graph) ShortestPathVia(src, via, dst gam.SourceID) []gam.SourceID {
	g.mu.RLock()
	defer g.mu.RUnlock()
	first := g.shortest(src, via)
	if first == nil {
		return nil
	}
	second := g.shortest(via, dst)
	if second == nil {
		return nil
	}
	return append(slices.Clone(first), second[1:]...)
}

// bfs runs breadth-first search; maxLen > 0 bounds the path length in
// edges. Caller holds at least a read lock.
func (g *Graph) bfs(src, dst gam.SourceID, maxLen int) []gam.SourceID {
	if src == dst {
		return []gam.SourceID{src}
	}
	if len(g.adj[src]) == 0 {
		return nil
	}
	prev := map[gam.SourceID]gam.SourceID{src: src}
	queue := []gam.SourceID{src}
	depth := map[gam.SourceID]int{src: 0}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if maxLen > 0 && depth[n] >= maxLen {
			continue
		}
		next := make([]gam.SourceID, 0, len(g.adj[n]))
		for _, e := range g.adj[n] {
			next = append(next, e.To)
		}
		sort.Slice(next, func(i, j int) bool { return next[i] < next[j] })
		for _, to := range next {
			if _, seen := prev[to]; seen {
				continue
			}
			prev[to] = n
			depth[to] = depth[n] + 1
			if to == dst {
				return reconstruct(prev, src, dst)
			}
			queue = append(queue, to)
		}
	}
	return nil
}

func reconstruct(prev map[gam.SourceID]gam.SourceID, src, dst gam.SourceID) []gam.SourceID {
	var rev []gam.SourceID
	for n := dst; ; n = prev[n] {
		rev = append(rev, n)
		if n == src {
			break
		}
	}
	out := make([]gam.SourceID, len(rev))
	for i, n := range rev {
		out[len(rev)-1-i] = n
	}
	return out
}

// AllPaths enumerates every simple path from src to dst with at most
// maxEdges edges, ordered by length then lexicographically. With a high
// degree of inter-connectivity many paths may exist (§5.1), so callers
// should bound maxEdges.
func (g *Graph) AllPaths(src, dst gam.SourceID, maxEdges int) [][]gam.SourceID {
	g.mu.RLock()
	defer g.mu.RUnlock()
	var out [][]gam.SourceID
	onPath := map[gam.SourceID]bool{src: true}
	path := []gam.SourceID{src}
	var dfs func(n gam.SourceID)
	dfs = func(n gam.SourceID) {
		if n == dst {
			cp := make([]gam.SourceID, len(path))
			copy(cp, path)
			out = append(out, cp)
			return
		}
		if len(path)-1 >= maxEdges {
			return
		}
		nbrs := make([]gam.SourceID, 0, len(g.adj[n]))
		seen := make(map[gam.SourceID]bool)
		for _, e := range g.adj[n] {
			if !seen[e.To] {
				seen[e.To] = true
				nbrs = append(nbrs, e.To)
			}
		}
		sort.Slice(nbrs, func(i, j int) bool { return nbrs[i] < nbrs[j] })
		for _, to := range nbrs {
			if onPath[to] {
				continue
			}
			onPath[to] = true
			path = append(path, to)
			dfs(to)
			path = path[:len(path)-1]
			delete(onPath, to)
		}
	}
	dfs(src)
	sort.Slice(out, func(i, j int) bool {
		if len(out[i]) != len(out[j]) {
			return len(out[i]) < len(out[j])
		}
		for k := range out[i] {
			if out[i][k] != out[j][k] {
				return out[i][k] < out[j][k]
			}
		}
		return false
	})
	return out
}

// SavePath stores a user-constructed path under a name (§5.1: "GenMapper
// also allows the user to manually build and save a path customized for
// specific analysis requirements"). The path must be connected in the
// graph.
func (g *Graph) SavePath(name string, path []gam.SourceID) error {
	if name == "" {
		return fmt.Errorf("graph: saved path needs a name")
	}
	if len(path) < 2 {
		return fmt.Errorf("graph: path %q must contain at least two sources", name)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	for i := 0; i+1 < len(path); i++ {
		connected := false
		for _, e := range g.adj[path[i]] {
			if e.To == path[i+1] {
				connected = true
				break
			}
		}
		if !connected {
			return fmt.Errorf("graph: path %q: no mapping between sources %d and %d", name, path[i], path[i+1])
		}
	}
	cp := make([]gam.SourceID, len(path))
	copy(cp, path)
	g.saved[name] = cp
	return nil
}

// SavedPath retrieves a stored path by name.
func (g *Graph) SavedPath(name string) ([]gam.SourceID, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	p, ok := g.saved[name]
	if !ok {
		return nil, false
	}
	cp := make([]gam.SourceID, len(p))
	copy(cp, p)
	return cp, true
}

// SavedPathNames lists stored path names in sorted order.
func (g *Graph) SavedPathNames() []string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]string, 0, len(g.saved))
	for n := range g.saved {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
