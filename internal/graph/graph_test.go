package graph

import (
	"sync"
	"testing"

	"genmapper/internal/gam"
	"genmapper/internal/sqldb"
)

// chainGraph builds 1 - 2 - 3 - 4 plus a shortcut 1 - 5 - 4.
func chainGraph() *Graph {
	g := New()
	g.AddMapping(EdgeInfo{Rel: 1, From: 1, To: 2, Type: gam.RelFact})
	g.AddMapping(EdgeInfo{Rel: 2, From: 2, To: 3, Type: gam.RelFact})
	g.AddMapping(EdgeInfo{Rel: 3, From: 3, To: 4, Type: gam.RelFact})
	g.AddMapping(EdgeInfo{Rel: 4, From: 1, To: 5, Type: gam.RelSimilarity})
	g.AddMapping(EdgeInfo{Rel: 5, From: 5, To: 4, Type: gam.RelSimilarity})
	return g
}

func pathEq(got []gam.SourceID, want ...gam.SourceID) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

func TestShortestPath(t *testing.T) {
	g := chainGraph()
	if p := g.ShortestPath(1, 4); !pathEq(p, 1, 5, 4) {
		t.Errorf("ShortestPath(1,4) = %v, want [1 5 4]", p)
	}
	if p := g.ShortestPath(1, 3); !pathEq(p, 1, 2, 3) {
		t.Errorf("ShortestPath(1,3) = %v", p)
	}
	if p := g.ShortestPath(2, 2); !pathEq(p, 2) {
		t.Errorf("same-source path = %v", p)
	}
	if p := g.ShortestPath(1, 99); p != nil {
		t.Errorf("unreachable path = %v", p)
	}
}

func TestShortestPathBidirectional(t *testing.T) {
	g := chainGraph()
	// Mappings are traversable in reverse direction.
	if p := g.ShortestPath(4, 1); !pathEq(p, 4, 5, 1) {
		t.Errorf("reverse path = %v", p)
	}
}

func TestShortestPathVia(t *testing.T) {
	g := chainGraph()
	if p := g.ShortestPathVia(1, 2, 4); !pathEq(p, 1, 2, 3, 4) {
		t.Errorf("via path = %v, want [1 2 3 4]", p)
	}
	if p := g.ShortestPathVia(1, 99, 4); p != nil {
		t.Errorf("via unreachable = %v", p)
	}
}

func TestShortestPathViaDegenerate(t *testing.T) {
	g := chainGraph()
	// src == via degenerates to a plain shortest path.
	if p := g.ShortestPathVia(1, 1, 4); !pathEq(p, 1, 5, 4) {
		t.Errorf("src==via path = %v, want [1 5 4]", p)
	}
	// via == dst likewise.
	if p := g.ShortestPathVia(1, 4, 4); !pathEq(p, 1, 5, 4) {
		t.Errorf("via==dst path = %v, want [1 5 4]", p)
	}
	// src == via == dst is the trivial single-node path.
	if p := g.ShortestPathVia(3, 3, 3); !pathEq(p, 3) {
		t.Errorf("all-equal path = %v, want [3]", p)
	}
	// The via node may force the path back through the start.
	if p := g.ShortestPathVia(2, 1, 4); !pathEq(p, 2, 1, 5, 4) {
		t.Errorf("backtracking via path = %v, want [2 1 5 4]", p)
	}

	// Disconnected halves: 6 - 7 is its own component.
	g.AddMapping(EdgeInfo{Rel: 6, From: 6, To: 7, Type: gam.RelFact})
	// First half (src -> via) disconnected.
	if p := g.ShortestPathVia(6, 2, 4); p != nil {
		t.Errorf("disconnected first half = %v", p)
	}
	// Second half (via -> dst) disconnected.
	if p := g.ShortestPathVia(1, 2, 7); p != nil {
		t.Errorf("disconnected second half = %v", p)
	}
	// src and dst connected to each other but via isolated from both.
	if p := g.ShortestPathVia(1, 6, 4); p != nil {
		t.Errorf("isolated via = %v", p)
	}
}

func TestStructuralAndSelfEdgesExcluded(t *testing.T) {
	g := New()
	g.AddMapping(EdgeInfo{Rel: 1, From: 1, To: 1, Type: gam.RelIsA})
	g.AddMapping(EdgeInfo{Rel: 2, From: 1, To: 2, Type: gam.RelContains})
	g.AddMapping(EdgeInfo{Rel: 3, From: 1, To: 1, Type: gam.RelFact})
	if len(g.Sources()) != 0 {
		t.Errorf("structural/self edges created sources: %v", g.Sources())
	}
	if p := g.ShortestPath(1, 2); p != nil {
		t.Errorf("structural edge traversed: %v", p)
	}
}

func TestNeighborsAndCounts(t *testing.T) {
	g := chainGraph()
	nb := g.Neighbors(1)
	if len(nb) != 2 || nb[0] != 2 || nb[1] != 5 {
		t.Errorf("Neighbors(1) = %v", nb)
	}
	if g.EdgeCount() != 5 {
		t.Errorf("EdgeCount = %d", g.EdgeCount())
	}
	if len(g.Sources()) != 5 {
		t.Errorf("Sources = %v", g.Sources())
	}
}

func TestAllPaths(t *testing.T) {
	g := chainGraph()
	paths := g.AllPaths(1, 4, 3)
	if len(paths) != 2 {
		t.Fatalf("AllPaths = %v", paths)
	}
	if !pathEq(paths[0], 1, 5, 4) || !pathEq(paths[1], 1, 2, 3, 4) {
		t.Errorf("paths = %v", paths)
	}
	// Length bound respected.
	paths = g.AllPaths(1, 4, 2)
	if len(paths) != 1 {
		t.Errorf("bounded paths = %v", paths)
	}
}

func TestSavedPaths(t *testing.T) {
	g := chainGraph()
	if err := g.SavePath("viaChain", []gam.SourceID{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	p, ok := g.SavedPath("viaChain")
	if !ok || !pathEq(p, 1, 2, 3, 4) {
		t.Fatalf("SavedPath = %v, %v", p, ok)
	}
	if names := g.SavedPathNames(); len(names) != 1 || names[0] != "viaChain" {
		t.Errorf("names = %v", names)
	}
	// Unknown name.
	if _, ok := g.SavedPath("nope"); ok {
		t.Error("unknown saved path found")
	}
	// Disconnected path rejected.
	if err := g.SavePath("broken", []gam.SourceID{1, 3}); err == nil {
		t.Error("disconnected path accepted")
	}
	if err := g.SavePath("", []gam.SourceID{1, 2}); err == nil {
		t.Error("unnamed path accepted")
	}
	if err := g.SavePath("short", []gam.SourceID{1}); err == nil {
		t.Error("single-node path accepted")
	}
	// Returned slice is a copy.
	p[0] = 99
	p2, _ := g.SavedPath("viaChain")
	if p2[0] != 1 {
		t.Error("SavedPath leaked internal state")
	}
}

func TestBuildFromRepo(t *testing.T) {
	repo, err := gam.Open(sqldb.NewDB())
	if err != nil {
		t.Fatal(err)
	}
	a, _, _ := repo.EnsureSource(gam.Source{Name: "A"})
	b, _, _ := repo.EnsureSource(gam.Source{Name: "B"})
	c, _, _ := repo.EnsureSource(gam.Source{Name: "C"})
	repo.EnsureSourceRel(a.ID, b.ID, gam.RelFact)
	repo.EnsureSourceRel(b.ID, c.ID, gam.RelSimilarity)
	repo.EnsureSourceRel(c.ID, c.ID, gam.RelIsA) // structural, skipped

	g, err := Build(repo)
	if err != nil {
		t.Fatal(err)
	}
	if p := g.ShortestPath(a.ID, c.ID); !pathEq(p, a.ID, b.ID, c.ID) {
		t.Errorf("path = %v", p)
	}
	if g.EdgeCount() != 2 {
		t.Errorf("EdgeCount = %d, want 2 (structural excluded)", g.EdgeCount())
	}
}

func TestDeterministicTieBreak(t *testing.T) {
	// Two equal-length paths: BFS must prefer the lower source IDs.
	g := New()
	g.AddMapping(EdgeInfo{Rel: 1, From: 1, To: 2, Type: gam.RelFact})
	g.AddMapping(EdgeInfo{Rel: 2, From: 1, To: 3, Type: gam.RelFact})
	g.AddMapping(EdgeInfo{Rel: 3, From: 2, To: 4, Type: gam.RelFact})
	g.AddMapping(EdgeInfo{Rel: 4, From: 3, To: 4, Type: gam.RelFact})
	for i := 0; i < 10; i++ {
		if p := g.ShortestPath(1, 4); !pathEq(p, 1, 2, 4) {
			t.Fatalf("tie-break path = %v, want [1 2 4]", p)
		}
	}
}

// ShortestPath memoizes its searches: an AddMapping that opens a shorter
// route must be seen by the next lookup, and a caller writing to a path it
// was given must not change what the next caller gets.
func TestShortestPathMemoAfterAddMapping(t *testing.T) {
	g := chainGraph()
	if p := g.ShortestPath(1, 3); !pathEq(p, 1, 2, 3) {
		t.Fatalf("ShortestPath(1,3) = %v, want [1 2 3]", p)
	}
	if p := g.ShortestPathVia(2, 1, 5); !pathEq(p, 2, 1, 5) {
		t.Fatalf("ShortestPathVia(2,1,5) = %v, want [2 1 5]", p)
	}
	g.AddMapping(EdgeInfo{Rel: 6, From: 1, To: 3, Type: gam.RelFact})
	if p := g.ShortestPath(1, 3); !pathEq(p, 1, 3) {
		t.Fatalf("after a direct 1-3 mapping, ShortestPath(1,3) = %v, want [1 3]", p)
	}
	g.AddMapping(EdgeInfo{Rel: 7, From: 2, To: 5, Type: gam.RelFact})
	if p := g.ShortestPathVia(2, 1, 5); !pathEq(p, 2, 1, 5) {
		t.Fatalf("ShortestPathVia(2,1,5) = %v, want [2 1 5]", p)
	}
	if p := g.ShortestPath(2, 5); !pathEq(p, 2, 5) {
		t.Fatalf("after a direct 2-5 mapping, ShortestPath(2,5) = %v, want [2 5]", p)
	}

	p := g.ShortestPath(1, 4)
	if !pathEq(p, 1, 3, 4) {
		t.Fatalf("ShortestPath(1,4) = %v, want [1 3 4]", p)
	}
	p[1], p[2] = 99, 98
	_ = append(p[:1], 97) // a caller appending in place
	if p := g.ShortestPath(1, 4); !pathEq(p, 1, 3, 4) {
		t.Fatalf("a caller's write leaked into the memo: ShortestPath(1,4) = %v", p)
	}
	for _, dst := range []gam.SourceID{4, 3} { // via = dst: the path is its first leg
		v := g.ShortestPathVia(1, 3, dst)
		v[0] = 96
		if p := g.ShortestPath(1, 3); !pathEq(p, 1, 3) {
			t.Fatalf("a write to a via path leaked into the memo: ShortestPath(1,3) = %v", p)
		}
	}
}

// Lookups run beside AddMapping: under -race this checks the memo's
// locking, and every path returned must be one of the graph's shortest
// before or after the concurrent additions.
func TestShortestPathConcurrent(t *testing.T) {
	g := chainGraph()
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				p := g.ShortestPath(1, 4)
				if !pathEq(p, 1, 5, 4) && !pathEq(p, 1, 4) {
					t.Errorf("ShortestPath(1,4) = %v", p)
					return
				}
				p[0] = 0 // the caller's own copy
				if q := g.ShortestPathVia(2, 1, 4); len(q) < 3 || q[0] != 2 || q[1] != 1 || q[len(q)-1] != 4 {
					t.Errorf("ShortestPathVia(2,1,4) = %v", q)
					return
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		g.AddMapping(EdgeInfo{Rel: gam.SourceRelID(100 + i), From: gam.SourceID(10 + i), To: gam.SourceID(11 + i), Type: gam.RelFact})
		if i == 25 {
			g.AddMapping(EdgeInfo{Rel: 99, From: 1, To: 4, Type: gam.RelFact})
		}
	}
	wg.Wait()
	if p := g.ShortestPath(1, 4); !pathEq(p, 1, 4) {
		t.Fatalf("after the additions ShortestPath(1,4) = %v, want [1 4]", p)
	}
}
