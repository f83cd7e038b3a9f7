package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/url"
	"strings"

	"genmapper"
	"genmapper/internal/gam"
	"genmapper/internal/gen"
	"genmapper/internal/ops"
)

// The four workloads. BENCHMARK.json and every later performance claim use
// these names.
const (
	wlViewWarm      = "view.warm"
	wlExportCold    = "export.cold"
	wlViewUpdate    = "view.update"
	wlImportDurable = "import.durable"
)

var workloadNames = []string{wlViewWarm, wlExportCold, wlViewUpdate, wlImportDurable}

// Sizing constants of the request workloads. They are fixed here rather
// than exposed as flags: a later PR compares against numbers taken with
// exactly these.
const (
	warmPoolShapes   = 48 // distinct /query shapes
	warmPoolSources  = 8  // shapes share few sources so routes repeat
	warmKeyBudget    = ops.DefaultCacheCapacity / 2
	warmRowFactorMax = 24.0 // bound on expected view rows per source object
	warmBlocks       = 64   // request list = warmBlocks permutations of the pool

	coldRequests     = 768  // distinct /export requests
	coldPathPoolMin  = 1024 // required distinct via paths (4x the executor cache)
	coldPathEstMin   = 0.2  // expected matches per source object along a path
	coldPathEstMax   = 6.0
	coldRowFactorMax = 12.0
	coldShuffleBlock = 8 // the seed shuffles the order only inside blocks this long
)

// request is one front-door call. Query is the same request in programmatic
// form, used by the reference and by the trace levels below the server.
type request struct {
	Method string
	URL    string // path and query string
	Body   string // form body of a POST
	Query  genmapper.Query
	Export bool
}

// plan is a workload's request list: the distinct requests and the order in
// which clients issue them (indices into Requests, wrapping around).
type plan struct {
	Requests []request
	Order    []int
	// Notes are sizing facts for the output header.
	Notes []string
	// Routes are the source paths the requests resolve through, one per
	// (request, target); view.update picks its rotating mappings from them.
	Routes [][][]gam.SourceID
}

// encode renders the request list byte for byte; the determinism tests
// compare it across seeds.
func (p *plan) encode() []byte {
	var buf bytes.Buffer
	for _, i := range p.Order {
		r := p.Requests[i]
		fmt.Fprintf(&buf, "%s %s\n%s\n", r.Method, r.URL, r.Body)
	}
	return buf.Bytes()
}

// world is what request generation may look at: the universe's scaled
// catalog and the imported system's source graph.
type world struct {
	uni   *gen.Universe
	scale float64
	sys   *genmapper.System
	specs []gen.SourceSpec // sorted by name, counts already scaled
}

func newWorld(uni *gen.Universe, scale float64, sys *genmapper.System) *world {
	return &world{uni: uni, scale: scale, sys: sys, specs: uni.SortedSpecs()}
}

func (w *world) id(name string) gam.SourceID {
	if s := w.sys.Repo().SourceByName(name); s != nil {
		return s.ID
	}
	return 0
}

func (w *world) name(id gam.SourceID) string {
	if s := w.sys.Repo().SourceByID(id); s != nil {
		return s.Name
	}
	return ""
}

func (w *world) names(path []gam.SourceID) []string {
	out := make([]string, len(path))
	for i, id := range path {
		out[i] = w.name(id)
	}
	return out
}

func xref(spec *gen.SourceSpec, target string) *gen.XRef {
	if spec == nil {
		return nil
	}
	for i := range spec.XRefs {
		if strings.EqualFold(spec.XRefs[i].Target, target) {
			return &spec.XRefs[i]
		}
	}
	return nil
}

// edgeFan is the catalog's expected number of b objects associated with one
// a object along the mapping Repo.FindMapping(a, b) picks (facts before
// similarities, the stored direction a->b before b->a). It reads declared
// fan-outs only, so the cost model — and with it the structure of every
// request list — does not depend on the seed.
func (w *world) edgeFan(a, b string) float64 {
	fwd, rev := xref(w.uni.Spec(a), b), xref(w.uni.Spec(b), a)
	revFan := func() float64 {
		return rev.AvgFanOut * float64(w.uni.Count(b)) / float64(w.uni.Count(a))
	}
	switch {
	case fwd != nil && !fwd.Evidence:
		return fwd.AvgFanOut
	case rev != nil && !rev.Evidence:
		return revFan()
	case fwd != nil:
		return fwd.AvgFanOut
	case rev != nil:
		return revFan()
	}
	return 0
}

func (w *world) pathFan(path []gam.SourceID) float64 {
	est := 1.0
	for i := 0; i+1 < len(path); i++ {
		est *= w.edgeFan(w.name(path[i]), w.name(path[i+1]))
	}
	return est
}

// route is the path the system resolves an automatically routed target
// through: the direct mapping when one exists, else the graph's shortest
// path (System.Resolver).
func (w *world) route(from, to gam.SourceID) []gam.SourceID {
	rel, _, err := w.sys.Repo().FindMapping(from, to)
	if err == nil && rel != nil {
		return []gam.SourceID{from, to}
	}
	return w.sys.Graph().ShortestPath(from, to)
}

// cacheKeys lists the executor cache entries a route occupies: one per
// edge, plus one for the composed path when it has more than one edge.
func cacheKeys(path []gam.SourceID) []string {
	var keys []string
	for i := 0; i+1 < len(path); i++ {
		keys = append(keys, fmt.Sprintf("e|%d|%d", path[i], path[i+1]))
	}
	if len(path) > 2 {
		keys = append(keys, fmt.Sprint("p", path))
	}
	return keys
}

// structRand seeds the structure of a workload (which sources, targets,
// modes, paths) from its name alone. The run's seed chooses the universe's
// content, the sampled accessions and the request order, so runs with
// different seeds execute the same mix of shapes on different data: the
// spread between seeds is the data's and the machine's, not the mix's.
func structRand(workload string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(workload))
	return rand.New(rand.NewSource(int64(h.Sum64() & 0x7fffffffffffffff)))
}

func targetSpec(t genmapper.Target) string {
	s := t.Source
	if t.Negate {
		s = "!" + s
	}
	if len(t.Via) > 0 {
		s += " via " + strings.Join(t.Via, ">")
	}
	return s
}

func queryRequest(q genmapper.Query) request {
	specs := make([]string, len(q.Targets))
	for i, t := range q.Targets {
		specs[i] = targetSpec(t)
	}
	form := url.Values{
		"source":     {q.Source},
		"mode":       {q.Mode},
		"accessions": {strings.Join(q.Accessions, "\n")},
		"targets":    {strings.Join(specs, "\n")},
	}
	return request{Method: "POST", URL: "/query", Body: form.Encode(), Query: q}
}

func exportRequest(q genmapper.Query) request {
	v := url.Values{"source": {q.Source}, "mode": {q.Mode}, "format": {"tsv"}}
	for _, t := range q.Targets {
		v.Add("target", targetSpec(t))
	}
	return request{Method: "GET", URL: "/export?" + v.Encode(), Query: q, Export: true}
}

// planViewWarm builds the Figure 5 sweep: a fixed pool of /query shapes
// (50-500 sampled accessions, 1-8 automatically routed targets, AND/OR
// 50/50, last target negated with p = 0.25) whose routes fit in half the
// executor cache, issued in seeded permutations of the whole pool so every
// shape runs equally often.
func planViewWarm(w *world, seed int64) (*plan, error) {
	sr := structRand(wlViewWarm)
	// A candidate source's routable targets: direct mappings, composed
	// shortest paths, and the direct ones the SRS ground truth can check.
	type cand struct {
		name                  string
		direct, composed, srs []gam.SourceID
	}
	var cands []cand
	for _, spec := range w.specs {
		from := w.id(spec.Name)
		if spec.BaseCount < 50 || from == 0 {
			continue
		}
		c := cand{name: spec.Name}
		for _, t := range w.specs {
			to := w.id(t.Name)
			if to == 0 || to == from {
				continue
			}
			p := w.route(from, to)
			if est := w.pathFan(p); len(p) < 2 || len(p) > 4 || est < 0.05 || est > 8 {
				continue
			}
			if len(p) > 2 {
				c.composed = append(c.composed, to)
				continue
			}
			c.direct = append(c.direct, to)
			if srsEligible(w, spec.Name, genmapper.Target{Source: t.Name}) {
				c.srs = append(c.srs, to)
			}
		}
		if len(c.direct) >= 4 && len(c.srs) > 0 && len(c.direct)+len(c.composed) >= 8 {
			cands = append(cands, c)
		}
	}
	if len(cands) == 0 {
		return nil, fmt.Errorf("view.warm: no source with 50+ objects and 8+ routable targets at this scale")
	}
	sr.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	if len(cands) > warmPoolSources {
		cands = cands[:warmPoolSources]
	}
	// pickTargets draws k distinct targets, three in five from the direct
	// mappings: curators mostly ask for what a source annotates itself.
	pickTargets := func(c cand, k int) []gam.SourceID {
		direct := append([]gam.SourceID(nil), c.direct...)
		composed := append([]gam.SourceID(nil), c.composed...)
		var out []gam.SourceID
		for len(out) < k && len(direct)+len(composed) > 0 {
			from := &composed
			if len(composed) == 0 || (len(direct) > 0 && sr.Intn(5) < 3) {
				from = &direct
			}
			i := sr.Intn(len(*from))
			out = append(out, (*from)[i])
			*from = append((*from)[:i], (*from)[i+1:]...)
		}
		return out
	}

	dr := rand.New(rand.NewSource(seed))
	p := &plan{}
	keys := make(map[string]bool)
	for attempt := 0; len(p.Requests) < warmPoolShapes && attempt < 50*warmPoolShapes; attempt++ {
		c := cands[attempt%len(cands)]
		from := w.id(c.name)
		count := w.uni.Count(c.name)
		nAcc := 50 + sr.Intn(min(500, count)-50+1)
		k := 1 + sr.Intn(8)
		mode := "OR"
		if sr.Intn(2) == 0 {
			mode = "AND"
		}
		negate := sr.Intn(4) == 0
		targets := pickTargets(c, k)
		// The first shapes of each source are single-target OR without
		// negation on a target the SRS ground truth can check.
		if attempt < 2*len(cands) {
			mode, negate, targets = "OR", false, []gam.SourceID{c.srs[sr.Intn(len(c.srs))]}
		}

		q := genmapper.Query{Source: c.name, Mode: mode}
		var routes [][]gam.SourceID
		added := make(map[string]bool)
		factor := 1.0
		for i, to := range targets {
			route := w.route(from, to)
			routes = append(routes, route)
			for _, key := range cacheKeys(route) {
				if !keys[key] {
					added[key] = true
				}
			}
			if est := w.pathFan(route); est > 1 || mode == "AND" {
				factor *= est
			}
			q.Targets = append(q.Targets, genmapper.Target{Source: w.name(to), Negate: negate && i == len(targets)-1})
		}
		if len(keys)+len(added) > warmKeyBudget || factor > warmRowFactorMax {
			continue
		}
		for key := range added {
			keys[key] = true
		}
		for _, i := range dr.Perm(count)[:nAcc] {
			q.Accessions = append(q.Accessions, w.uni.Accession(c.name, i))
		}
		p.Requests = append(p.Requests, queryRequest(q))
		p.Routes = append(p.Routes, routes)
	}
	if len(p.Requests) == 0 {
		return nil, fmt.Errorf("view.warm: no shape fits the cache budget")
	}
	for b := 0; b < warmBlocks; b++ {
		p.Order = append(p.Order, dr.Perm(len(p.Requests))...)
	}
	p.Notes = append(p.Notes,
		fmt.Sprintf("pool: %d shapes over %d sources, %d executor cache keys (budget %d of capacity %d)",
			len(p.Requests), len(cands), len(keys), warmKeyBudget, ops.DefaultCacheCapacity),
		fmt.Sprintf("request list: %d requests = %d seeded permutations of the pool", len(p.Order), warmBlocks))
	return p, nil
}

// simplePaths enumerates the simple paths of 2-4 edges that start at from,
// in depth-first order over ascending neighbour IDs.
func simplePaths(w *world, from gam.SourceID) [][]gam.SourceID {
	g := w.sys.Graph()
	var out [][]gam.SourceID
	path := []gam.SourceID{from}
	on := map[gam.SourceID]bool{from: true}
	var dfs func()
	dfs = func() {
		if n := len(path) - 1; n >= 2 {
			out = append(out, append([]gam.SourceID(nil), path...))
			if n == 4 {
				return
			}
		}
		for _, to := range g.Neighbors(path[len(path)-1]) {
			if on[to] {
				continue
			}
			on[to] = true
			path = append(path, to)
			dfs()
			path = path[:len(path)-1]
			delete(on, to)
		}
	}
	dfs()
	return out
}

// planExportCold builds whole-source /export requests with 1-3 targets,
// each through an explicit via path of 2-4 hops drawn uniformly from the
// pool of simple paths of the source graph. The pool is several times the
// executor cache, so paths are loaded and composed on most requests.
func planExportCold(w *world, seed int64) (*plan, error) {
	sr := structRand(wlExportCold)
	type src struct {
		name  string
		paths [][]gam.SourceID
	}
	var srcs []src
	pool := 0
	for _, spec := range w.specs {
		// Mid-sized sources: at scale 1.0 between 9k and 60k objects.
		if n := float64(spec.BaseCount); n < 9000*w.scale || n > 60000*w.scale {
			continue
		}
		from := w.id(spec.Name)
		if from == 0 {
			continue
		}
		var keep [][]gam.SourceID
		for _, p := range simplePaths(w, from) {
			if est := w.pathFan(p); est >= coldPathEstMin && est <= coldPathEstMax {
				keep = append(keep, p)
			}
		}
		if len(keep) >= 3 {
			srcs = append(srcs, src{spec.Name, keep})
			pool += len(keep)
		}
	}
	if len(srcs) == 0 {
		return nil, fmt.Errorf("export.cold: no mid-sized source has via paths at this scale")
	}

	p := &plan{}
	for attempt := 0; len(p.Requests) < coldRequests && attempt < 50*coldRequests; attempt++ {
		s := srcs[sr.Intn(len(srcs))]
		k := 1 + sr.Intn(3)
		mode := "OR"
		if sr.Intn(2) == 0 {
			mode = "AND"
		}
		q := genmapper.Query{Source: s.name, Mode: mode}
		var routes [][]gam.SourceID
		ends := make(map[gam.SourceID]bool)
		factor := 1.0
		for len(q.Targets) < k {
			path := s.paths[sr.Intn(len(s.paths))]
			end := path[len(path)-1]
			if ends[end] {
				k-- // fewer targets rather than a duplicate column
				continue
			}
			ends[end] = true
			routes = append(routes, path)
			if est := w.pathFan(path); est > 1 || mode == "AND" {
				factor *= est
			}
			q.Targets = append(q.Targets, genmapper.Target{Source: w.name(end), Via: w.names(path)})
		}
		if factor > coldRowFactorMax || len(q.Targets) == 0 {
			continue
		}
		p.Requests = append(p.Requests, exportRequest(q))
		p.Routes = append(p.Routes, routes)
	}

	dr := rand.New(rand.NewSource(seed))
	p.Order = make([]int, len(p.Requests))
	for i := range p.Order {
		p.Order[i] = i
	}
	for lo := 0; lo < len(p.Order); lo += coldShuffleBlock {
		blk := p.Order[lo:min(lo+coldShuffleBlock, len(p.Order))]
		dr.Shuffle(len(blk), func(i, j int) { blk[i], blk[j] = blk[j], blk[i] })
	}

	distinct := make(map[string]bool)
	for _, routes := range p.Routes {
		for _, r := range routes {
			distinct[fmt.Sprint(r)] = true
		}
	}
	note := fmt.Sprintf("via pool: %d distinct simple paths over %d sources (required %d, executor cache %d); %d used by %d distinct requests",
		pool, len(srcs), coldPathPoolMin, ops.DefaultCacheCapacity, len(distinct), len(p.Requests))
	if pool < coldPathPoolMin {
		note += fmt.Sprintf(" -- BELOW the required pool: the graph at this scale yields only %d paths", pool)
	}
	p.Notes = append(p.Notes, note,
		fmt.Sprintf("request list: %d requests in structural order, shuffled by the seed inside blocks of %d", len(p.Order), coldShuffleBlock))
	return p, nil
}

// planFor builds the request list of a request workload. It is a pure
// function of (seed, scale, workload): the world is itself generated from
// seed and scale.
func planFor(workload string, w *world, seed int64) (*plan, error) {
	switch workload {
	case wlViewWarm, wlViewUpdate:
		return planViewWarm(w, seed)
	case wlExportCold:
		return planExportCold(w, seed)
	}
	return nil, fmt.Errorf("workload %q has no request list", workload)
}
