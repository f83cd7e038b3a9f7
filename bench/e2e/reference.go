package main

import (
	"fmt"
	"strings"

	"genmapper"
	"genmapper/internal/baseline/srs"
	"genmapper/internal/gam"
	"genmapper/internal/ops"
)

// reference computes the row count every response must have with a serial
// ops.GenerateView that never touches the executor: edges come from plain
// ops.Map, paths from ops.ComposePath. It memoizes its own mappings, which
// is safe on the pristine set-up data and on view.update, whose writer
// replaces mappings with the same object pairs.
type reference struct {
	w     *world
	edges map[[2]gam.SourceID]*ops.Mapping
	paths map[string]*ops.Mapping
	rows  map[int]int // request index -> expected row count
}

func newReference(w *world) *reference {
	return &reference{
		w:     w,
		edges: make(map[[2]gam.SourceID]*ops.Mapping),
		paths: make(map[string]*ops.Mapping),
		rows:  make(map[int]int),
	}
}

func (r *reference) mapping(path []gam.SourceID) (*ops.Mapping, error) {
	key := fmt.Sprint(path)
	if m, ok := r.paths[key]; ok {
		return m, nil
	}
	maps := make([]*ops.Mapping, 0, len(path)-1)
	for i := 0; i+1 < len(path); i++ {
		ek := [2]gam.SourceID{path[i], path[i+1]}
		m, ok := r.edges[ek]
		if !ok {
			var err error
			if m, err = ops.Map(r.w.sys.Repo(), ek[0], ek[1]); err != nil {
				return nil, err
			}
			r.edges[ek] = m
		}
		maps = append(maps, m)
	}
	m, err := ops.ComposePath(maps...)
	if err != nil {
		return nil, err
	}
	r.paths[key] = m
	return m, nil
}

// objectSet resolves a query's accessions as System does: nil (all objects
// of the source) when there are none.
func objectSet(repo *gam.Repo, src gam.SourceID, accessions []string) (ops.ObjectSet, error) {
	if len(accessions) == 0 {
		return nil, nil
	}
	ids, err := repo.LookupObjects(src, accessions)
	if err != nil {
		return nil, err
	}
	set := make(ops.ObjectSet, len(ids))
	for _, id := range ids {
		if id != 0 {
			set[id] = true
		}
	}
	return set, nil
}

func combineMode(mode string) ops.Combine {
	if mode == "AND" {
		return ops.CombineAND
	}
	return ops.CombineOR
}

// expected returns the reference row count of request i of the plan.
func (r *reference) expected(p *plan, i int) (int, error) {
	if n, ok := r.rows[i]; ok {
		return n, nil
	}
	q := p.Requests[i].Query
	repo := r.w.sys.Repo()
	src := r.w.id(q.Source)
	sSet, err := objectSet(repo, src, q.Accessions)
	if err != nil {
		return 0, err
	}
	specs := make([]ops.TargetSpec, len(q.Targets))
	for t, tgt := range q.Targets {
		m, err := r.mapping(p.Routes[i][t])
		if err != nil {
			return 0, err
		}
		specs[t] = ops.TargetSpec{Source: r.w.id(tgt.Source), Negate: tgt.Negate, Mapping: m}
	}
	v, err := ops.GenerateView(repo, src, sSet, specs, combineMode(q.Mode), nil)
	if err != nil {
		return 0, err
	}
	r.rows[i] = len(v.Rows)
	return len(v.Rows), nil
}

// srsRows checks the plan's one-hop OR requests against a ground truth that
// is not the engine: an SRS-style per-source index chased link by link
// (internal/baseline/srs). A request qualifies when every target is a
// direct, un-negated, fact cross-reference declared by the query source and
// not declared back by the target, so the engine's mapping holds exactly
// the source's own links. It returns how many requests it checked.
func srsRows(w *world, p *plan, ref *reference) (checked int, err error) {
	idx := srs.NewIndex()
	indexed := make(map[string]bool)
	for i, req := range p.Requests {
		q := req.Query
		if q.Mode != "OR" || len(q.Accessions) == 0 || !srsEligible(w, q.Source, q.Targets...) {
			continue
		}
		if !indexed[q.Source] {
			d, err := w.uni.Dataset(q.Source)
			if err != nil {
				return checked, err
			}
			if err := idx.AddDataset(d); err != nil {
				return checked, err
			}
			indexed[q.Source] = true
		}
		targets := make([]string, len(q.Targets))
		for t, tgt := range q.Targets {
			targets[t] = tgt.Source
		}
		want := 0
		for _, links := range idx.AnnotateSet(q.Source, q.Accessions, targets) {
			rows := 1
			for _, tgt := range targets {
				if n := distinct(links[tgt]); n > 1 {
					rows *= n
				}
			}
			want += rows
		}
		got, err := ref.expected(p, i)
		if err != nil {
			return checked, err
		}
		if got != want {
			return checked, fmt.Errorf("request %d (%s -> %s): engine reference has %d rows, SRS link chasing %d",
				i, q.Source, strings.Join(targets, ","), got, want)
		}
		checked++
	}
	return checked, nil
}

func srsEligible(w *world, source string, targets ...genmapper.Target) bool {
	for _, tgt := range targets {
		fwd := xref(w.uni.Spec(source), tgt.Source)
		if tgt.Negate || len(tgt.Via) > 0 || fwd == nil || fwd.Evidence || xref(w.uni.Spec(tgt.Source), source) != nil {
			return false
		}
	}
	return true
}

func distinct(list []string) int {
	seen := make(map[string]bool, len(list))
	for _, s := range list {
		seen[s] = true
	}
	return len(seen)
}
