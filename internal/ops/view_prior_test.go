package ops

import (
	"fmt"
	"sort"

	"genmapper/internal/gam"
)

// This file keeps GenerateView as it was before it joined through the
// domain index: it materializes RestrictRange(RestrictDomain(Mi, s), ti),
// groups it by domain and sorts the rows at the end. Only the function's
// name changed. TestGenerateViewMatchesPrior uses it as the oracle.

// generateViewPrior implements the algorithm of Figure 5. S is the source to be
// annotated; s the relevant source objects (nil = all objects of S);
// targets the annotation targets; mode the AND/OR combination. resolve
// finds mappings for targets without an explicit path.
func generateViewPrior(repo *gam.Repo, s gam.SourceID, sSet ObjectSet, targets []TargetSpec, mode Combine, resolve Resolver) (*View, error) {
	if len(targets) == 0 {
		return nil, fmt.Errorf("ops: GenerateView needs at least one target")
	}
	if resolve == nil {
		resolve = DirectResolver(repo)
	}
	if sSet == nil {
		objs, err := repo.ObjectsBySource(s)
		if err != nil {
			return nil, err
		}
		sSet = make(ObjectSet, len(objs))
		for _, o := range objs {
			sSet[o.ID] = true
		}
	}

	// V = s: start with all given source objects.
	view := &View{Source: s}
	for _, id := range sSet.Sorted() {
		view.Rows = append(view.Rows, ViewRow{id})
	}

	for i, tgt := range targets {
		view.Targets = append(view.Targets, tgt.Source)

		// Determine mapping Mi: S <-> Ti.
		var mi *Mapping
		var err error
		if tgt.Mapping != nil {
			if tgt.Mapping.From != s || tgt.Mapping.To != tgt.Source {
				return nil, fmt.Errorf("ops: target %d: pre-resolved mapping leads %d->%d, want %d->%d",
					i, tgt.Mapping.From, tgt.Mapping.To, s, tgt.Source)
			}
			mi = tgt.Mapping
		} else if len(tgt.Path) > 0 {
			if tgt.Path[0] != s || tgt.Path[len(tgt.Path)-1] != tgt.Source {
				return nil, fmt.Errorf("ops: target %d: path must lead from source %d to target %d", i, s, tgt.Source)
			}
			mi, err = MapPath(repo, tgt.Path)
		} else {
			mi, err = resolve(s, tgt.Source)
		}
		if err != nil {
			return nil, fmt.Errorf("ops: target %d (source %d): %w", i, tgt.Source, err)
		}

		// mi = RestrictRange(RestrictDomain(Mi, s), ti).
		if tgt.MinEvidence > 0 {
			mi = MinEvidence(mi, tgt.MinEvidence)
		}
		restricted := RestrictRange(RestrictDomain(mi, sSet), tgt.Restrict)

		var joinMap map[gam.ObjectID][]gam.ObjectID
		if tgt.Negate {
			// sî = s \ Domain(mi); show the associations those objects do
			// have in the unrestricted mapping, padded with NULLs
			// (mî right outer join sî of Figure 5).
			matched := make(ObjectSet)
			for _, a := range restricted.Assocs {
				matched[a.Object1] = true
			}
			neg := make(ObjectSet)
			for id := range sSet {
				if !matched[id] {
					neg[id] = true
				}
			}
			outside := RestrictDomain(mi, neg)
			joinMap = groupByDomain(outside)
			for id := range neg {
				if _, ok := joinMap[id]; !ok {
					joinMap[id] = []gam.ObjectID{0}
				}
			}
		} else {
			joinMap = groupByDomain(restricted)
		}

		// V = V inner join (AND) / left outer join (OR) mi on S.
		var next []ViewRow
		for _, row := range view.Rows {
			matches := joinMap[row[0]]
			if len(matches) == 0 {
				if mode == CombineAND {
					continue
				}
				next = append(next, append(append(ViewRow{}, row...), 0))
				continue
			}
			for _, t := range matches {
				next = append(next, append(append(ViewRow{}, row...), t))
			}
		}
		view.Rows = next
	}
	sortViewRows(view.Rows)
	return view, nil
}

// groupByDomain indexes associations by domain object with deterministic
// (ascending) target order and per-domain deduplication.
func groupByDomain(m *Mapping) map[gam.ObjectID][]gam.ObjectID {
	out := make(map[gam.ObjectID][]gam.ObjectID)
	for _, a := range m.Assocs {
		out[a.Object1] = append(out[a.Object1], a.Object2)
	}
	for id, list := range out {
		sort.Slice(list, func(i, j int) bool { return list[i] < list[j] })
		dedup := list[:0]
		var prev gam.ObjectID = -1
		for _, t := range list {
			if t != prev {
				dedup = append(dedup, t)
				prev = t
			}
		}
		out[id] = dedup
	}
	return out
}

func sortViewRows(rows []ViewRow) {
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
}
