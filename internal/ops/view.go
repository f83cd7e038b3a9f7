package ops

import (
	"fmt"
	"slices"

	"genmapper/internal/gam"
)

// Combine selects how GenerateView combines the per-target mappings.
type Combine int

// Combination modes: AND uses inner joins, OR left outer joins (Figure 5).
const (
	CombineOR Combine = iota
	CombineAND
)

// String returns the SQL-ish spelling.
func (c Combine) String() string {
	if c == CombineAND {
		return "AND"
	}
	return "OR"
}

// TargetSpec describes one annotation target of a view: the target source,
// an optional restriction to target objects of interest, an optional
// negation flag, and an optional explicit mapping path (source IDs from
// the view source to the target) overriding automatic mapping lookup.
type TargetSpec struct {
	Source   gam.SourceID
	Restrict ObjectSet // nil = all target objects
	Negate   bool
	Path     []gam.SourceID
	// Mapping, when non-nil, is a pre-resolved mapping from the view
	// source to the target that overrides both Path and the resolver —
	// the hook callers use to route explicit paths through a caching
	// executor.
	Mapping *Mapping
	// MinEvidence drops associations below the threshold before joining
	// (associations with unset evidence always pass). This is the control
	// point the paper flags for "mappings containing associations of
	// reduced evidence".
	MinEvidence float64
}

// Resolver produces the mapping between the view source and a target; it
// is the hook through which GenerateView uses either a direct Map or a
// Compose over a path found in the source graph ("Determine mapping Mi:
// S<->Ti, using either the Map or Compose operation").
type Resolver func(s, t gam.SourceID) (*Mapping, error)

// DirectResolver resolves only via existing mappings (plain Map).
func DirectResolver(repo *gam.Repo) Resolver {
	return func(s, t gam.SourceID) (*Mapping, error) {
		return Map(repo, s, t)
	}
}

// ViewRow is one tuple of a generated annotation view: position 0 is the
// source object, positions 1..m the target objects. 0 encodes NULL (no
// association).
type ViewRow []gam.ObjectID

// View is the result of GenerateView: a relation of m+1 attributes over
// object IDs (rendering to accessions is the job of package view).
type View struct {
	Source  gam.SourceID
	Targets []gam.SourceID
	Rows    []ViewRow
}

// SourceObjects returns the distinct source objects present in the view.
func (v *View) SourceObjects() []gam.ObjectID {
	out := make([]gam.ObjectID, len(v.Rows))
	for i, r := range v.Rows {
		out[i] = r[0]
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// GenerateView implements the algorithm of Figure 5. S is the source to be
// annotated; s the relevant source objects (nil = all objects of S);
// targets the annotation targets; mode the AND/OR combination. resolve
// finds mappings for targets without an explicit path. It is
// GenerateViewIDs over the set's IDs.
func GenerateView(repo *gam.Repo, s gam.SourceID, sSet ObjectSet, targets []TargetSpec, mode Combine, resolve Resolver) (*View, error) {
	var ids []gam.ObjectID
	if sSet != nil {
		ids = sSet.Sorted() // never nil: an empty set selects no objects
	}
	return GenerateViewIDs(repo, s, ids, targets, mode, resolve)
}

// GenerateViewIDs is GenerateView with the relevant source objects given
// as a sorted, duplicate-free ID vector: nil selects all objects of S, an
// empty non-nil slice none. The view's rows never share ids' memory, but
// GenerateViewIDs reads it until it returns.
//
// The mappings are only read, never copied, so they may be an Executor's
// shared ones: each step joins the view row by row through the mapping's
// domain index (see Mapping.domainIndex). The rows come out in
// lexicographic order: they start sorted, each row's targets are appended
// in ascending order, and a NULL only ever appears alone.
func GenerateViewIDs(repo *gam.Repo, s gam.SourceID, ids []gam.ObjectID, targets []TargetSpec, mode Combine, resolve Resolver) (*View, error) {
	if len(targets) == 0 {
		return nil, fmt.Errorf("ops: GenerateView needs at least one target")
	}
	if resolve == nil {
		resolve = DirectResolver(repo)
	}
	// V = s: start with all given source objects, one per row. A whole
	// source's IDs come in storage order, which is ascending unless rows
	// were written around gam. Between steps the view is flat: cells holds
	// its rows back to back, width IDs each.
	cells := ids
	if ids == nil {
		var err error
		if cells, err = repo.ObjectIDs(s); err != nil {
			return nil, err
		}
		if !slices.IsSorted(cells) {
			slices.Sort(cells)
		}
	}
	view := &View{Source: s, Targets: make([]gam.SourceID, 0, len(targets))}
	// The first step picks about one target (or NULL) per source object.
	j := joiner{picks: make([]gam.ObjectID, 0, len(cells))}
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
		if len(cells) > 0 {
			cells = j.join(cells, i+1, mi.domainIndex(ids), &tgt, mode)
		}
	}
	if width := len(targets) + 1; len(cells) > 0 {
		view.Rows = make([]ViewRow, len(cells)/width)
		for r := range view.Rows {
			view.Rows[r] = ViewRow(cells[r*width : (r+1)*width : (r+1)*width])
		}
	}
	return view, nil
}

// joiner runs the join steps of one GenerateView, reusing its scratch
// buffers from step to step.
type joiner struct {
	picks []gam.ObjectID // every row's targets for this step, flattened
	spans []pickSpan     // row r joins with picks[spans[r].lo:spans[r].hi]
}

type pickSpan struct{ lo, hi int32 }

// join is one step of Figure 5: V = V inner join (AND) / left outer join
// (OR) mi on S, where mi = RestrictRange(RestrictDomain(Mi, s), ti) and,
// for a negated target, the right outer join with ŝ = s \ Domain(mi). The
// view comes in and goes out flat: its rows are cells' consecutive runs of
// width IDs, and the next view's rows, one ID wider, fill one exactly
// sized array. cells is only read.
func (j *joiner) join(cells []gam.ObjectID, width int, ix *domainIndex, tgt *TargetSpec, mode Combine) []gam.ObjectID {
	n := len(cells) / width
	j.picks = j.picks[:0]
	j.spans = slices.Grow(j.spans[:0], n)[:n]
	total, from := 0, 0
	var cur pickSpan
	for r := range n {
		// Rows are sorted, so rows of one source object are adjacent and
		// share its picks.
		if id := cells[r*width]; r == 0 || id != cells[(r-1)*width] {
			cur.lo = int32(len(j.picks))
			from = j.pick(ix, from, id, tgt, mode)
			cur.hi = int32(len(j.picks))
		}
		j.spans[r] = cur
		total += int(cur.hi - cur.lo)
	}
	if total == 0 {
		return nil
	}
	next := make([]gam.ObjectID, 0, total*(width+1))
	for r := range n {
		row := cells[r*width : (r+1)*width]
		for _, t := range j.picks[j.spans[r].lo:j.spans[r].hi] {
			next = append(append(next, row...), t)
		}
	}
	return next
}

// pick appends to j.picks the targets source object id joins with in this
// step (0 for NULL, nothing when the row is dropped). It searches the index
// from position from on, because ids arrive in ascending order, and returns
// the position to search from next.
func (j *joiner) pick(ix *domainIndex, from int, id gam.ObjectID, tgt *TargetSpec, mode Combine) int {
	k, found := slices.BinarySearch(ix.domains[from:], id)
	k += from
	var ts []indexTarget
	if found {
		ts = ix.targets[ix.offs[k]:ix.offs[k+1]]
	}
	passes := func(t indexTarget) bool {
		return tgt.MinEvidence <= 0 || t.evidence == 0 || t.evidence >= tgt.MinEvidence
	}
	restricted := func(t indexTarget) bool {
		return passes(t) && (tgt.Restrict == nil || tgt.Restrict[t.id])
	}
	if tgt.Negate {
		// id is in ŝ iff it has no restricted target: show its targets
		// that pass MinEvidence, whatever Restrict says, or NULL (mî right
		// outer join ŝ of Figure 5). Any other row has no partner in mî.
		if slices.ContainsFunc(ts, restricted) {
			if mode == CombineOR {
				j.picks = append(j.picks, 0)
			}
			return k
		}
		n := len(j.picks)
		for _, t := range ts {
			if passes(t) {
				j.picks = append(j.picks, t.id)
			}
		}
		if len(j.picks) == n {
			j.picks = append(j.picks, 0)
		}
		return k
	}
	n := len(j.picks)
	for _, t := range ts {
		if restricted(t) {
			j.picks = append(j.picks, t.id)
		}
	}
	if len(j.picks) == n && mode == CombineOR {
		j.picks = append(j.picks, 0)
	}
	return k
}
