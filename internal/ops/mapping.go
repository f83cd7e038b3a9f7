// Package ops implements GenMapper's high-level GAM operators (paper §4.2):
// the simple operations Map, Domain, Range, RestrictDomain and
// RestrictRange (Table 2), the Compose operation deriving new mappings by
// transitivity, and the GenerateView operation (Figure 5) that assembles
// tailored annotation views with AND/OR combination and per-target
// negation.
//
// Operators work on in-memory Mapping values fetched from the GAM
// repository; results of general interest (e.g. composed mappings) can be
// materialized back into the database with Materialize.
package ops

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"genmapper/internal/gam"
)

// ErrNoMapping reports that no mapping (in either direction) exists
// between two sources. Callers that fall back to path composition (e.g.
// Executor.Resolver) test for it with errors.Is to distinguish "nothing
// stored" from real repository failures.
var ErrNoMapping = errors.New("no mapping between sources")

// Mapping is the working representation of one source-level relationship
// with its object associations: the operator algebra's value type.
// From is the domain source, To the range source.
//
// A Mapping the Executor caches is shared: every caller that gets it from
// the cache reads the same value, and nobody may mutate it. Only a shared
// Mapping keeps its domain index; clones are private and carry none.
type Mapping struct {
	Rel    gam.SourceRelID // 0 for derived, not-yet-materialized mappings
	From   gam.SourceID
	To     gam.SourceID
	Type   gam.RelType
	Assocs []gam.Assoc

	index *indexSlot // non-nil iff the mapping is shared
}

// indexSlot holds a shared mapping's domain index, built by the first
// GenerateView that joins through the mapping and published once.
type indexSlot struct {
	once sync.Once
	ix   *domainIndex
}

// domainIndex groups a mapping by domain object: domains are the distinct
// Object1 values in ascending order, and domains[i]'s distinct targets, in
// ascending order, are targets[offs[i]:offs[i+1]], each with the strongest
// evidence among the pair's duplicates (the rule Dedup applies). The
// arrays hold no pointers, so there is nothing in them for the GC to scan.
type domainIndex struct {
	domains []gam.ObjectID
	offs    []int32
	targets []indexTarget
}

type indexTarget struct {
	id       gam.ObjectID
	evidence float64
}

// domainIndex returns the index GenerateView joins m through. A shared
// mapping builds its full index once and keeps it; any other mapping may
// change between calls, so it gets a throwaway index of the associations
// whose domain object is in sSet (nil = all).
func (m *Mapping) domainIndex(sSet ObjectSet) *domainIndex {
	if m.index == nil {
		return buildDomainIndex(m.Assocs, sSet)
	}
	m.index.once.Do(func() { m.index.ix = buildDomainIndex(m.Assocs, nil) })
	return m.index.ix
}

func buildDomainIndex(assocs []gam.Assoc, sSet ObjectSet) *domainIndex {
	pairs := make([]gam.Assoc, 0, len(assocs))
	for _, a := range assocs {
		if sSet == nil || sSet[a.Object1] {
			pairs = append(pairs, a)
		}
	}
	slices.SortFunc(pairs, func(a, b gam.Assoc) int {
		if c := cmp.Compare(a.Object1, b.Object1); c != 0 {
			return c
		}
		return cmp.Compare(a.Object2, b.Object2)
	})
	nd, nt := 0, 0
	for i, a := range pairs {
		switch {
		case i == 0 || a.Object1 != pairs[i-1].Object1:
			nd++
			nt++
		case a.Object2 != pairs[i-1].Object2:
			nt++
		}
	}
	ix := &domainIndex{
		domains: make([]gam.ObjectID, 0, nd),
		offs:    make([]int32, 0, nd+1),
		targets: make([]indexTarget, 0, nt),
	}
	for i, a := range pairs {
		switch {
		case i == 0 || a.Object1 != pairs[i-1].Object1:
			ix.domains = append(ix.domains, a.Object1)
			ix.offs = append(ix.offs, int32(len(ix.targets)))
			ix.targets = append(ix.targets, indexTarget{a.Object2, a.Evidence})
		case a.Object2 != pairs[i-1].Object2:
			ix.targets = append(ix.targets, indexTarget{a.Object2, a.Evidence})
		default:
			if last := &ix.targets[len(ix.targets)-1]; stronger(a.Evidence, last.evidence) {
				last.evidence = a.Evidence
			}
		}
	}
	ix.offs = append(ix.offs, int32(len(ix.targets)))
	return ix
}

// Len returns the number of associations.
func (m *Mapping) Len() int { return len(m.Assocs) }

// ObjectSet is a set of object IDs used to restrict domains and ranges.
type ObjectSet map[gam.ObjectID]bool

// NewObjectSet builds a set from IDs.
func NewObjectSet(ids ...gam.ObjectID) ObjectSet {
	s := make(ObjectSet, len(ids))
	for _, id := range ids {
		s[id] = true
	}
	return s
}

// Sorted returns the set's IDs in ascending order.
func (s ObjectSet) Sorted() []gam.ObjectID {
	out := make([]gam.ObjectID, 0, len(s))
	for id := range s {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Map implements the Map(S, T) operation of Table 2: it searches the
// database for an existing mapping between S and T and returns the
// corresponding object associations. Mappings stored in the opposite
// direction are flipped so that the result always has From = S.
func Map(repo *gam.Repo, s, t gam.SourceID) (*Mapping, error) {
	rel, reversed, err := repo.FindMapping(s, t)
	if err != nil {
		return nil, err
	}
	if rel == nil {
		return nil, fmt.Errorf("ops: %w: %d and %d", ErrNoMapping, s, t)
	}
	assocs, err := repo.Associations(rel.ID)
	if err != nil {
		return nil, err
	}
	return edgeMapping(s, t, rel, reversed, assocs), nil
}

// Domain implements Table 2's Domain(map): SELECT DISTINCT S FROM map.
func Domain(m *Mapping) []gam.ObjectID {
	seen := make(ObjectSet, len(m.Assocs))
	for _, a := range m.Assocs {
		seen[a.Object1] = true
	}
	return seen.Sorted()
}

// Range implements Table 2's Range(map): SELECT DISTINCT T FROM map.
func Range(m *Mapping) []gam.ObjectID {
	seen := make(ObjectSet, len(m.Assocs))
	for _, a := range m.Assocs {
		seen[a.Object2] = true
	}
	return seen.Sorted()
}

// RestrictDomain implements Table 2's RestrictDomain(map, s):
// SELECT * FROM map WHERE S in s. A nil set means no restriction.
func RestrictDomain(m *Mapping, s ObjectSet) *Mapping {
	if s == nil {
		return m.clone()
	}
	out := &Mapping{Rel: m.Rel, From: m.From, To: m.To, Type: m.Type}
	for _, a := range m.Assocs {
		if s[a.Object1] {
			out.Assocs = append(out.Assocs, a)
		}
	}
	return out
}

// RestrictRange implements Table 2's RestrictRange(map, t):
// SELECT * FROM map WHERE T in t. A nil set means no restriction.
func RestrictRange(m *Mapping, t ObjectSet) *Mapping {
	if t == nil {
		return m.clone()
	}
	out := &Mapping{Rel: m.Rel, From: m.From, To: m.To, Type: m.Type}
	for _, a := range m.Assocs {
		if t[a.Object2] {
			out.Assocs = append(out.Assocs, a)
		}
	}
	return out
}

// clone returns a private copy of m: its own association slice and no
// domain index.
func (m *Mapping) clone() *Mapping {
	return &Mapping{Rel: m.Rel, From: m.From, To: m.To, Type: m.Type,
		Assocs: append([]gam.Assoc(nil), m.Assocs...)}
}

// Invert swaps domain and range.
func Invert(m *Mapping) *Mapping {
	out := &Mapping{Rel: m.Rel, From: m.To, To: m.From, Type: m.Type}
	out.Assocs = make([]gam.Assoc, len(m.Assocs))
	for i, a := range m.Assocs {
		out.Assocs[i] = gam.Assoc{Object1: a.Object2, Object2: a.Object1, Evidence: a.Evidence}
	}
	return out
}

// Dedup removes duplicate (Object1, Object2) pairs, keeping the strongest
// evidence among duplicates. Unset evidence (0) denotes a curated fact and
// outranks any scored value — a derivation certain by facts must not be
// downgraded by a weaker scored derivation of the same pair; among scored
// values the highest wins. This ordering makes duplicate collapse agree
// with evidence strength and keeps multi-step composition independent of
// the grouping order (sequential fold vs. the executor's tree reduction).
func Dedup(m *Mapping) *Mapping {
	best := make(map[[2]gam.ObjectID]float64, len(m.Assocs))
	order := make([][2]gam.ObjectID, 0, len(m.Assocs))
	for _, a := range m.Assocs {
		key := [2]gam.ObjectID{a.Object1, a.Object2}
		ev, seen := best[key]
		if !seen {
			order = append(order, key)
			best[key] = a.Evidence
			continue
		}
		if stronger(a.Evidence, ev) {
			best[key] = a.Evidence
		}
	}
	out := &Mapping{Rel: m.Rel, From: m.From, To: m.To, Type: m.Type}
	out.Assocs = make([]gam.Assoc, len(order))
	for i, key := range order {
		out.Assocs[i] = gam.Assoc{Object1: key[0], Object2: key[1], Evidence: best[key]}
	}
	return out
}

// stronger reports whether evidence a outranks evidence b: a fact (unset,
// 0) outranks any score, otherwise the higher score wins.
func stronger(a, b float64) bool {
	if b == 0 {
		return false // nothing beats a fact
	}
	return a == 0 || a > b
}

// Compose derives a new mapping between m1.From and m2.To by transitivity
// of associations (paper §4.2): it joins on the shared middle source
// (m1.To must equal m2.From). Evidence values combine multiplicatively.
// An unset evidence (0, a curated fact) acts as the multiplicative
// identity, and a pair of unset evidences stays unset — but an explicitly
// asserted 1.0 is preserved as 1.0 rather than collapsed to "unset", so
// asserted certainty remains distinguishable from absence of evidence.
// Duplicate derived pairs collapse, keeping the strongest evidence.
func Compose(m1, m2 *Mapping) (*Mapping, error) {
	if m1.To != m2.From {
		return nil, fmt.Errorf("ops: cannot compose: mapping targets source %d but next mapping starts at %d", m1.To, m2.From)
	}
	// Hash join on the shared middle objects.
	byMiddle := make(map[gam.ObjectID][]gam.Assoc)
	for _, a := range m2.Assocs {
		byMiddle[a.Object1] = append(byMiddle[a.Object1], a)
	}
	out := &Mapping{From: m1.From, To: m2.To, Type: gam.RelComposed}
	for _, a1 := range m1.Assocs {
		for _, a2 := range byMiddle[a1.Object2] {
			var ev float64
			switch ev1, ev2 := a1.Evidence, a2.Evidence; {
			case ev1 == 0 && ev2 == 0:
				ev = 0 // both facts: the derived pair is a fact
			case ev1 == 0:
				ev = ev2
			case ev2 == 0:
				ev = ev1
			default:
				ev = ev1 * ev2
			}
			out.Assocs = append(out.Assocs, gam.Assoc{Object1: a1.Object1, Object2: a2.Object2, Evidence: ev})
		}
	}
	return Dedup(out), nil
}

// ComposePath folds Compose over a mapping path of two or more mappings
// connecting two sources (the "mapping path" input of the paper's Compose).
func ComposePath(maps ...*Mapping) (*Mapping, error) {
	if len(maps) == 0 {
		return nil, fmt.Errorf("ops: empty mapping path")
	}
	acc := maps[0].clone()
	for _, next := range maps[1:] {
		composed, err := Compose(acc, next)
		if err != nil {
			return nil, err
		}
		acc = composed
	}
	return acc, nil
}

// MapPath loads the mappings along a source path and composes them into a
// single mapping from path[0] to path[len-1]. A path of length 2 reduces
// to Map.
func MapPath(repo *gam.Repo, path []gam.SourceID) (*Mapping, error) {
	if len(path) < 2 {
		return nil, fmt.Errorf("ops: mapping path needs at least two sources, got %d", len(path))
	}
	maps := make([]*Mapping, 0, len(path)-1)
	for i := 0; i+1 < len(path); i++ {
		m, err := Map(repo, path[i], path[i+1])
		if err != nil {
			return nil, fmt.Errorf("ops: path step %d: %w", i, err)
		}
		maps = append(maps, m)
	}
	return ComposePath(maps...)
}

// Materialize stores a derived mapping in the central database as a
// Composed relationship (paper §2: "Results of such operators that are of
// general interest ... can be materialized in the central database").
// An existing Composed mapping between the same sources is replaced
// atomically: delete, re-create and insert run in one transaction, so a
// failure mid-refresh leaves the previously materialized mapping intact.
func Materialize(repo *gam.Repo, m *Mapping) (gam.SourceRelID, error) {
	rel, err := repo.ReplaceMapping(m.From, m.To, gam.RelComposed, m.Assocs)
	if err != nil {
		return 0, err
	}
	m.Rel = rel
	m.Type = gam.RelComposed
	return rel, nil
}

// MinEvidence filters associations below the threshold (the paper flags
// "mappings containing associations of reduced evidence" as needing
// user control; this operator implements that control point). Associations
// with unset evidence (0 = fact) always pass.
func MinEvidence(m *Mapping, threshold float64) *Mapping {
	out := &Mapping{Rel: m.Rel, From: m.From, To: m.To, Type: m.Type}
	for _, a := range m.Assocs {
		if a.Evidence == 0 || a.Evidence >= threshold {
			out.Assocs = append(out.Assocs, a)
		}
	}
	return out
}
