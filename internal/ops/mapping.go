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
	"math"
	"math/bits"
	"slices"
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
// the cache reads the same value, and nobody may mutate it. A shared
// Mapping's associations are sorted by (Object1, Object2), duplicate pairs
// included, and it keeps their grouping by domain object and its domain
// index; clones are private and carry neither.
type Mapping struct {
	Rel    gam.SourceRelID // 0 for derived, not-yet-materialized mappings
	From   gam.SourceID
	To     gam.SourceID
	Type   gam.RelType
	Assocs []gam.Assoc

	index *indexSlot // non-nil iff the mapping is shared
}

// indexSlot holds what a shared mapping keeps beside its associations:
// their grouping, set before the mapping is shared, and the domain index,
// built by the first GenerateView that joins through the mapping and
// published once.
type indexSlot struct {
	groups assocGroups
	once   sync.Once
	ix     *domainIndex
}

// assocGroups groups associations sorted by (Object1, Object2) by domain
// object: domains are the distinct Object1 values in ascending order, and
// domains[i]'s associations, duplicate pairs included, are
// assocs[offs[i]:offs[i+1]].
type assocGroups struct {
	assocs  []gam.Assoc
	domains []gam.ObjectID
	offs    []int32
}

// groupAssocs groups assocs, which must be sorted by (Object1, Object2).
// It shares assocs and allocates only the domains and offsets, exactly
// sized.
func groupAssocs(assocs []gam.Assoc) assocGroups {
	nd := 0
	for i := range assocs {
		if i == 0 || assocs[i].Object1 != assocs[i-1].Object1 {
			nd++
		}
	}
	return groupAssocsInto(assocs, make([]gam.ObjectID, 0, nd), make([]int32, 0, nd+1))
}

// groupAssocsInto is groupAssocs writing the domains and offsets into the
// memory of domains and offs, whose contents it discards.
func groupAssocsInto(assocs []gam.Assoc, domains []gam.ObjectID, offs []int32) assocGroups {
	g := assocGroups{assocs: assocs, domains: domains[:0], offs: offs[:0]}
	for i, a := range assocs {
		if i == 0 || a.Object1 != assocs[i-1].Object1 {
			g.domains = append(g.domains, a.Object1)
			g.offs = append(g.offs, int32(i))
		}
	}
	g.offs = append(g.offs, int32(len(assocs)))
	return g
}

// groupsIn returns m's associations grouped by domain object. A shared
// mapping keeps its grouping; any other mapping gets a throwaway one built
// in buf's memory, over its own associations when they are sorted and over
// a sorted copy in buf otherwise. buf keeps only its own memory, never m's
// associations.
func (m *Mapping) groupsIn(buf *assocGroups) assocGroups {
	if m.index != nil {
		return m.index.groups
	}
	as := m.Assocs
	if !slices.IsSortedFunc(as, cmpAssoc) {
		buf.assocs = append(buf.assocs[:0], as...)
		slices.SortFunc(buf.assocs, cmpAssoc)
		as = buf.assocs
	}
	g := groupAssocsInto(as, buf.domains, buf.offs)
	buf.domains, buf.offs = g.domains, g.offs
	return g
}

func cmpAssoc(a, b gam.Assoc) int {
	if c := cmp.Compare(a.Object1, b.Object1); c != 0 {
		return c
	}
	return cmp.Compare(a.Object2, b.Object2)
}

// sortAssocs returns assocs sorted by (Object1, Object2): assocs itself
// when already sorted, else sorted in place if the caller owns them and a
// sorted copy if not. Sorted input is only read.
func sortAssocs(assocs []gam.Assoc, owned bool) []gam.Assoc {
	if slices.IsSortedFunc(assocs, cmpAssoc) {
		return assocs
	}
	if !owned {
		assocs = slices.Clone(assocs)
	}
	slices.SortFunc(assocs, cmpAssoc)
	return assocs
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
// whose domain object is in ids, sorted (nil = all).
func (m *Mapping) domainIndex(ids []gam.ObjectID) *domainIndex {
	if m.index == nil {
		pairs := m.Assocs
		if ids != nil {
			pairs = make([]gam.Assoc, 0, len(m.Assocs))
			for _, a := range m.Assocs {
				if _, in := slices.BinarySearch(ids, a.Object1); in {
					pairs = append(pairs, a)
				}
			}
		}
		return buildDomainIndex(groupAssocs(sortAssocs(pairs, ids != nil)))
	}
	m.index.once.Do(func() { m.index.ix = buildDomainIndex(m.index.groups) })
	return m.index.ix
}

// buildDomainIndex collapses each of g's duplicate pairs into one target.
// The index shares g's domains, and g's offsets too unless a duplicate
// pair moves them.
func buildDomainIndex(g assocGroups) *domainIndex {
	as := g.assocs
	nt := 0
	for i, a := range as {
		if i == 0 || a.Object1 != as[i-1].Object1 || a.Object2 != as[i-1].Object2 {
			nt++
		}
	}
	ix := &domainIndex{domains: g.domains, offs: g.offs, targets: make([]indexTarget, 0, nt)}
	collapse := nt < len(as)
	if collapse {
		ix.offs = make([]int32, len(g.offs))
	}
	for d := range g.domains {
		group := as[g.offs[d]:g.offs[d+1]]
		for i, a := range group {
			if i > 0 && a.Object2 == group[i-1].Object2 {
				if last := &ix.targets[len(ix.targets)-1]; stronger(a.Evidence, last.evidence) {
					last.evidence = a.Evidence
				}
				continue
			}
			ix.targets = append(ix.targets, indexTarget{a.Object2, a.Evidence})
		}
		if collapse {
			ix.offs[d+1] = int32(len(ix.targets))
		}
	}
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
	slices.Sort(out)
	return out
}

// Map implements the Map(S, T) operation of Table 2: it searches the
// database for an existing mapping between S and T and returns the
// corresponding object associations. Mappings stored in the opposite
// direction are flipped so that the result always has From = S. The
// associations come sorted by (Object1, Object2), duplicate pairs kept.
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
	m := edgeMapping(s, t, rel, reversed, assocs)
	sortAssocs(m.Assocs, true) // a fresh load: nobody else has it
	return m, nil
}

// Domain implements Table 2's Domain(map): SELECT DISTINCT S FROM map.
func Domain(m *Mapping) []gam.ObjectID {
	return slices.Clone(m.groupsIn(new(assocGroups)).domains)
}

// Range implements Table 2's Range(map): SELECT DISTINCT T FROM map.
func Range(m *Mapping) []gam.ObjectID {
	out := make([]gam.ObjectID, len(m.Assocs))
	for i, a := range m.Assocs {
		out[i] = a.Object2
	}
	slices.Sort(out)
	return slices.Compact(out)
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
// with evidence strength and, for evidence in [0, 1], keeps a composed
// path independent, up to rounding, of the order ComposePath joins it in;
// Compose collapses its derived pairs by the same rule.
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
// A product of two scores that underflows to 0 is kept as the smallest
// nonzero float64 of its sign, so a score never turns into a fact.
// Duplicate derived pairs collapse, keeping the strongest evidence (the
// rule Dedup applies). The result is sorted by (Object1, Object2), and its
// association slice is exactly as long as its capacity.
//
// Neither operand's duplicate pairs are collapsed first: the combined
// evidence is not monotone in its inputs outside [0, 1], so every
// derivation is combined and only the derived pairs collapse.
//
// Compose is the one-join case of ComposePath: the join works in pooled
// scratch memory, and only the result is allocated.
func Compose(m1, m2 *Mapping) (*Mapping, error) {
	return composePath([]*Mapping{m1, m2}, false)
}

// combine is the evidence of a pair derived from associations with
// evidence ev1 and ev2 (see Compose).
func combine(ev1, ev2 float64) float64 {
	switch {
	case ev1 == 0 && ev2 == 0:
		return 0 // both facts: the derived pair is a fact
	case ev1 == 0:
		return ev2
	case ev2 == 0:
		return ev1
	}
	p := ev1 * ev2
	if p != 0 {
		return p
	}
	return math.Copysign(math.SmallestNonzeroFloat64, p) // an underflow is not a fact
}

// ComposePath composes a mapping path of two or more mappings connecting
// two sources (the "mapping path" input of the paper's Compose) by joining
// its mappings in a planned order: the bracketing of the chain whose joins
// derive the fewest pairs by estimate (see composeScratch.plan). The
// result is sorted by (Object1, Object2), has no duplicate pairs and is
// exactly sized. A path of one mapping returns a sorted copy of it,
// duplicate pairs kept.
//
// For evidence in [0, 1] and unset, the order changes no pair: there
// the collapse (the strongest evidence) distributes over combine, so
// Compose is associative, and the pairs are those of every bracketing. A
// pair's evidence differs from another bracketing's only by the rounding
// of its products: within hops−1 ulp on every chain tested, and less than
// 2(hops−1) ulp in any case, as each of the hops−1 roundings is less than
// an ulp of the product. Outside [0, 1] the strongest evidence of a pair
// depends on the order, and the result is the planned bracketing's.
//
// Every join's result comes out grouped by domain object, so it joins as
// either operand as it stands. The intermediate results live in pooled
// scratch memory, reused across calls; the path allocates only its final
// result, and nothing it returns points into the scratch.
func ComposePath(maps ...*Mapping) (*Mapping, error) {
	if len(maps) == 0 {
		return nil, fmt.Errorf("ops: empty mapping path")
	}
	if len(maps) == 1 {
		out := maps[0].clone()
		sortAssocs(out.Assocs, true)
		return out, nil
	}
	return composePath(maps, false)
}

// composeScratch is the memory a path composes in: each operand's grouping
// and, for operands that are not shared, the memory it is built in; the
// planner's tables; the intermediate results; one domain object's derived
// pairs and the positions of a join's middle objects. Nothing a
// composition returns points into it, and it keeps no pointer into a
// composition's operands past the call that made it.
type composeScratch struct {
	leaves  []assocGroups
	operand []assocGroups
	rows    []float64
	cost    []float64
	split   []int32
	acc     []assocGroups
	derived []indexTarget
	pos     []int32
}

// posPerAssoc bounds the memory of a join's direct-addressed middle
// lookup: the right operand's domains are addressed by position only
// while the ID span they cover is at most this many times the number of
// associations the join reads (left's and right's), so pos, at 4 bytes a
// slot, never takes more than 16 bytes per association, less than the 24
// the association itself takes. A sparser right operand, such as one with
// a single outlying ID, is searched instead.
const posPerAssoc = 4

// positions writes each of right's domains' positions into s.pos at its
// offset from the first and returns pos, or nil when the join should
// search instead: when the domains are too sparse (see posPerAssoc), or
// when left has so few associations that their binary searches, about
// log2 of the domain count each, cost less than writing a slot per
// domain. pos is never cleared: a slot another join wrote may still hold
// its position, so a lookup trusts slot x only when domains[pos[x]] is
// the ID it looks for (a sparse set, after Briggs and Torczon).
func (s *composeScratch) positions(left, right assocGroups) []int32 {
	domains := right.domains
	if len(domains) == 0 || len(left.assocs)*bits.Len(uint(len(domains))) < len(domains) {
		return nil
	}
	// Exact in uint64, as domains ascend; the +1 wraps to 0 only for a
	// span of the whole int64 range.
	span := uint64(domains[len(domains)-1]-domains[0]) + 1
	if span == 0 || span > posPerAssoc*uint64(len(left.assocs)+len(right.assocs)) {
		return nil
	}
	if uint64(cap(s.pos)) < span {
		s.pos = make([]int32, span)
	}
	pos := s.pos[:span]
	base := domains[0]
	for i, id := range domains {
		pos[id-base] = int32(i)
	}
	return pos
}

var composeScratchPool = sync.Pool{New: func() any { return new(composeScratch) }}

// composePath composes maps, two or more mappings, and copies the root
// join's result once, at exact length, into a fresh Mapping. A grouped
// result also gets its grouping, copied the same way, as the indexSlot a
// shared mapping keeps (the executor caches it as it is).
func composePath(maps []*Mapping, grouped bool) (*Mapping, error) {
	for i := 1; i < len(maps); i++ {
		if maps[i-1].To != maps[i].From {
			return nil, fmt.Errorf("ops: cannot compose: mapping targets source %d but next mapping starts at %d", maps[i-1].To, maps[i].From)
		}
	}
	s := composeScratchPool.Get().(*composeScratch)
	defer composeScratchPool.Put(s)
	g := s.compose(maps)
	out := &Mapping{From: maps[0].From, To: maps[len(maps)-1].To, Type: gam.RelComposed, Assocs: exact(g.assocs)}
	if grouped {
		out.index = &indexSlot{groups: assocGroups{assocs: out.Assocs, domains: exact(g.domains), offs: exact(g.offs)}}
	}
	return out, nil
}

// exact returns a copy of s whose capacity is its length; nil when s is
// empty.
func exact[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	out := make([]T, len(s))
	copy(out, s)
	return out
}

// grow returns buf resized to n, its contents kept up to its old length,
// reallocated only when n exceeds its capacity.
func grow[T any](buf []T, n int) []T {
	if n <= cap(buf) {
		return buf[:n]
	}
	return append(buf[:cap(buf)], make([]T, n-cap(buf))...)
}

// compose joins maps in the order plan picks and returns the root join's
// result, which lives in s.
func (s *composeScratch) compose(maps []*Mapping) assocGroups {
	s.group(maps)
	return s.eval(s.plan(), 0, len(maps)-1, 0)
}

// group sets s.leaves to maps' groupings (see groupsIn), a private
// operand's built in its own slot of s.operand.
func (s *composeScratch) group(maps []*Mapping) {
	s.leaves, s.operand = grow(s.leaves, len(maps)), grow(s.operand, len(maps))
	for i, m := range maps {
		s.leaves[i] = m.groupsIn(&s.operand[i])
	}
}

// plan picks the order in which s.leaves, a chain of n grouped operands,
// is joined: the bracketing whose joins derive the fewest pairs by
// estimate, found by the matrix-chain DP (T. C. Hu and M. T. Shing;
// O(n³)). It returns split, where split[i*n+j] = k means that operands
// i..j are joined as the result of i..k with the result of k+1..j.
//
// A join of A with B derives about |A|·|B|/|dom B| pairs: each of A's
// associations meets a group of B of average size. The result's domain is
// taken to be A's, so the estimate of a sub-chain i..j's derived pairs is
// rows[i*n+j] = |i|·Π_{i<m≤j} |m|/|dom m| whatever its bracketing, and
// every split of i..j costs its final join the same; the splits differ
// only in what their sub-chains cost. An empty operand estimates 0 pairs
// everywhere it takes part, so it is joined first and ends the path at
// once. Ties go to the larger k, so a chain with no cheaper order is left
// folded.
func (s *composeScratch) plan() []int32 {
	leaves, n := s.leaves, len(s.leaves)
	s.rows, s.cost, s.split = grow(s.rows, n*n), grow(s.cost, n*n), grow(s.split, n*n)
	rows, cost, split := s.rows, s.cost, s.split
	for i, g := range leaves {
		rows[i*n+i], cost[i*n+i] = float64(len(g.assocs)), 0
	}
	for span := 1; span < n; span++ {
		for i := 0; i+span < n; i++ {
			j := i + span
			fanout := 0.0
			if d := len(leaves[j].domains); d > 0 {
				fanout = float64(len(leaves[j].assocs)) / float64(d)
			}
			rows[i*n+j] = rows[i*n+j-1] * fanout
			best := math.Inf(1)
			for k := j - 1; k >= i; k-- {
				if c := cost[i*n+k] + cost[(k+1)*n+j]; c < best {
					best, split[i*n+j] = c, int32(k)
				}
			}
			cost[i*n+j] = best + rows[i*n+j]
		}
	}
	return split
}

// eval joins s.leaves[i..j] as split brackets them (see plan) and
// returns the result. A leaf is its own grouping; a join's result lives
// in s.acc[base], and the joins below it work in s.acc[base:], so a join
// with both operands joined holds three buffers at once. Once a sub-chain
// derives nothing, nothing that contains it can, so eval returns it
// without joining more.
func (s *composeScratch) eval(split []int32, i, j, base int) assocGroups {
	if i == j {
		return s.leaves[i]
	}
	k := int(split[i*len(s.leaves)+j])
	dst := base
	left := s.eval(split, i, k, dst)
	if len(left.assocs) == 0 {
		return left
	}
	if k > i {
		dst++
	}
	right := s.eval(split, k+1, j, dst)
	if len(right.assocs) == 0 {
		return right
	}
	if k+1 < j {
		dst++
	}
	if dst == len(s.acc) { // the buffers below dst are in use
		s.acc = append(s.acc, assocGroups{})
	}
	s.join(&s.acc[dst], left, right)
	s.acc[base], s.acc[dst] = s.acc[dst], s.acc[base]
	return s.acc[base]
}

// join composes left with right and writes the result, grouped, into
// dst's memory: left's domain objects in ascending order; for each, its
// middle objects, each found among right's domains by its position in pos
// or, when positions declines, by binary search from where the previous
// one was found. A domain object enters the result, with its offset, only
// when it derives a pair, so the result needs no regrouping. Its derived
// pairs are sorted by range object before they collapse, unless they all
// come from one middle object: then they are that object's group of
// right, sorted already. dst must not be left's or right's memory.
func (s *composeScratch) join(dst *assocGroups, left, right assocGroups) {
	out := assocGroups{assocs: dst.assocs[:0], domains: dst.domains[:0], offs: dst.offs[:0]}
	derived := s.derived // one domain object's derived pairs
	pos := s.positions(left, right)
	var base gam.ObjectID
	if pos != nil {
		base = right.domains[0]
	}
	for d, id := range left.domains {
		derived = derived[:0]
		k, runs := 0, 0
		for _, a1 := range left.assocs[left.offs[d]:left.offs[d+1]] {
			if pos != nil {
				x := uint64(a1.Object2 - base)
				if x >= uint64(len(pos)) {
					continue
				}
				if k = int(pos[x]); k >= len(right.domains) || right.domains[k] != a1.Object2 {
					continue
				}
			} else {
				j, found := slices.BinarySearch(right.domains[k:], a1.Object2)
				if k += j; !found {
					continue
				}
			}
			for _, a2 := range right.assocs[right.offs[k]:right.offs[k+1]] {
				derived = append(derived, indexTarget{a2.Object2, combine(a1.Evidence, a2.Evidence)})
			}
			runs++
		}
		if len(derived) == 0 {
			continue
		}
		if runs > 1 {
			slices.SortFunc(derived, func(a, b indexTarget) int { return cmp.Compare(a.id, b.id) })
		}
		out.domains = append(out.domains, id)
		out.offs = append(out.offs, int32(len(out.assocs)))
		for i, t := range derived {
			if i > 0 && t.id == derived[i-1].id {
				if last := &out.assocs[len(out.assocs)-1]; stronger(t.evidence, last.Evidence) {
					last.Evidence = t.evidence
				}
				continue
			}
			out.assocs = append(out.assocs, gam.Assoc{Object1: id, Object2: t.id, Evidence: t.evidence})
		}
	}
	out.offs = append(out.offs, int32(len(out.assocs)))
	*dst, s.derived = out, derived
}

// MapPath loads the mappings along a source path and composes them into a
// single mapping from path[0] to path[len-1], sorted by (Object1, Object2)
// like ComposePath's result. A path of length 2 reduces to Map.
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
