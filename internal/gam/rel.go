package gam

import (
	"fmt"
	"maps"
	"sort"
	"strings"

	"genmapper/internal/sqldb"
)

// EnsureSourceRel returns the mapping (s1, s2, typ), creating it when
// absent, as a batch of its own (see Batch.EnsureSourceRel).
func (r *Repo) EnsureSourceRel(s1, s2 SourceID, typ RelType) (SourceRelID, bool, error) {
	return atomic2(r, func(b *Batch) (SourceRelID, bool, error) { return b.EnsureSourceRel(s1, s2, typ) })
}

func rowToSourceRel(row []sqldb.Value) *SourceRel {
	return &SourceRel{
		ID:      SourceRelID(row[0].(int64)),
		Source1: SourceID(row[1].(int64)),
		Source2: SourceID(row[2].(int64)),
		Type:    RelType(row[3].(string)),
	}
}

// SourceRelByID returns the mapping row, or nil.
func (r *Repo) SourceRelByID(id SourceRelID) (*SourceRel, error) {
	var rel *SourceRel
	err := seekEach(r.db, "source_rel", colID, int64(id), func(_ int, row []sqldb.Value) error {
		rel = rowToSourceRel(row)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rel, nil
}

// SourceRels returns all mappings ordered by ID.
func (r *Repo) SourceRels() ([]*SourceRel, error) {
	var out []*SourceRel
	err := r.db.QueryEach(sqlSelectSourceRels+" ORDER BY source_rel_id", func(row []sqldb.Value) error {
		out = append(out, rowToSourceRel(row))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// FindMapping locates a mapping between two sources, searching both
// directions. The second return value reports whether the found mapping is
// reversed (stored as s2->s1). Annotation and derived mappings are
// preferred over structural ones; among candidates, Fact beats Similarity
// beats Composed. The returned *SourceRel is the catalog's own, shared by
// every caller: read it, never write to it.
func (r *Repo) FindMapping(s1, s2 SourceID) (*SourceRel, bool, error) {
	rels := r.cat.Load().rels
	for _, typ := range mappingPrefs {
		if rel, ok := rels[relKey{s1: s1, s2: s2, typ: typ}]; ok {
			return rel, false, nil
		}
		if rel, ok := rels[relKey{s1: s2, s2: s1, typ: typ}]; ok {
			return rel, true, nil
		}
	}
	return nil, false, nil
}

// mappingPrefs is FindMapping's order of preference among mapping types.
var mappingPrefs = []RelType{RelFact, RelSimilarity, RelComposed, RelSubsumed, RelIsA, RelContains}

// FindIsARel returns the intra-source IS_A mapping of a source, or 0 when
// the source has no taxonomy structure. The boolean reports presence.
func (r *Repo) FindIsARel(src SourceID) (SourceRelID, bool, error) {
	return r.FindRel(src, src, RelIsA)
}

// FindRel returns the mapping (s1, s2, typ) exactly as stored, or 0.
func (r *Repo) FindRel(s1, s2 SourceID, typ RelType) (SourceRelID, bool, error) {
	if rel, ok := r.cat.Load().rels[relKey{s1: s1, s2: s2, typ: typ}]; ok {
		return rel.ID, true, nil
	}
	return 0, false, nil
}

// ---------------------------------------------------------------------------
// Associations (OBJECT_REL)

// AddAssociations bulk-inserts associations under a mapping, as a batch of
// its own (see Batch.AddAssociations).
func (r *Repo) AddAssociations(rel SourceRelID, assocs []Assoc, dedup bool) (int, error) {
	return atomic1(r, func(b *Batch) (int, error) { return b.AddAssociations(rel, assocs, dedup) })
}

// assocOf reads an association from a stored OBJECT_REL row.
func assocOf(row []sqldb.Value) Assoc {
	a := Assoc{Object1: ObjectID(row[2].(int64)), Object2: ObjectID(row[3].(int64))}
	if v, ok := row[4].(float64); ok {
		a.Evidence = v
	}
	return a
}

// associationsEach streams every association of a mapping through fn in
// storage order.
func associationsEach(q querier, rel SourceRelID, fn func(Assoc) error) error {
	return seekEach(q, "object_rel", colAssocRel, int64(rel), func(_ int, row []sqldb.Value) error {
		return fn(assocOf(row))
	})
}

// seekAssocs reads the associations of rels at one snapshot, each
// mapping's in storage order into a slice sized by its index postings;
// a mapping without associations gets nil.
func seekAssocs(q querier, rels []SourceRelID) ([][]Assoc, error) {
	keys := make([]sqldb.Value, len(rels))
	for i, rel := range rels {
		keys[i] = int64(rel)
	}
	out := make([][]Assoc, len(rels))
	err := q.Seek("object_rel", colAssocRel, keys, func(k, n int, row []sqldb.Value) error {
		if out[k] == nil {
			out[k] = make([]Assoc, 0, n)
		}
		out[k] = append(out[k], assocOf(row))
		return nil
	})
	return out, err
}

// collectAssociations materializes associationsEach (never nil).
func collectAssociations(q querier, rel SourceRelID) ([]Assoc, error) {
	out, err := seekAssocs(q, []SourceRelID{rel})
	if err != nil {
		return nil, err
	}
	if out[0] == nil {
		return []Assoc{}, nil
	}
	return out[0], nil
}

// AssociationsEach streams every association of a mapping through fn in
// storage order, without materializing the association list. The rows are
// one consistent snapshot; fn must not write to the repository or issue
// further queries.
func (r *Repo) AssociationsEach(rel SourceRelID, fn func(Assoc) error) error {
	return associationsEach(r.db, rel, fn)
}

// Associations returns every association of a mapping.
func (r *Repo) Associations(rel SourceRelID) ([]Assoc, error) {
	return collectAssociations(r.db, rel)
}

// AssociationsBatch fetches the associations of several mappings at one
// snapshot, keyed by mapping ID. Mapping IDs without associations map to
// an empty (nil) slice. Duplicate IDs in rels are fetched once.
func (r *Repo) AssociationsBatch(rels []SourceRelID) (map[SourceRelID][]Assoc, error) {
	out := make(map[SourceRelID][]Assoc, len(rels))
	uniq := make([]SourceRelID, 0, len(rels))
	for _, rel := range rels {
		if _, dup := out[rel]; !dup {
			out[rel] = nil
			uniq = append(uniq, rel)
		}
	}
	lists, err := seekAssocs(r.db, uniq)
	if err != nil {
		return nil, fmt.Errorf("gam: batch associations: %w", err)
	}
	for i, rel := range uniq {
		out[rel] = lists[i]
	}
	return out, nil
}

// AssociationCount returns the number of associations under a mapping
// (all mappings when rel is 0, read from the Stats counters).
func (r *Repo) AssociationCount(rel SourceRelID) (int64, error) {
	if rel == 0 {
		return r.cat.Load().nAssocs, nil
	}
	return seekCount(r.db, "object_rel", colAssocRel, int64(rel))
}

// DeleteMapping removes a mapping and its associations (used to refresh
// materialized derived mappings), as a batch of its own: both deletes
// happen or neither does.
func (r *Repo) DeleteMapping(rel SourceRelID) error {
	return r.Atomic(func(b *Batch) error { return b.DeleteMapping(rel) })
}

// ReplaceMapping atomically replaces the mapping (s1, s2, typ) and all its
// associations with the given association set, creating the mapping when
// absent. Delete, re-create and insert are one batch: on any failure it
// rolls back and the previous mapping (ID and associations) survives
// intact. It returns the mapping ID now holding the associations.
func (r *Repo) ReplaceMapping(s1, s2 SourceID, typ RelType, assocs []Assoc) (SourceRelID, error) {
	return atomic1(r, func(b *Batch) (SourceRelID, error) { return b.ReplaceMapping(s1, s2, typ, assocs) })
}

// Stats summarizes database content the way the paper reports its
// deployment figures (§5: "approx. 2 million objects of over 60 data
// sources, and 5 million object associations organized in over 500
// different mappings").
type Stats struct {
	Sources      int64
	Objects      int64
	Mappings     int64
	Associations int64
	ByType       map[RelType]int64
}

// Stats returns the summary counters without running SQL: they are kept in
// the catalog, set by Open and Reload and moved by each committed batch in
// the catalog that publishes its cache overlay, so Stats shows committed
// states only, never half a batch. ByType is a fresh map of the types with
// associations. Rows written around gam (DB()) are not counted until Reload.
func (r *Repo) Stats() (*Stats, error) {
	c := r.cat.Load()
	return &Stats{
		Sources:      int64(len(c.sourcesByID)),
		Objects:      c.nObjects,
		Mappings:     int64(len(c.rels)),
		Associations: c.nAssocs,
		ByType:       maps.Clone(c.byType),
	}, nil
}

// countStats computes the summary counters with SQL: the starting point of
// loadCaches, and the oracle the maintained counters are tested against.
func countStats(q querier) (*Stats, error) {
	st := &Stats{ByType: make(map[RelType]int64)}
	for _, c := range []struct {
		n   *int64
		sql string
	}{
		{&st.Sources, sqlCountSources},
		{&st.Objects, sqlCountObjects},
		{&st.Mappings, sqlCountSourceRels},
		{&st.Associations, sqlCountAssociations},
	} {
		if err := q.QueryEach(c.sql, func(row []sqldb.Value) error {
			*c.n = row[0].(int64)
			return nil
		}); err != nil {
			return nil, err
		}
	}
	err := q.QueryEach(sqlCountAssocsByType, func(row []sqldb.Value) error {
		st.ByType[RelType(row[0].(string))] = row[1].(int64)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return st, nil
}

// String renders the stats in a compact single line.
func (s *Stats) String() string {
	types := make([]string, 0, len(s.ByType))
	for t := range s.ByType {
		types = append(types, string(t))
	}
	sort.Strings(types)
	var sb strings.Builder
	fmt.Fprintf(&sb, "sources=%d objects=%d mappings=%d associations=%d",
		s.Sources, s.Objects, s.Mappings, s.Associations)
	for _, t := range types {
		fmt.Fprintf(&sb, " %s=%d", t, s.ByType[RelType(t)])
	}
	return sb.String()
}
