// Package gam implements the Generic Annotation Model (GAM), the core data
// model of the GenMapper system (paper §3, Figure 4).
//
// GAM represents arbitrary annotation data from heterogeneous
// molecular-biological sources in four relations:
//
//	SOURCE      — data sources (public collections, ontologies, schemas)
//	OBJECT      — source objects: accession plus optional text/number
//	SOURCE_REL  — typed relationships between sources ("mappings")
//	OBJECT_REL  — relationships between objects ("associations"),
//	              optionally weighted with an evidence value
//
// The Repo type wraps an embedded relational database (internal/sqldb,
// standing in for the original system's MySQL backend) with the GAM schema
// and the lookup/ingestion operations the import pipeline and the operator
// layer need.
//
// # Writes: Atomic and Batch
//
// gam has exactly one write path. Repo.Atomic opens one database
// transaction, hands the caller a Batch — the write surface (EnsureSource,
// EnsureObjects, FillMissingObjectInfo, EnsureSourceRel, AddAssociations,
// DeleteMapping, ReplaceMapping) plus the reads a writer needs
// (LookupObject(s), Associations, FindIsARel), all bound to that transaction
// and therefore seeing its own writes, which no reader outside the batch
// sees before the commit — and
// commits when the caller returns nil: one commit, on a durable database
// one log record and one fsync, however many statements ran. Any error
// rolls everything back, AUTOINCREMENT counters included. importer.Import
// is one such batch per dataset; the write methods on Repo (EnsureSource,
// AddAssociations, ReplaceMapping, …) are batches of one call.
//
// Bulk writes (EnsureObjects, AddAssociations, ReplaceMapping) go out as
// multi-row INSERTs of a fixed ladder of sizes: full 200-row chunks, then
// a tail decomposed over 128, 64, … 1 rows. A table therefore has nine
// INSERT texts, all prepared by Open, and the engine runs each as one
// statement — checked whole, stored under consecutive IDs — so an import
// parses nothing and its AUTOINCREMENT IDs stay aligned with its input.
//
// The Repo's lookup caches are transactional with it. A batch records the
// sources, accession → ID entries and mapping keys it creates (or deletes)
// in a private overlay that shadows the shared caches for the batch's own
// lookups; the overlay is published into the shared caches after a
// successful commit and thrown away on rollback, so no reader can ever
// resolve an accession to a row that was rolled back. Generation() moves
// once per committed batch that touched mappings, after the commit.
//
// The deployment counts behind Repo.Stats and the source list behind
// Repo.Sources are caches of the same kind: no SQL runs for them after
// Open. A batch carries its row-count deltas in its overlay; they are
// published together with the commit that produced them and dropped on
// rollback. gam owns every write to its schema — rows written around it
// through Repo.DB are not counted (nor cached) until Reload.
//
// Batches are serialised on the database's writer lock, which a batch's
// transaction holds from Begin. The cache mutex is held only around single
// cache accesses and around a batch's publish step — the commit's rows and
// the cache overlay must appear in one step, or a reader could resolve a
// mapping key to an ID whose rows the commit has just deleted — and never
// across the fsync, so lookups on cached sources and FindMapping wait for
// neither an import nor its fsync.
package gam

import "fmt"

// Content classifies a source by what its objects describe (paper §3:
// "gene-oriented, protein-oriented and other sources").
type Content string

// Source content classes.
const (
	ContentGene    Content = "gene"
	ContentProtein Content = "protein"
	ContentOther   Content = "other"
)

// ParseContent validates a content string.
func ParseContent(s string) (Content, error) {
	switch Content(s) {
	case ContentGene, ContentProtein, ContentOther:
		return Content(s), nil
	case "":
		return ContentOther, nil
	}
	return "", fmt.Errorf("gam: unknown content class %q", s)
}

// Structure distinguishes flat object collections from network sources
// (taxonomies, database schemas) whose objects are organized in a
// structure.
type Structure string

// Source structure classes.
const (
	StructureFlat    Structure = "flat"
	StructureNetwork Structure = "network"
)

// ParseStructure validates a structure string.
func ParseStructure(s string) (Structure, error) {
	switch Structure(s) {
	case StructureFlat, StructureNetwork:
		return Structure(s), nil
	case "":
		return StructureFlat, nil
	}
	return "", fmt.Errorf("gam: unknown structure class %q", s)
}

// RelType is the semantic type of a source-level relationship.
type RelType string

// Relationship types (paper §3). Fact and Similarity are annotation
// relationships imported from external sources; Contains and IsA are
// structural; Composed and Subsumed are derived by GenMapper itself.
const (
	RelFact       RelType = "fact"
	RelSimilarity RelType = "similarity"
	RelContains   RelType = "contains"
	RelIsA        RelType = "is_a"
	RelComposed   RelType = "composed"
	RelSubsumed   RelType = "subsumed"
)

// ParseRelType validates a relationship type string.
func ParseRelType(s string) (RelType, error) {
	switch RelType(s) {
	case RelFact, RelSimilarity, RelContains, RelIsA, RelComposed, RelSubsumed:
		return RelType(s), nil
	}
	return "", fmt.Errorf("gam: unknown relationship type %q", s)
}

// IsDerived reports whether the type is computed by GenMapper rather than
// imported from an external source.
func (t RelType) IsDerived() bool { return t == RelComposed || t == RelSubsumed }

// IsStructural reports whether the type describes intra-source structure.
func (t RelType) IsStructural() bool { return t == RelContains || t == RelIsA }

// SourceID identifies a row of SOURCE.
type SourceID int64

// ObjectID identifies a row of OBJECT.
type ObjectID int64

// SourceRelID identifies a row of SOURCE_REL (a mapping).
type SourceRelID int64

// Source is one row of the SOURCE relation.
type Source struct {
	ID        SourceID
	Name      string
	Content   Content
	Structure Structure
	Release   string
	Date      string
}

// Object is one row of the OBJECT relation. Text and Number are optional
// (paper §3: accession "often accompanied by a textual component";
// "alternatively, an object may also have a numeric representation").
type Object struct {
	ID        ObjectID
	Source    SourceID
	Accession string
	Text      string
	HasNumber bool
	Number    float64
}

// SourceRel is one row of SOURCE_REL: a typed mapping between two sources
// (or within one source, for structural relationships).
type SourceRel struct {
	ID      SourceRelID
	Source1 SourceID
	Source2 SourceID
	Type    RelType
}

// Assoc is one row of OBJECT_REL: an association between two objects under
// a specific mapping, with an optional evidence value (0 means unset).
type Assoc struct {
	Object1  ObjectID
	Object2  ObjectID
	Evidence float64
}
