// Package importer implements the Import step of GenMapper's two-phase
// integration pipeline (paper §4.1): the generic EAV-to-GAM transformation
// and migration module that is "implemented once" and works for every
// source.
//
// Import consumes an eav.Dataset (the output of any parser), performs
// duplicate elimination at the source level (by name and audit info) and
// at the object level (by accession), relates new associations to objects
// that already exist in the database, and materializes structural
// relationships (IS_A, Contains) plus, optionally, the derived Subsumed
// mapping.
//
// One Import call is one gam batch: one database transaction, on a durable
// database one log record behind one fsync. A dataset that fails anywhere
// (a malformed NUMBER value, a cyclic IS_A graph, a write conflict under
// MVCC) and an import cut short by a crash leave nothing behind —
// no source, object, mapping, cache entry or burnt ID.
package importer

import (
	"fmt"
	"os"
	"strconv"
	"strings"

	"genmapper/internal/eav"
	"genmapper/internal/gam"
	"genmapper/internal/parser"
	"genmapper/internal/taxonomy"
)

// Options tunes an import run.
type Options struct {
	// DeriveSubsumed materializes the Subsumed mapping (transitive closure
	// of IS_A) after importing a network source.
	DeriveSubsumed bool
	// ContentHints assigns content classes to target sources created as
	// side effects (keyed by source name, case-insensitive).
	ContentHints map[string]gam.Content
}

// Stats reports what one import run did.
type Stats struct {
	Source          string
	SourceCreated   bool
	ObjectsNew      int
	ObjectsDup      int
	TargetObjects   int
	AssocsNew       int
	AssocsDup       int
	MappingsTouched int
	SubsumedAssocs  int
}

// String renders the stats in one line for CLI output.
func (s *Stats) String() string {
	return fmt.Sprintf("source=%s created=%v objects(new=%d dup=%d) targets=%d assocs(new=%d dup=%d) mappings=%d subsumed=%d",
		s.Source, s.SourceCreated, s.ObjectsNew, s.ObjectsDup, s.TargetObjects,
		s.AssocsNew, s.AssocsDup, s.MappingsTouched, s.SubsumedAssocs)
}

// Import runs the generic EAV-to-GAM transformation for one dataset,
// atomically: either all of it is committed or none of it.
func Import(repo *gam.Repo, d *eav.Dataset, opts Options) (*Stats, error) {
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("importer: %w", err)
	}
	st := &Stats{Source: d.Source.Name}
	err := repo.Atomic(func(b *gam.Batch) error { return importDataset(b, d, opts, st) })
	if err != nil {
		return nil, err
	}
	return st, nil
}

func importDataset(b *gam.Batch, d *eav.Dataset, opts Options, st *Stats) error {
	structure := d.Source.Structure
	if hasStructuralRecords(d) {
		structure = string(gam.StructureNetwork)
	}
	src, created, err := b.EnsureSource(gam.Source{
		Name:      d.Source.Name,
		Content:   gam.Content(d.Source.Content),
		Structure: gam.Structure(structure),
		Release:   d.Source.Release,
		Date:      d.Source.Date,
	})
	if err != nil {
		return fmt.Errorf("importer: %w", err)
	}
	st.SourceCreated = created

	if err := importOwnObjects(b, d, src, st); err != nil {
		return err
	}
	if err := importCrossReferences(b, d, src, opts, st); err != nil {
		return err
	}
	if err := importStructure(b, d, src, st); err != nil {
		return err
	}
	if opts.DeriveSubsumed {
		n, err := deriveSubsumed(b, src.ID)
		if err != nil {
			return err
		}
		st.SubsumedAssocs = n
		if n > 0 {
			st.MappingsTouched++
		}
	}
	return nil
}

// ImportFile parses a source file with the named format parser and imports
// the result.
func ImportFile(repo *gam.Repo, format, path string, info eav.SourceInfo, opts Options) (*Stats, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("importer: %w", err)
	}
	defer f.Close()
	d, err := parser.Parse(format, f, info)
	if err != nil {
		return nil, err
	}
	return Import(repo, d, opts)
}

func hasStructuralRecords(d *eav.Dataset) bool {
	for _, r := range d.Records {
		if r.Target == eav.TargetIsA || r.Target == eav.TargetContains {
			return true
		}
	}
	return false
}

// importOwnObjects creates the dataset's own objects, carrying NAME text
// and NUMBER values. Objects referenced by IS_A / CONTAINS records within
// the same source are created too.
func importOwnObjects(b *gam.Batch, d *eav.Dataset, src *gam.Source, st *Stats) error {
	type objInfo struct {
		text   string
		num    float64
		hasNum bool
	}
	infos := make(map[string]*objInfo)
	var order []string
	touch := func(acc string) *objInfo {
		if oi, ok := infos[acc]; ok {
			return oi
		}
		oi := &objInfo{}
		infos[acc] = oi
		order = append(order, acc)
		return oi
	}
	for _, r := range d.Records {
		oi := touch(r.Accession)
		switch r.Target {
		case eav.TargetName:
			if oi.text == "" {
				oi.text = r.Text
			}
		case eav.TargetNumber:
			n, err := strconv.ParseFloat(strings.TrimSpace(r.Text), 64)
			if err != nil {
				return fmt.Errorf("importer: object %s: bad NUMBER %q", r.Accession, r.Text)
			}
			oi.num, oi.hasNum = n, true
		case eav.TargetIsA, eav.TargetContains:
			touch(r.TargetAccession)
		}
	}
	specs := make([]gam.ObjectSpec, len(order))
	for i, acc := range order {
		oi := infos[acc]
		specs[i] = gam.ObjectSpec{Accession: acc, Text: oi.text, HasNumber: oi.hasNum, Number: oi.num}
	}
	_, createdN, err := b.EnsureObjects(src.ID, specs)
	if err != nil {
		return fmt.Errorf("importer: %w", err)
	}
	st.ObjectsNew = createdN
	st.ObjectsDup = len(specs) - createdN
	// Back-fill text/number on objects that earlier imports created as
	// bare cross-reference targets.
	if st.ObjectsDup > 0 {
		if _, err := b.FillMissingObjectInfo(src.ID, specs); err != nil {
			return fmt.Errorf("importer: back-fill object info: %w", err)
		}
	}
	return nil
}

// importCrossReferences creates target sources/objects and the Fact /
// Similarity mappings with their associations.
func importCrossReferences(b *gam.Batch, d *eav.Dataset, src *gam.Source, opts Options, st *Stats) error {
	// Group cross-reference records per target source, split into fact
	// (no evidence) and similarity (computed, with evidence).
	type pair struct {
		from, to string
		evidence float64
	}
	facts := make(map[string][]pair)
	sims := make(map[string][]pair)
	for _, r := range d.Records {
		if eav.IsPseudoTarget(r.Target) {
			continue
		}
		p := pair{from: r.Accession, to: r.TargetAccession, evidence: r.Evidence}
		if r.Evidence != 0 {
			sims[r.Target] = append(sims[r.Target], p)
		} else {
			facts[r.Target] = append(facts[r.Target], p)
		}
	}

	process := func(targetName string, pairs []pair, relType gam.RelType) error {
		content := gam.ContentOther
		if opts.ContentHints != nil {
			if c, ok := opts.ContentHints[strings.ToLower(targetName)]; ok {
				content = c
			}
		}
		tgt, _, err := b.EnsureSource(gam.Source{Name: targetName, Content: content})
		if err != nil {
			return err
		}
		// Create referenced target objects (they may predate this import,
		// in which case the new associations relate to the existing rows —
		// the "re-importing LocusLink only requires to relate the new
		// LocusLink objects with the existing GO terms" case).
		accs := make([]gam.ObjectSpec, len(pairs))
		for i, p := range pairs {
			accs[i] = gam.ObjectSpec{Accession: p.to}
		}
		tgtIDs, tgtNew, err := b.EnsureObjects(tgt.ID, accs)
		if err != nil {
			return err
		}
		st.TargetObjects += tgtNew

		srcIDs := make([]string, len(pairs))
		for i, p := range pairs {
			srcIDs[i] = p.from
		}
		fromIDs, err := b.LookupObjects(src.ID, srcIDs)
		if err != nil {
			return err
		}
		rel, _, err := b.EnsureSourceRel(src.ID, tgt.ID, relType)
		if err != nil {
			return err
		}
		assocs := make([]gam.Assoc, len(pairs))
		for i, p := range pairs {
			from := fromIDs[p.from]
			if from == 0 {
				return fmt.Errorf("importer: internal: source object %q missing", p.from)
			}
			assocs[i] = gam.Assoc{Object1: from, Object2: tgtIDs[i], Evidence: p.evidence}
		}
		inserted, err := b.AddAssociations(rel, assocs, true)
		if err != nil {
			return err
		}
		st.AssocsNew += inserted
		st.AssocsDup += len(assocs) - inserted
		st.MappingsTouched++
		return nil
	}

	for _, targetName := range d.Targets() {
		if pairs := facts[targetName]; len(pairs) > 0 {
			if err := process(targetName, pairs, gam.RelFact); err != nil {
				return fmt.Errorf("importer: target %s: %w", targetName, err)
			}
		}
		if pairs := sims[targetName]; len(pairs) > 0 {
			if err := process(targetName, pairs, gam.RelSimilarity); err != nil {
				return fmt.Errorf("importer: target %s: %w", targetName, err)
			}
		}
	}
	return nil
}

// importStructure materializes IS_A and Contains mappings within the
// source.
func importStructure(b *gam.Batch, d *eav.Dataset, src *gam.Source, st *Stats) error {
	var isa, contains []gam.Assoc
	for _, r := range d.Records {
		if r.Target != eav.TargetIsA && r.Target != eav.TargetContains {
			continue
		}
		from, err := b.LookupObject(src.ID, r.Accession)
		if err != nil {
			return err
		}
		to, err := b.LookupObject(src.ID, r.TargetAccession)
		if err != nil {
			return err
		}
		if from == 0 || to == 0 {
			return fmt.Errorf("importer: structural record %s -> %s references missing object", r.Accession, r.TargetAccession)
		}
		if r.Target == eav.TargetIsA {
			// Object1 = child, Object2 = parent.
			isa = append(isa, gam.Assoc{Object1: from, Object2: to})
		} else {
			// Object1 = partition, Object2 = member.
			contains = append(contains, gam.Assoc{Object1: from, Object2: to})
		}
	}
	add := func(assocs []gam.Assoc, typ gam.RelType) error {
		if len(assocs) == 0 {
			return nil
		}
		rel, _, err := b.EnsureSourceRel(src.ID, src.ID, typ)
		if err != nil {
			return err
		}
		inserted, err := b.AddAssociations(rel, assocs, true)
		if err != nil {
			return err
		}
		st.AssocsNew += inserted
		st.AssocsDup += len(assocs) - inserted
		st.MappingsTouched++
		return nil
	}
	if err := add(isa, gam.RelIsA); err != nil {
		return fmt.Errorf("importer: is_a: %w", err)
	}
	if err := add(contains, gam.RelContains); err != nil {
		return fmt.Errorf("importer: contains: %w", err)
	}
	return nil
}

// DeriveSubsumed materializes the Subsumed mapping of a source from its
// IS_A structure (paper §3: "Subsumed relationships are automatically
// derived from the IS_A structure of a source and contain the associations
// of a term in a taxonomy to all subsumed terms"). An existing Subsumed
// mapping is replaced, atomically: a failed derivation keeps the old one.
// It returns the number of subsumed associations.
func DeriveSubsumed(repo *gam.Repo, src gam.SourceID) (int, error) {
	var n int
	err := repo.Atomic(func(b *gam.Batch) (err error) {
		n, err = deriveSubsumed(b, src)
		return err
	})
	if err != nil {
		return 0, err
	}
	return n, nil
}

func deriveSubsumed(b *gam.Batch, src gam.SourceID) (int, error) {
	isaRel, ok := b.FindIsARel(src)
	if !ok {
		return 0, nil // flat source: nothing to derive
	}
	assocs, err := b.Associations(isaRel)
	if err != nil {
		return 0, err
	}
	edges := make([]taxonomy.Edge, len(assocs))
	for i, a := range assocs {
		edges[i] = taxonomy.Edge{Child: int64(a.Object1), Parent: int64(a.Object2)}
	}
	dag := taxonomy.NewDAG(edges)
	if err := dag.Validate(); err != nil {
		return 0, fmt.Errorf("importer: source %d: %w", src, err)
	}
	subsumed, err := dag.SubsumedEdges()
	if err != nil {
		return 0, err
	}
	out := make([]gam.Assoc, len(subsumed))
	for i, e := range subsumed {
		// Object1 = term, Object2 = subsumed (descendant) term.
		out[i] = gam.Assoc{Object1: gam.ObjectID(e.Parent), Object2: gam.ObjectID(e.Child)}
	}
	if _, err := b.ReplaceMapping(src, src, gam.RelSubsumed, out); err != nil {
		return 0, err
	}
	return len(out), nil
}
