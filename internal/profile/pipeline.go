package profile

import (
	"fmt"

	"genmapper/internal/gam"
	"genmapper/internal/ops"
	"genmapper/internal/taxonomy"
)

// Pipeline wires the §5.2 analysis against a GAM repository: probe sets of
// a microarray chip are mapped to the gene representation (UniGene), GO
// annotations are derived through LocusLink by composing mappings, and
// per-term statistics are rolled up over the GO IS_A hierarchy.
type Pipeline struct {
	repo *gam.Repo

	Chip      string // NetAffx chip source name (probe sets)
	GeneRep   string // generally accepted gene representation (Unigene)
	Annotator string // source providing GO annotations (LocusLink)
	Ontology  string // taxonomy source (GO)
}

// NewPipeline validates that all participating sources exist.
func NewPipeline(repo *gam.Repo, chip, geneRep, annotator, ontology string) (*Pipeline, error) {
	for _, name := range []string{chip, geneRep, annotator, ontology} {
		if repo.SourceByName(name) == nil {
			return nil, fmt.Errorf("profile: source %q is not imported", name)
		}
	}
	return &Pipeline{repo: repo, Chip: chip, GeneRep: geneRep, Annotator: annotator, Ontology: ontology}, nil
}

// ProbeAnnotations returns, per probe accession, the directly annotated GO
// term accessions, derived via the Chip -> GeneRep -> Annotator -> Ontology
// mapping path ("the proprietary genes of Affymetrix microarrays were
// mapped to the generally accepted gene representation UniGene, for which
// GO annotations were in turn derived from the mappings provided by
// LocusLink").
func (p *Pipeline) ProbeAnnotations() (map[string][]string, error) {
	chip := p.repo.SourceByName(p.Chip)
	geneRep := p.repo.SourceByName(p.GeneRep)
	annotator := p.repo.SourceByName(p.Annotator)
	ontology := p.repo.SourceByName(p.Ontology)

	m, err := ops.MapPath(p.repo, []gam.SourceID{chip.ID, geneRep.ID, annotator.ID, ontology.ID})
	if err != nil {
		return nil, fmt.Errorf("profile: derive probe annotations: %w", err)
	}
	return p.accessionPairs(m)
}

// accessionPairs renders a mapping's associations as accession pairs
// grouped by domain accession.
func (p *Pipeline) accessionPairs(m *ops.Mapping) (map[string][]string, error) {
	resolve := func(id gam.ObjectID) (string, error) {
		obj, err := p.repo.Object(id)
		if err != nil {
			return "", err
		}
		if obj == nil {
			return "", fmt.Errorf("profile: dangling object %d", id)
		}
		return obj.Accession, nil
	}
	out := make(map[string][]string)
	for _, a := range m.Assocs {
		from, err := resolve(a.Object1)
		if err != nil {
			return nil, err
		}
		to, err := resolve(a.Object2)
		if err != nil {
			return nil, err
		}
		out[from] = append(out[from], to)
	}
	return out, nil
}

// Run executes the full profiling analysis for a study: per-term detected
// and differential gene counts rolled up over the ontology's IS_A
// hierarchy, followed by hypergeometric enrichment over the entire
// taxonomy.
func (p *Pipeline) Run(study *Study) (*Enrichment, error) {
	annotations, err := p.ProbeAnnotations()
	if err != nil {
		return nil, err
	}
	ontology := p.repo.SourceByName(p.Ontology)

	// Build the IS_A DAG of the ontology.
	isaRel, hasIsA, err := p.repo.FindIsARel(ontology.ID)
	if err != nil {
		return nil, err
	}
	var dag *taxonomy.DAG
	if hasIsA {
		assocs, err := p.repo.Associations(isaRel)
		if err != nil {
			return nil, err
		}
		edges := make([]taxonomy.Edge, len(assocs))
		for i, a := range assocs {
			edges[i] = taxonomy.Edge{Child: int64(a.Object1), Parent: int64(a.Object2)}
		}
		dag = taxonomy.NewDAG(edges)
	} else {
		dag = taxonomy.NewDAG(nil)
	}
	objs, err := p.repo.ObjectsBySource(ontology.ID)
	if err != nil {
		return nil, err
	}
	termIDs := make(map[string]int64, len(objs))
	termNames := make(map[string]string, len(objs))
	idToTerm := make(map[int64]string, len(objs))
	for _, o := range objs {
		dag.AddNode(int64(o.ID))
		termIDs[o.Accession] = int64(o.ID)
		idToTerm[int64(o.ID)] = o.Accession
		termNames[o.Accession] = o.Text
	}

	// Per-term direct probe annotations, split by study group. Probe
	// identity serves as gene identity (objects are distinct probe sets).
	detAnn := make(map[int64][]int64)
	diffAnn := make(map[int64][]int64)
	probeNum := make(map[string]int64)
	next := int64(1)
	for probe, terms := range annotations {
		id, ok := probeNum[probe]
		if !ok {
			id = next
			next++
			probeNum[probe] = id
		}
		for _, term := range terms {
			tid, ok := termIDs[term]
			if !ok {
				continue
			}
			if study.Detected[probe] {
				detAnn[tid] = append(detAnn[tid], id)
			}
			if study.Differential[probe] {
				diffAnn[tid] = append(diffAnn[tid], id)
			}
		}
	}

	// Roll up over the hierarchy: a gene annotated to a term counts for
	// every ancestor term (equivalently, each term aggregates its Subsumed
	// terms).
	detCounts, err := dag.RollupCounts(detAnn)
	if err != nil {
		return nil, fmt.Errorf("profile: rollup: %w", err)
	}
	diffCounts, err := dag.RollupCounts(diffAnn)
	if err != nil {
		return nil, fmt.Errorf("profile: rollup: %w", err)
	}

	termDetected := make(map[string]int, len(detCounts))
	termDifferential := make(map[string]int, len(diffCounts))
	for tid, c := range detCounts {
		if term, ok := idToTerm[tid]; ok && c > 0 {
			termDetected[term] = c
		}
	}
	for tid, c := range diffCounts {
		if term, ok := idToTerm[tid]; ok && c > 0 {
			termDifferential[term] = c
		}
	}

	_, detected, differential := study.Counts()
	return Analyze(termDetected, termDifferential, termNames, detected, differential), nil
}

// ProbeAccessions lists the chip's probe accessions (study input).
func (p *Pipeline) ProbeAccessions() ([]string, error) {
	chip := p.repo.SourceByName(p.Chip)
	objs, err := p.repo.ObjectsBySource(chip.ID)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(objs))
	for i, o := range objs {
		out[i] = o.Accession
	}
	return out, nil
}

// TermAccessions lists the ontology's term accessions.
func (p *Pipeline) TermAccessions() ([]string, error) {
	ont := p.repo.SourceByName(p.Ontology)
	objs, err := p.repo.ObjectsBySource(ont.ID)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(objs))
	for i, o := range objs {
		out[i] = o.Accession
	}
	return out, nil
}
