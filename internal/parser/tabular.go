package parser

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"genmapper/internal/eav"
)

// ParseTabular parses the generic cross-reference table format used for
// UniGene, Hugo, OMIM, NetAffx probe-set annotations, SwissProt, InterPro
// and similar tab-delimited dumps:
//
//	#accession	name	xrefs
//	Hs.28914	APRT	LocusLink:353;GO:GO:0009116|0.92
//
// Column 1 is the source accession, column 2 the object's descriptive
// text, column 3 a semicolon-separated list of Target:accession pairs,
// each optionally suffixed with |evidence for computed (Similarity)
// associations. The target accession may itself contain ':' (e.g. GO IDs);
// only the first ':' separates the target name.
func ParseTabular(r io.Reader, info eav.SourceInfo) (*eav.Dataset, error) {
	d := eav.NewDataset(info)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		cols := strings.Split(line, "\t")
		if len(cols) < 2 {
			return nil, fmt.Errorf("parser: tabular line %d: expected at least 2 columns", lineNo)
		}
		acc := strings.TrimSpace(cols[0])
		if acc == "" {
			return nil, fmt.Errorf("parser: tabular line %d: empty accession", lineNo)
		}
		if name := strings.TrimSpace(cols[1]); name != "" {
			d.Add(acc, eav.TargetName, "", name)
		}
		if len(cols) < 3 || strings.TrimSpace(cols[2]) == "" {
			continue
		}
		for _, xref := range strings.Split(cols[2], ";") {
			xref = strings.TrimSpace(xref)
			if xref == "" {
				continue
			}
			target, rest, ok := strings.Cut(xref, ":")
			if !ok || target == "" || rest == "" {
				return nil, fmt.Errorf("parser: tabular line %d: malformed xref %q", lineNo, xref)
			}
			refAcc, evStr, hasEv := strings.Cut(rest, "|")
			refAcc = strings.TrimSpace(refAcc)
			if refAcc == "" {
				return nil, fmt.Errorf("parser: tabular line %d: xref %q without accession", lineNo, xref)
			}
			if !hasEv {
				d.Add(acc, target, refAcc, "")
				continue
			}
			ev, err := strconv.ParseFloat(strings.TrimSpace(evStr), 64)
			if err != nil {
				return nil, fmt.Errorf("parser: tabular line %d: bad evidence %q", lineNo, evStr)
			}
			if !(ev >= 0 && ev <= 1) { // also rejects NaN
				return nil, fmt.Errorf("parser: tabular line %d: evidence %g out of [0,1]", lineNo, ev)
			}
			d.AddEvidence(acc, target, refAcc, "", ev)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("parser: tabular: %w", err)
	}
	return d, nil
}
