// Package lint registers the gmlint analyzers. See the individual analyzer
// packages for what each one enforces, and README.md ("Static analysis")
// for how to run and suppress them.
package lint

import (
	"genmapper/internal/lint/analysis"
	"genmapper/internal/lint/atomicgen"
	"genmapper/internal/lint/errdrop"
	"genmapper/internal/lint/lockorder"
	"genmapper/internal/lint/mvccepoch"
	"genmapper/internal/lint/walack"
)

// All returns every gmlint analyzer in a stable order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		atomicgen.Analyzer,
		errdrop.Analyzer,
		lockorder.Analyzer,
		mvccepoch.Analyzer,
		walack.Analyzer,
	}
}
