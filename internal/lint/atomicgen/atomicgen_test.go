package atomicgen_test

import (
	"testing"

	"genmapper/internal/lint/analysistest"
	"genmapper/internal/lint/atomicgen"
)

func TestAtomicgen(t *testing.T) {
	analysistest.Run(t, analysistest.Testdata(), atomicgen.Analyzer,
		"genmapper/internal/sqldb", "counter", "a")
}
