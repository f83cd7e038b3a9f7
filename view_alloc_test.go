package genmapper

import (
	"runtime"
	"testing"
)

// TestGenerateViewWarmAllocs bounds what a warm System.GenerateView
// allocates on one fixed universe shape. The executor hands its cached
// mappings out shared and GenerateView joins through the index they keep,
// so a warm view allocates its row arrays and little else; a per-hit
// clone or a per-call re-index shows up here as bytes and allocations.
// The counts do not depend on the machine.
func TestGenerateViewWarmAllocs(t *testing.T) {
	sys, err := New()
	if err != nil {
		t.Fatal(err)
	}
	u := NewUniverse(GenConfig{Seed: 1, Scale: 0.002})
	if _, err := sys.ImportUniverse(u, ImportOptions{DeriveSubsumed: true}, nil); err != nil {
		t.Fatal(err)
	}
	accs := make([]string, 60)
	for i := range accs {
		accs[i] = u.Accession("LocusLink", i)
	}
	q := Query{Source: "LocusLink", Accessions: accs, Targets: []Target{
		{Source: "Hugo"}, {Source: "GO", Negate: true, MinEvidence: 0.5},
		{Source: "GO", Via: []string{"LocusLink", "Unigene", "NetAffx-HG-U133A", "GO"}},
	}}
	rows := 0
	run := func() {
		v, err := sys.GenerateView(q)
		if err != nil {
			t.Fatal(err)
		}
		rows = len(v.Rows)
	}
	run() // primes the executor and the shared indexes
	if rows == 0 {
		t.Fatal("the shape produced no rows")
	}
	allocs := testing.AllocsPerRun(20, run)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const n = 20
	for i := 0; i < n; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / n
	// Measured: 23 allocations and 9 120 bytes per view (28 and 8 632
	// while the join's picks grew from empty by doubling, 30 while the
	// executor built a string key per edge lookup, 43 and 19 240 while the
	// accessions resolved into two maps and the view was joined as row
	// headers, 49 while the executor built its cache keys with fmt; 686 and
	// 135 467 while every hit was cloned and the restricted copies
	// re-indexed). The bounds leave ~25% headroom.
	const maxAllocs, maxBytes = 29, 11 << 10
	if allocs > maxAllocs || bytes > maxBytes {
		t.Fatalf("warm GenerateView: %.0f allocs, %d bytes per view; want <= %d, <= %d",
			allocs, bytes, maxAllocs, maxBytes)
	}
}
