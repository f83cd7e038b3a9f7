package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// smokeConfig is the smallest run that still exercises every code path:
// the whole suite at this size takes a few seconds.
func smokeConfig(t *testing.T) config {
	return config{seed: 1, seconds: 0.5, scale: 0.002, sets: 1, out: t.TempDir()}
}

// TestRequestListsAreAFunctionOfTheSeed: the same (seed, scale, workload)
// gives a byte-identical request list, another seed a different one.
func TestRequestListsAreAFunctionOfTheSeed(t *testing.T) {
	for _, wl := range []string{wlViewWarm, wlExportCold} {
		list := func(seed int64) []byte {
			cfg := smokeConfig(t)
			cfg.seed = seed
			e, err := setUp(cfg, wl)
			if err != nil {
				t.Fatalf("%s seed %d: %v", wl, seed, err)
			}
			defer e.close()
			return e.plan.encode()
		}
		a, again, b := list(1), list(1), list(2)
		if len(a) == 0 {
			t.Fatalf("%s: empty request list", wl)
		}
		if !bytes.Equal(a, again) {
			t.Errorf("%s: two set-ups with seed 1 gave different request lists", wl)
		}
		if bytes.Equal(a, b) {
			t.Errorf("%s: seeds 1 and 2 gave the same request list", wl)
		}
	}
}

// TestSuiteSmoke runs all four workloads untraced and traced, requires every
// correctness check to pass, and requires the workload and metric names of
// the output to be exactly those BENCHMARK.json declares.
func TestSuiteSmoke(t *testing.T) {
	var bf benchmarkFile
	if err := readJSON(filepath.Join("..", "..", "BENCHMARK.json"), &bf); err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, w := range bf.Workloads {
		declared = append(declared, w.Name)
	}
	if got, want := sorted(declared), sorted(workloadNames); !equal(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", got, want)
	}
	names := func(specs []metricSpec) []string {
		var out []string
		for _, m := range specs {
			out = append(out, m.Name)
		}
		return sorted(out)
	}
	out := t.TempDir()
	for _, wl := range workloadNames {
		for trace, want := range [][]string{names(bf.EndToEnd), names(bf.PerLayer)} {
			cfg := smokeConfig(t)
			cfg.workload, cfg.trace, cfg.out = wl, trace, out
			res, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%d: %v", wl, trace, err)
			}
			if !res.Correct || res.Attempted < 1 {
				t.Errorf("%s trace=%d: %d of %d operations failed: %v", wl, trace, res.Failed, res.Attempted, res.reasons)
			}
			if got := sortedKeys(res.Metrics); !equal(got, want) {
				t.Errorf("%s trace=%d: metrics %v, BENCHMARK.json declares %v", wl, trace, got, want)
			}
			if trace == 0 {
				for name, m := range res.Metrics {
					if !(m.Value > 0) {
						t.Errorf("%s: end-to-end metric %s is %v, must be positive", wl, name, m.Value)
					}
				}
				continue
			}
			var spans []span
			if err := readJSON(filepath.Join(out, "trace-"+wl+".json"), &spans); err != nil || len(spans) == 0 {
				t.Errorf("%s: span file: %d spans, %v", wl, len(spans), err)
			}
			for _, s := range spans {
				if s.Parent < 0 || s.Parent > len(spans) || s.Parent == s.ID || s.EndNS < s.StartNS {
					t.Errorf("%s: malformed span %+v", wl, s)
					break
				}
			}
		}
	}
}

// TestCompareAppliesTheBounds: a loss beyond a metric's bound fails the
// comparison, a loss inside it and any gain pass.
func TestCompareAppliesTheBounds(t *testing.T) {
	bench := filepath.Join("..", "..", "BENCHMARK.json")
	var bf benchmarkFile
	if err := readJSON(bench, &bf); err != nil {
		t.Fatal(err)
	}
	write := func(name string, scale float64) string {
		sf := suiteFile{Seed: 1, Scale: 0.01, Seconds: 1, Workloads: map[string]map[string]metric{}}
		for _, wl := range workloadNames {
			sf.Workloads[wl] = map[string]metric{"error_rate": {0, "ratio"}}
			for _, m := range bf.EndToEnd {
				v := 100.0
				if m.Better == "higher" {
					v /= scale
				} else {
					v *= scale
				}
				sf.Workloads[wl][m.Name] = metric{v, m.Unit}
			}
		}
		data, err := json.Marshal(sf)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, slightlyWorse, muchWorse := write("a.json", 1), write("b.json", 1.02), write("c.json", 1.5)
	if err := compareFiles(bench, []string{base, slightlyWorse}); err != nil {
		t.Errorf("a 2%% loss must pass: %v", err)
	}
	if err := compareFiles(bench, []string{muchWorse, base}); err != nil {
		t.Errorf("a gain must pass: %v", err)
	}
	if err := compareFiles(bench, []string{base, muchWorse}); err == nil {
		t.Error("a 50% loss on every metric passed the comparison")
	}
}

func sorted(v []string) []string {
	out := append([]string(nil), v...)
	sort.Strings(out)
	return out
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
