package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// benchmarkFile is the root BENCHMARK.json: the contract every later
// performance claim is checked against.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareFiles prints the relative difference of every (metric, workload)
// pair between two suite result files, b against a, and fails when an
// end-to-end metric got worse by more than its bound in BENCHMARK.json or
// error_rate rose at all. Per-layer metrics are printed without a verdict.
func compareFiles(benchmark string, args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("--compare takes two suite result files, got %d arguments", len(args))
	}
	var bf benchmarkFile
	if err := readJSON(benchmark, &bf); err != nil {
		return fmt.Errorf("run --compare from the repository root: %w", err)
	}
	var a, b suiteFile
	if err := readJSON(args[0], &a); err != nil {
		return err
	}
	if err := readJSON(args[1], &b); err != nil {
		return err
	}
	if a.Scale != b.Scale || a.Seconds != b.Seconds {
		return fmt.Errorf("the sets were taken with different settings: scale %g/%g, seconds %g/%g", a.Scale, b.Scale, a.Seconds, b.Seconds)
	}
	worse := 0
	fmt.Printf("%-16s %-30s %14s %14s %9s %7s  %s\n", "workload", "metric", args[0], args[1], "change", "bound", "verdict")
	row := func(wl string, m metricSpec, gated bool) {
		va, okA := a.Workloads[wl][m.Name]
		vb, okB := b.Workloads[wl][m.Name]
		if !okA || !okB {
			return
		}
		change := 0.0
		if va.Value != 0 {
			change = (vb.Value - va.Value) / va.Value
		}
		verdict, bound := "", ""
		if gated {
			loss := change
			if m.Better == "higher" {
				loss = -change
			}
			verdict, bound = "ok", fmt.Sprintf("%.0f%%", 100*m.Bound)
			if loss > m.Bound {
				verdict = "WORSE"
				worse++
			}
		}
		fmt.Printf("%-16s %-30s %14.4f %14.4f %+8.1f%% %7s  %s\n", wl, m.Name, va.Value, vb.Value, 100*change, bound, verdict)
	}
	for _, wl := range workloadNames {
		for _, m := range bf.EndToEnd {
			row(wl, m, true)
		}
		if ea, eb := a.Workloads[wl]["error_rate"].Value, b.Workloads[wl]["error_rate"].Value; eb > ea {
			fmt.Printf("%-16s %-30s %14.6f %14.6f %9s %7s  WORSE\n", wl, "error_rate", ea, eb, "", "none")
			worse++
		}
		for _, m := range bf.PerLayer {
			row(wl, m, false)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d (metric, workload) pairs got worse by more than their bound", worse)
	}
	return nil
}
