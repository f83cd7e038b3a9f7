// Command e2e is the repository's end-to-end, layer-attributed benchmark:
// it builds a seeded synthetic universe, serves it through the real
// internal/server handler on a loopback listener in this process, and
// drives four named workloads through the front door. See bench/README.md
// for the metric and workload definitions.
//
//	go run ./bench/e2e --workload view.warm --seed 1 --seconds 15 --trace 0
//	go run ./bench/e2e --sets 2            # whole suite twice, results in bench/out
//	go run ./bench/e2e --compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	scale    float64
	sets     int
	out      string
}

// setUpRepeats is how often a run sets up; setup_s is the median.
const setUpRepeats = 3

// metric is one named measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run of one workload reports. Its JSON form is the last
// line of standard output, with exactly these keys.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// info holds measurements printed for the reader but outside the
	// contract's metric set (p99, sample counts, lateness).
	info    map[string]metric
	reasons []string
}

func newResult() *result {
	return &result{Metrics: make(map[string]metric), info: make(map[string]metric)}
}

func (r *result) set(name string, v float64, unit string)  { r.Metrics[name] = metric{v, unit} }
func (r *result) note(name string, v float64, unit string) { r.info[name] = metric{v, unit} }

// fail records n failed operations with a reason.
func (r *result) fail(n int, format string, args ...any) {
	r.Failed += n
	if len(r.reasons) < 8 {
		r.reasons = append(r.reasons, fmt.Sprintf(format, args...))
	}
}

func main() {
	cfg := config{}
	compare := false
	flag.StringVar(&cfg.workload, "workload", "", "one of "+strings.Join(workloadNames, ", ")+" (empty: the whole suite)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the universe, the sampled accessions and the request order")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "length of the measured window")
	flag.IntVar(&cfg.trace, "trace", 0, "1: record spans and print the per-layer metrics instead of the end-to-end ones")
	flag.Float64Var(&cfg.scale, "scale", 0.01, "universe scale (1.0 = the paper's ~2M objects)")
	flag.IntVar(&cfg.sets, "sets", 1, "suite mode: run every workload, untraced and traced, this many times")
	flag.StringVar(&cfg.out, "out", "bench/out", "directory for data directories, span files and suite results")
	flag.BoolVar(&compare, "compare", false, "compare two suite result files: --compare a.json b.json")
	flag.Parse()

	var err error
	switch {
	case compare:
		err = compareFiles("BENCHMARK.json", flag.Args())
	case cfg.workload == "":
		err = runSuite(cfg)
	default:
		err = runOne(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		os.Exit(1)
	}
}

func printHeader(cfg config, workload string) {
	fmt.Printf("# bench/e2e workload=%s seed=%d scale=%g seconds=%g trace=%d\n",
		workload, cfg.seed, cfg.scale, cfg.seconds, cfg.trace)
	fmt.Printf("# machine: nproc=%d GOMAXPROCS=%d %s %s/%s clients=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, loadClients())
}

// run executes one workload, traced or not.
func run(cfg config) (*result, error) {
	known := false
	for _, n := range workloadNames {
		known = known || n == cfg.workload
	}
	if !known {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames, ", "))
	}
	if cfg.seconds <= 0 || cfg.scale <= 0 {
		return nil, fmt.Errorf("--seconds and --scale must be positive")
	}
	printHeader(cfg, cfg.workload)
	var res *result
	var err error
	switch {
	case cfg.workload == wlImportDurable && cfg.trace == 1:
		res, err = traceImport(cfg)
	case cfg.workload == wlImportDurable:
		res, err = runImport(cfg)
	case cfg.trace == 1:
		res, err = traceRequests(cfg)
	default:
		res, err = runRequests(cfg)
	}
	if err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0
	return res, nil
}

func printResult(res *result) {
	for _, group := range []map[string]metric{res.Metrics, res.info} {
		for _, name := range sortedKeys(group) {
			m := group[name]
			fmt.Printf("%-32s %14.4f %s\n", name, m.Value, m.Unit)
		}
	}
	fmt.Printf("%-32s %14.6f failed/attempted (%d/%d)\n", "error_rate",
		float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted)
	for _, why := range res.reasons {
		fmt.Println("FAILED:", why)
	}
}

// runOne is the single-workload mode of the benchmark contract: the last
// line of standard output is the result as one JSON object.
func runOne(cfg config) error {
	res, err := run(cfg)
	if err != nil {
		return err
	}
	printResult(res)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations failed or were incorrect", cfg.workload, res.Failed, res.Attempted)
	}
	return nil
}

// warmUp is the untimed lead-in of a request workload.
func warmUp(cfg config) time.Duration {
	return time.Duration(cfg.seconds * 0.2 * float64(time.Second))
}

func window(cfg config) time.Duration {
	return time.Duration(cfg.seconds * float64(time.Second))
}

// runRequests is the untraced run of a request workload.
func runRequests(cfg config) (*result, error) {
	e, setupS, err := timedSetUps(setUpRepeats,
		func() (*env, error) { return setUp(cfg, cfg.workload) },
		func(e *env) { e.close() })
	if err != nil {
		return nil, err
	}
	defer e.close()
	e.printSizing()
	res := newResult()
	res.set("setup_s", setupS, "s")
	res.set("heap_live_mb", heapLiveMB(), "MB")

	ref := newReference(e.w)
	if cfg.workload != wlExportCold {
		n, err := srsRows(e.w, e.plan, ref)
		if err != nil {
			res.fail(1, "SRS ground truth: %v", err)
		}
		fmt.Printf("# SRS ground truth: %d one-hop OR shapes checked\n", n)
		if n == 0 {
			res.fail(1, "SRS ground truth: the pool holds no one-hop OR shape")
		}
	}

	clients := loadClients()
	if cfg.workload == wlViewUpdate {
		clients = 1
	}
	fd, err := openFrontDoor(e.sys, clients)
	if err != nil {
		return nil, err
	}
	var wr *writer
	if cfg.workload == wlViewUpdate {
		if wr, err = startWriter(e, warmUp(cfg), window(cfg)); err != nil {
			fd.close()
			return nil, err
		}
	}
	samples := runClosedLoop(fd, e.plan, clients, warmUp(cfg), window(cfg))
	fd.close()
	if wr != nil {
		wr.report(res)
	}

	failed, reasons := validate(samples, e.plan, ref)
	res.Attempted += len(samples)
	res.Failed += failed
	res.reasons = append(res.reasons, reasons...)
	if len(samples) == 0 {
		res.fail(1, "no request completed inside the window")
		res.Attempted = 1
	}
	throughput, p50, p95 := sliceStats(samples, window(cfg))
	res.set("throughput_ops_s", throughput, "1/s")
	res.set("latency_p50_ms", p50, "ms")
	res.set("latency_p95_ms", p95, "ms")
	res.note("latency_p99_ms", percentile(latenciesMS(samples), 99), "ms")
	res.note("samples", float64(len(samples)), "count")
	res.note("clients", float64(clients), "count")
	if wr != nil {
		wr.verifyAfterReopen(e, res)
	}
	return res, nil
}

// ---------------------------------------------------------------------------
// Suite mode

// suiteFile is what --sets writes and --compare reads: every metric of
// every workload of one pass over the suite.
type suiteFile struct {
	Seed      int64                        `json:"seed"`
	Scale     float64                      `json:"scale"`
	Seconds   float64                      `json:"seconds"`
	Machine   string                       `json:"machine"`
	Workloads map[string]map[string]metric `json:"workloads"`
}

func runSuite(cfg config) error {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	bad := 0
	for set := 1; set <= cfg.sets; set++ {
		sf := suiteFile{Seed: cfg.seed, Scale: cfg.scale, Seconds: cfg.seconds,
			Machine:   fmt.Sprintf("nproc=%d %s", runtime.NumCPU(), runtime.Version()),
			Workloads: make(map[string]map[string]metric)}
		for _, wl := range workloadNames {
			sf.Workloads[wl] = make(map[string]metric)
			for trace := 0; trace <= 1; trace++ {
				c := cfg
				c.workload, c.trace = wl, trace
				res, err := run(c)
				if err != nil {
					return fmt.Errorf("set %d %s trace=%d: %w", set, wl, trace, err)
				}
				printResult(res)
				fmt.Println()
				for name, m := range res.Metrics {
					sf.Workloads[wl][name] = m
				}
				if trace == 0 {
					sf.Workloads[wl]["error_rate"] = metric{float64(res.Failed) / float64(max(res.Attempted, 1)), "ratio"}
				}
				bad += res.Failed
			}
		}
		path := fmt.Sprintf("%s/set-%d.json", cfg.out, set)
		data, err := json.MarshalIndent(sf, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Println("# wrote", path)
	}
	if bad > 0 {
		return fmt.Errorf("%d operations failed or were incorrect", bad)
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
