// Command benchmark is Acheron's one benchmark spine: four fixed, seeded
// workloads driven through the engine's public entry points (core.DB,
// shard.Router, server + client over loopback), every result checked against
// the benchmark's own oracle, end-to-end metrics from an untraced run and
// per-layer metrics from a traced one. See README.md.
//
//	go run . -workload read_settled -seed 1 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// result is one run of one workload.
type result struct {
	Workload          string
	Seed              uint64
	Traced            bool
	Attempted, Failed int64
	FirstFailure      string
	Metrics           map[string]float64
	Samples           map[string]int // sample count of each timed class
	// Speed is the machine's speed over the measured phase as a multiple of
	// the reference speed, and AsMeasured the times of Metrics as the clock
	// read them, before they were scaled to the reference speed.
	Speed      float64
	AsMeasured map[string]float64
	// Unbounded holds what the untraced run measures beside its metrics and
	// prints without listing: the 99th percentiles at the reference speed.
	Unbounded map[string]float64
}

func newResult(cfg config) *result {
	r := &result{Workload: cfg.workload, Seed: cfg.seed, Traced: cfg.trace,
		Metrics: map[string]float64{}, Samples: map[string]int{}, AsMeasured: map[string]float64{}, Unbounded: map[string]float64{}}
	for _, def := range r.defs() {
		r.Metrics[def.name] = 0 // what a workload does not exercise reads 0
	}
	return r
}

// finish folds the drivers' failure accounting into the result.
func (r *result) finish(drivers ...*driver) {
	for _, d := range drivers {
		r.Attempted += d.attempted
		r.Failed += d.failed
		if r.FirstFailure == "" {
			r.FirstFailure = d.firstFailure
		}
	}
}

func (r *result) defs() []metricDef {
	if r.Traced {
		return perLayerMetrics
	}
	return endToEndMetrics
}

// print writes the result for people.
func (r *result) print(w io.Writer) {
	kind := "end-to-end (untraced run)"
	if r.Traced {
		kind = "per-layer (traced run)"
	}
	fmt.Fprintf(w, "== %s  seed %d  %s ==\n", r.Workload, r.Seed, kind)
	fmt.Fprintf(w, "storage is vfs.MemFS, the network is loopback, the load is closed-loop: these are the sandbox's latencies, not a device's\n")
	if !r.Traced {
		fmt.Fprintf(w, "times are at the reference speed (one burst of the yardstick kernel = %d ns); the machine ran at %.3f of it, and [as measured] is what the clock read, percentiles exact over every sample\n", refBurstNs, r.Speed)
	}
	for _, def := range r.defs() {
		fmt.Fprintf(w, "  %-40s %16.6g %s", def.name, r.Metrics[def.name], def.unit)
		if raw, ok := r.AsMeasured[def.name]; ok {
			fmt.Fprintf(w, "  [as measured %.6g]", raw)
		}
		fmt.Fprintln(w)
	}
	if !r.Traced {
		for _, name := range []string{"put_p99_us", "get_p99_us", "scan_p99_us"} {
			fmt.Fprintf(w, "  %-40s %16.6g us  [as measured %.6g]  (per-layer list: no bound)\n", name, r.Unbounded[name], r.AsMeasured[name])
		}
		fmt.Fprintf(w, "  samples: put %d, get %d, scan %d\n", r.Samples["put"], r.Samples["get"], r.Samples["scan"])
	}
	fmt.Fprintf(w, "  %-40s %16.6g fraction (%d of %d)\n", "failed_frac", ratio(float64(r.Failed), float64(r.Attempted)), r.Failed, r.Attempted)
	if r.FirstFailure != "" {
		fmt.Fprintf(w, "  first failure: %s\n", r.FirstFailure)
	}
}

// driverLine is the machine-readable last line of standard output.
func (r *result) driverLine() string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.Failed == 0 && r.Attempted > 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]value{}}
	for _, def := range r.defs() {
		out.Metrics[def.name] = value{r.Metrics[def.name], def.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // a non-finite metric: a bug in the benchmark
	}
	return string(b)
}

func runWorkload(cfg config) (*result, error) {
	sp, err := specFor(cfg.workload, cfg.scale)
	if err != nil {
		return nil, err
	}
	if sp.name == "served_mixed" {
		return runServed(sp, cfg)
	}
	return runEmbedded(sp, cfg)
}

// runRepeated runs a workload n times and folds the runs into one result
// holding each metric's median; spread holds every run's values.
func runRepeated(cfg config, n int, w io.Writer) (*result, map[string][]float64, error) {
	spread := map[string][]float64{}
	var last *result
	for i := 0; i < n; i++ {
		r, err := runWorkload(cfg)
		if err != nil {
			return nil, nil, err
		}
		for name, v := range r.Metrics {
			spread[name] = append(spread[name], v)
		}
		if last != nil {
			r.Attempted += last.Attempted
			r.Failed += last.Failed
			if last.FirstFailure != "" {
				r.FirstFailure = last.FirstFailure
			}
		}
		last = r
	}
	for name, vs := range spread {
		last.Metrics[name] = median(vs)
	}
	last.print(w)
	if n > 1 {
		fmt.Fprintf(w, "  over %d runs: median [min .. max]\n", n)
		for _, def := range last.defs() {
			vs := append([]float64(nil), spread[def.name]...)
			sort.Float64s(vs)
			fmt.Fprintf(w, "  %-40s %14.6g [%.6g .. %.6g] %s\n", def.name, median(vs), vs[0], vs[len(vs)-1], def.unit)
		}
	}
	return last, spread, nil
}

func main() {
	cfg := config{scale: 1, setups: 3}
	workload := flag.String("workload", "all", "one of ingest_delete, read_settled, kiwi_retention, served_mixed, or all")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed of the load generator")
	flag.Float64Var(&cfg.seconds, "seconds", 25, "length of the measured phase")
	flag.IntVar(&cfg.ops, "ops", 0, "measure exactly this many ops instead of -seconds (counts then repeat exactly)")
	trace := flag.Int("trace", 0, "1: the traced run, which prints the per-layer metrics; 0: the untraced run, which prints the end-to-end metrics")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "with -trace 1, write spans and counter snapshots here as JSON lines")
	repeat := flag.Int("repeat", 1, "run each workload this many times and report median, min and max")
	jsonOut := flag.String("json-out", "", "write every run's metric values here, for -compare")
	compare := flag.Bool("compare", false, "compare two -json-out files: benchmark -compare a.json b.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare a.json b.json")
			os.Exit(2)
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "compare:", err)
			os.Exit(1)
		}
		return
	}
	if cfg.seconds <= 0 && cfg.ops <= 0 || *repeat < 1 || math.IsNaN(cfg.seconds) {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds or -ops, and -repeat, must be positive")
		os.Exit(2)
	}
	cfg.trace = *trace != 0
	if !pinMemory() {
		fmt.Fprintln(os.Stderr, "benchmark: could not lock memory; timings will be noisier where the kernel reclaims idle pages")
	}
	names := workloadNames
	if *workload != "all" {
		names = []string{*workload}
	}
	all := map[string]map[string][]float64{}
	failed := false
	var lines []string
	for _, name := range names {
		cfg.workload = name
		r, spread, err := runRepeated(cfg, *repeat, os.Stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
			os.Exit(1)
		}
		all[name] = spread
		failed = failed || r.Failed > 0
		lines = append(lines, r.driverLine())
	}
	if *jsonOut != "" {
		b, err := json.MarshalIndent(all, "", " ")
		if err == nil {
			err = os.WriteFile(*jsonOut, b, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: -json-out:", err)
			os.Exit(1)
		}
	}
	for _, l := range lines {
		fmt.Println(l)
	}
	if failed {
		os.Exit(1)
	}
}
