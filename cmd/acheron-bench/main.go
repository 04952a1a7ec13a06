// Command acheron-bench regenerates the paper's evaluation tables and
// figures (E1..E8, ablations A1..A3 and the policy sweep C5, see
// EXPERIMENTS.md) against the in-memory filesystem with a deterministic
// logical clock. C6, the wall-clock overload experiment, runs only when
// named. Speed is not measured here: see BENCHMARK.json and benchmark/.
//
// Usage:
//
//	acheron-bench [-exp all|E1,...,E8,A1,A2,A3,C5,C6] [-scale small|default|large] [-metrics DIR]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/core"
	"repro/internal/harness"
)

func main() {
	expFlag := flag.String("exp", "all", "comma-separated experiment ids (E1..E8, A1..A3, C5, C6), or 'all' for every deterministic one (all but C6)")
	scaleFlag := flag.String("scale", "default", "experiment scale: small, default, large")
	metricsDir := flag.String("metrics", "", "directory for per-experiment Prometheus metric snapshots (empty disables)")
	flag.Parse()

	var sc harness.Scale
	switch *scaleFlag {
	case "small":
		sc = harness.SmallScale()
	case "default":
		sc = harness.DefaultScale()
	case "large":
		sc = harness.DefaultScale()
		sc.KeySpace *= 4
		sc.Ops *= 4
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scaleFlag)
		os.Exit(2)
	}

	experiments := map[string]func(harness.Scale) (*harness.Table, error){
		"E1": harness.E1DeletePersistence,
		"E2": harness.E2SpaceAmp,
		"E3": harness.E3WriteAmp,
		"E4": harness.E4ReadThroughput,
		"E5": harness.E5KiWiRangeDelete,
		"E6": harness.E6TombstoneCount,
		"E7": harness.E7StrategyMatrix,
		"E8": harness.E8Ingestion,
		"A1": harness.A1TTLSplit,
		"A2": harness.A2BloomBits,
		"A3": harness.A3FADETieBreak,
		"C5": harness.C5PolicyWorkloadSweep,
		"C6": harness.C6Overload,
	}
	// all is the deterministic set: logical clock, fixed seeds. C6 is wall
	// clock and asserts its own acceptance, so it runs only by id.
	all := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "A1", "A2", "A3", "C5"}

	var ids []string
	if *expFlag == "all" {
		ids = all
	} else {
		for _, id := range strings.Split(*expFlag, ",") {
			id = strings.ToUpper(strings.TrimSpace(id))
			if _, ok := experiments[id]; !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q\n", id)
				os.Exit(2)
			}
			ids = append(ids, id)
		}
	}

	// -metrics: every engine an experiment opens hands its final state to
	// the sink as it closes, so per-variant counters survive the run as
	// Prometheus text in <dir>/<exp>-<config>[-n].prom.
	var currentExp string
	if *metricsDir != "" {
		if err := os.MkdirAll(*metricsDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "metrics dir: %v\n", err)
			os.Exit(1)
		}
		seen := make(map[string]int)
		harness.SetMetricsSink(func(name string, db *core.DB) {
			// Config names such as "lvl/fade" hold a path separator.
			stem := fmt.Sprintf("%s-%s", strings.ToLower(currentExp), strings.ReplaceAll(name, "/", "_"))
			seen[stem]++
			if n := seen[stem]; n > 1 {
				stem = fmt.Sprintf("%s-%d", stem, n)
			}
			var sb strings.Builder
			if _, err := db.Registry().WriteTo(&sb); err != nil {
				fmt.Fprintf(os.Stderr, "metrics snapshot %s: %v\n", stem, err)
				return
			}
			path := filepath.Join(*metricsDir, stem+".prom")
			if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "metrics snapshot %s: %v\n", path, err)
			}
		})
	}

	for _, id := range ids {
		currentExp = id
		tbl, err := experiments[id](sc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", id, err)
			os.Exit(1)
		}
		tbl.Fprint(os.Stdout)
	}
}
