// Command acheron-bench regenerates the paper's evaluation tables and
// figures (E1..E8, see DESIGN.md) against the in-memory filesystem with a
// deterministic logical clock.
//
// Usage:
//
//	acheron-bench [-exp E1,E3] [-scale small|default|large]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/harness"
)

func main() {
	expFlag := flag.String("exp", "all", "comma-separated experiment ids (E1..E8) or 'all'")
	scaleFlag := flag.String("scale", "default", "experiment scale: small, default, large")
	metricsDir := flag.String("metrics", "", "directory for per-experiment Prometheus metric snapshots (empty disables)")
	jsonPath := flag.String("json", "", "file for a JSON run summary: result tables plus per-config commit/WAL metric snapshots (empty disables)")
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
		"C1": harness.C1MaintenanceConcurrency,
		"C2": harness.C2CommitPipeline,
		"C4": harness.C4IteratorThroughput,
		"C5": harness.C5PolicyWorkloadSweep,
		"C6": harness.C6Overload,
		"C7": harness.C7ServeSaturation,
	}
	order := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "A1", "A2", "A3", "C1", "C2", "C4", "C5", "C6", "C7"}

	var ids []string
	if *expFlag == "all" {
		ids = order
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

	// Metric sinks: every engine an experiment opens hands its final state
	// to each installed sink as it closes, so per-variant counters survive
	// the run. -metrics dumps Prometheus text into
	// <dir>/<exp>-<config>[-n].prom; -json collects the write-path metrics
	// that track the commit pipeline's perf trajectory across PRs.
	var currentExp string
	var sinks []func(string, *core.DB)
	if *metricsDir != "" {
		if err := os.MkdirAll(*metricsDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "metrics dir: %v\n", err)
			os.Exit(1)
		}
		seen := make(map[string]int)
		sinks = append(sinks, func(name string, db *core.DB) {
			stem := fmt.Sprintf("%s-%s", strings.ToLower(currentExp), name)
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
	jsonMetrics := map[string]map[string]float64{}
	if *jsonPath != "" {
		seen := make(map[string]int)
		sinks = append(sinks, func(name string, db *core.DB) {
			key := fmt.Sprintf("%s-%s", strings.ToLower(currentExp), name)
			seen[key]++
			if n := seen[key]; n > 1 {
				key = fmt.Sprintf("%s-%d", key, n)
			}
			st := db.Stats()
			m := map[string]float64{
				"wal_appends":        float64(st.WALAppends.Get()),
				"wal_syncs":          float64(st.WALSyncs.Get()),
				"wal_bytes":          float64(st.WALBytes.Get()),
				"commits_per_sync":   st.CommitsPerSync(),
				"p99_group_size":     float64(st.WALGroupSize.Quantile(0.99)),
				"p99_wal_sync_ns":    float64(st.WALSyncLatency.Quantile(0.99)),
				"p99_put_ns":         float64(st.PutLatency.Quantile(0.99)),
				"p99_batch_ns":       float64(st.BatchLatency.Quantile(0.99)),
				"write_stalls":       float64(st.WriteStalls.Get()),
				"write_stall_ns":     float64(st.WriteStallNanos.Get()),
				"bytes_ingested":     float64(st.BytesIngested.Get()),
				"write_amp":          st.WriteAmplification(),
				"flushes":            float64(st.Flushes.Get()),
				"peak_flush_queue":   float64(st.FlushQueueDepth.Peak()),
				"background_errors":  float64(st.BackgroundErrors.Get()),
				"stall_timeouts":     float64(st.StallTimeouts.Get()),
				"commit_cancels":     float64(st.CommitCancels.Get()),
				"iter_reseeks":       float64(st.IterReseeks.Get()),
				"view_builds":        float64(st.IterViewBuilds.Get()),
				"view_hits":          float64(st.IterViewHits.Get()),
				"view_deferred":      float64(st.IterViewDeferred.Get()),
				"view_invalidations": float64(st.IterViewInvalidations.Get()),
				"prefix_bloom_skips": float64(st.PrefixBloomSkips.Get()),
				"scan_tables_opened": float64(st.IterTablesOpened.Get()),
				"p99_scan_step_ns":   float64(st.IterScanLatency.Quantile(0.99)),
			}
			if ac := db.Admission(); ac != nil {
				wm := ac.ClassMetrics(admission.ClassWrite)
				m["admitted_writes"] = float64(wm.Admitted.Get())
				m["rejected_writes"] = float64(wm.Rejected.Get())
				m["shed_writes"] = float64(wm.Shed.Get())
				m["p99_admission_wait_ns"] = float64(wm.Wait.Quantile(0.99))
			}
			jsonMetrics[key] = m
		})
	}
	if len(sinks) > 0 {
		harness.SetMetricsSink(func(name string, db *core.DB) {
			for _, sink := range sinks {
				sink(name, db)
			}
		})
	}

	var tables []*harness.Table
	for _, id := range ids {
		currentExp = id
		tbl, err := experiments[id](sc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", id, err)
			os.Exit(1)
		}
		tbl.Fprint(os.Stdout)
		tables = append(tables, tbl)
	}

	if *jsonPath != "" {
		doc := struct {
			Scale       string                        `json:"scale"`
			Experiments []string                      `json:"experiments"`
			Tables      []*harness.Table              `json:"tables"`
			Metrics     map[string]map[string]float64 `json:"metrics"`
			Note        string                        `json:"note"`
		}{
			Scale:       *scaleFlag,
			Experiments: ids,
			Tables:      tables,
			Metrics:     jsonMetrics,
			Note:        "wall-clock experiments (C1, C2) vary run to run; deterministic experiments (E1..E8) are exactly reproducible at a given scale",
		}
		buf, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "json summary: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonPath, append(buf, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "json summary %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
	}
}
