package harness

import (
	"errors"
	"time"

	"repro/internal/base"
	"repro/internal/compaction"
	"repro/internal/core"
	"repro/internal/workload"
)

// C5PolicyWorkloadSweep sweeps the compaction.Layout settings (leveled,
// size-tiered, lazy-leveling) across three workload shapes,
// reporting the classic LSM trade-off triangle — write amplification,
// space amplification, read throughput — plus the delete-persistence
// columns that show FADE holding the DPT under every layout. The
// amplification and persistence columns run on the deterministic logical
// clock; reads_s is wall clock and varies run to run.
func C5PolicyWorkloadSweep(sc Scale) (*Table, error) {
	t := &Table{
		ID:    "C5",
		Title: "policy x workload sweep (FADE enabled under every policy)",
		Header: []string{"policy", "workload", "wa", "sa", "reads_s",
			"within_dpt", "live_tombs", "ttl_compactions"},
		Notes: []string{
			"tiering trades read throughput and space for ingestion; lazy-leveling keeps the last level sorted",
			"within_dpt counts still-live tombstones as violations; the DPT holds regardless of policy",
			"reads_s is wall clock and varies run to run; every other column is deterministic",
		},
	}
	dpt := base.Duration(sc.Ops / 4)
	policies := []compaction.PolicyKind{
		compaction.PolicyLeveled,
		compaction.PolicySizeTiered,
		compaction.PolicyLazyLeveling,
	}
	workloads := []struct {
		name string
		mix  workload.Mix
	}{
		{"write-heavy", workload.Mix{Updates: 0.55, Deletes: 0.05}},
		{"delete-heavy", workload.Mix{Updates: 0.25, Deletes: 0.25}},
		{"scan-heavy", workload.Mix{Updates: 0.15, Deletes: 0.05, Lookups: 0.15, Scans: 0.25}},
	}
	for _, kind := range policies {
		for _, wl := range workloads {
			cfg := EngineConfig{
				Name:   kind.String() + "/" + wl.name,
				Policy: kind,
				Picker: compaction.PickFADE,
				DPT:    dpt,
			}
			rt, err := OpenRuntime(cfg, sc)
			if err != nil {
				return nil, err
			}
			g := workload.New(workload.Spec{
				Seed:     21,
				KeySpace: sc.KeySpace,
				ValueLen: sc.ValueLen,
				Dist:     workload.Uniform,
				Mix:      wl.mix,
			})
			if err := preload(rt, g); err != nil {
				rt.Close()
				return nil, err
			}
			if err := rt.RunOps(g, sc.Ops); err != nil {
				rt.Close()
				return nil, err
			}
			// Grant every tombstone its full DPT budget (plus scheduler
			// slack) before judging persistence, as E1 does: within_dpt
			// near 1.0 here is the policy honouring the guarantee, not
			// workload luck.
			if err := rt.Settle(dpt+dpt/4, 20); err != nil {
				rt.Close()
				return nil, err
			}

			// Read phase: zipfian point lookups against the settled tree.
			// Tiered levels hold several runs, so this is where size-tiering
			// pays for its cheap ingestion.
			rg := workload.New(workload.Spec{
				Seed: 77, KeySpace: sc.KeySpace, ValueLen: sc.ValueLen,
				Dist: workload.Zipfian, Mix: workload.Mix{Lookups: 1},
			})
			rg.PrimeInserted(sc.KeySpace)
			reads := sc.Ops / 4
			start := time.Now()
			for i := 0; i < reads; i++ {
				op := rg.Next()
				if _, err := rt.DB.Get(op.Key); err != nil && !errors.Is(err, core.ErrNotFound) {
					rt.Close()
					return nil, err
				}
			}
			readsPerSec := float64(reads) / time.Since(start).Seconds()

			st := rt.DB.Stats()
			within, _, _ := violationStats(st)
			t.AddRow(kind.String(), wl.name,
				F(st.WriteAmplification()), F(rt.SpaceAmp()),
				Fx(readsPerSec, 0), Fx(within, 3),
				I(st.LiveTombstones.Get()),
				I(st.CompactionsByTrigger[int(compaction.TriggerTTL)].Get()))
			if err := rt.Close(); err != nil {
				return nil, err
			}
		}
	}
	return t, nil
}
