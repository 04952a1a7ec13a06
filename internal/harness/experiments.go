package harness

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/base"
	"repro/internal/compaction"
	"repro/internal/core"
	"repro/internal/workload"
)

// preload inserts the full key space and settles the tree so data spans
// multiple levels before the measured phase.
func preload(rt *Runtime, g *workload.Generator) error {
	for g.Inserted() < rt.Scale.KeySpace {
		if err := rt.Apply(g.Next()); err != nil {
			return err
		}
	}
	if err := rt.DB.Flush(); err != nil {
		return err
	}
	return rt.DB.WaitIdle()
}

// violationStats summarizes delete-persistence compliance against the
// engine's persistence deadline (its DPT, or EngineConfig.GradeDPT): the
// fraction of tombstones that neither still exist nor took longer than the
// deadline to persist.
func violationStats(st *core.Stats) (within float64, p99, max int64) {
	persisted := st.PersistenceLatency.Count()
	live := st.LiveTombstones.Get()
	total := persisted + live
	if total == 0 {
		return 1, 0, 0
	}
	late := st.TombstonesPersistedLate.Get() + live
	return float64(total-late) / float64(total), st.PersistenceLatency.Quantile(0.99), st.PersistenceLatency.Max()
}

// E1DeletePersistence reproduces Figure 1: delete persistence latency as
// the DPT is swept. The baseline gives no bound; FADE honours each DPT.
func E1DeletePersistence(sc Scale) (*Table, error) {
	t := &Table{
		ID:     "E1",
		Title:  "delete persistence latency vs DPT (ticks; 1 op = 1 tick)",
		Header: []string{"dpt", "engine", "persisted", "live", "within_dpt", "p99", "max"},
		Notes: []string{
			"within_dpt counts still-live tombstones as violations",
			"baseline ignores the DPT; FADE enforces it via per-level TTLs",
		},
	}
	dpts := []base.Duration{
		base.Duration(sc.Ops / 8),
		base.Duration(sc.Ops / 4),
		base.Duration(sc.Ops / 2),
		base.Duration(sc.Ops),
	}
	for _, dpt := range dpts {
		baseline := Baseline()
		baseline.GradeDPT = dpt
		for _, cfg := range []EngineConfig{baseline, FADE(dpt)} {
			rt, err := OpenRuntime(cfg, sc)
			if err != nil {
				return nil, err
			}
			g := workload.New(workload.Spec{
				Seed:     42,
				KeySpace: sc.KeySpace,
				ValueLen: sc.ValueLen,
				Dist:     workload.Uniform,
				Mix:      workload.Mix{Updates: 0.45, Deletes: 0.15},
			})
			if err := preload(rt, g); err != nil {
				return nil, err
			}
			if err := rt.RunOps(g, sc.Ops); err != nil {
				return nil, err
			}
			// Give every tombstone its full budget, plus scheduler
			// slack, to persist.
			if err := rt.Settle(dpt+dpt/4, 20); err != nil {
				return nil, err
			}
			st := rt.DB.Stats()
			within, p99, max := violationStats(st)
			t.AddRow(I(int64(dpt)), cfg.Name,
				I(st.TombstonesPersisted.Get()), I(st.LiveTombstones.Get()),
				Fx(within, 3), I(p99), I(max))
			if err := rt.Close(); err != nil {
				return nil, err
			}
		}
	}
	return t, nil
}

// spaceWriteRun executes one (config, deleteFraction) cell shared by E2/E3.
func spaceWriteRun(cfg EngineConfig, sc Scale, delFrac float64) (*Runtime, error) {
	return spaceWriteRunPattern(cfg, sc, delFrac, false)
}

// spaceWriteRunPattern additionally selects the delete pattern: scattered
// (uniform over the key space) or clustered (FIFO over sequentially
// inserted keys — the timeseries pattern).
func spaceWriteRunPattern(cfg EngineConfig, sc Scale, delFrac float64, clustered bool) (*Runtime, error) {
	rt, err := OpenRuntime(cfg, sc)
	if err != nil {
		return nil, err
	}
	spec := workload.Spec{
		Seed:     7,
		KeySpace: sc.KeySpace,
		ValueLen: sc.ValueLen,
		Dist:     workload.Uniform,
		Mix:      workload.Mix{Updates: 0.5 - delFrac, Deletes: delFrac},
	}
	if clustered {
		spec.Dist = workload.Sequential
		spec.DeleteOldestFirst = true
	}
	g := workload.New(spec)
	if err := preload(rt, g); err != nil {
		rt.Close()
		return nil, err
	}
	if err := rt.RunOps(g, sc.Ops); err != nil {
		rt.Close()
		return nil, err
	}
	// Measure at steady state: flush what is buffered and let pending
	// triggers fire, but grant no extra settle budget to either engine.
	if err := rt.DB.Flush(); err != nil {
		rt.Close()
		return nil, err
	}
	if err := rt.DB.WaitIdle(); err != nil {
		rt.Close()
		return nil, err
	}
	return rt, nil
}

// E2SpaceAmp reproduces Figure 2: space amplification vs delete fraction.
func E2SpaceAmp(sc Scale) (*Table, error) {
	t := &Table{
		ID:     "E2",
		Title:  "space amplification vs delete fraction",
		Header: []string{"delete_frac", "sa_baseline", "sa_fade", "improvement"},
		Notes:  []string{"sa = disk bytes / live logical bytes; paper band: 2.1x-9.8x lower for the delete-aware engine"},
	}
	dpt := base.Duration(sc.Ops / 4)
	for _, df := range []float64{0.02, 0.05, 0.10, 0.15, 0.25} {
		base2, err := spaceWriteRun(Baseline(), sc, df)
		if err != nil {
			return nil, err
		}
		fade, err := spaceWriteRun(FADE(dpt), sc, df)
		if err != nil {
			base2.Close()
			return nil, err
		}
		sb, sf := base2.SpaceAmp(), fade.SpaceAmp()
		imp := 0.0
		if sf > 1 {
			// Compare amplification overheads above the incompressible 1.0.
			imp = (sb - 1) / (sf - 1)
		}
		t.AddRow(Fx(df, 2), F(sb), F(sf), F(imp))
		base2.Close()
		fade.Close()
	}
	return t, nil
}

// E3WriteAmp reproduces Figure 3: write amplification overhead of FADE,
// swept along both axes — delete fraction at a fixed DPT, and DPT at a
// fixed delete fraction. The overhead shrinks as the DPT loosens: an
// infinite DPT is exactly the baseline.
func E3WriteAmp(sc Scale) (*Table, error) {
	t := &Table{
		ID:    "E3",
		Title: "write amplification overhead of delete-aware compaction",
		Header: []string{"pattern", "delete_frac", "dpt", "wa_baseline",
			"wa_ttl_only", "ttl_overhead_pct", "wa_fade_full", "fade_overhead_pct"},
		Notes: []string{
			"ttl_only = the paper's persistence mechanism alone (TTL trigger, min-overlap picker)",
			"fade_full adds the tombstone-density saturation picker: earlier persistence for more WA",
			"paper band: +4% to +25% WA — matched by the ttl_only mechanism",
		},
	}
	// fadeTTLOnly isolates the delete-persistence trigger from the
	// aggressive picker.
	fadeTTLOnly := func(dpt base.Duration) EngineConfig {
		return EngineConfig{Name: "ttl-only", Policy: compaction.PolicyLeveled,
			Picker: compaction.PickMinOverlap, DPT: dpt}
	}
	row := func(df float64, dpt base.Duration, clustered bool) error {
		base2, err := spaceWriteRunPattern(Baseline(), sc, df, clustered)
		if err != nil {
			return err
		}
		defer base2.Close()
		ttlOnly, err := spaceWriteRunPattern(fadeTTLOnly(dpt), sc, df, clustered)
		if err != nil {
			return err
		}
		defer ttlOnly.Close()
		fade, err := spaceWriteRunPattern(FADE(dpt), sc, df, clustered)
		if err != nil {
			return err
		}
		defer fade.Close()
		wb := base2.DB.Stats().WriteAmplification()
		wt := ttlOnly.DB.Stats().WriteAmplification()
		wf := fade.DB.Stats().WriteAmplification()
		pattern := "scattered"
		if clustered {
			pattern = "clustered"
		}
		t.AddRow(pattern, Fx(df, 2), I(int64(dpt)),
			F(wb), F(wt), Fx((wt/wb-1)*100, 1), F(wf), Fx((wf/wb-1)*100, 1))
		return nil
	}
	for _, clustered := range []bool{true, false} {
		for _, df := range []float64{0.02, 0.10, 0.25} {
			if err := row(df, base.Duration(sc.Ops), clustered); err != nil {
				return nil, err
			}
		}
	}
	for _, dpt := range []base.Duration{
		base.Duration(sc.Ops / 4), base.Duration(sc.Ops),
		base.Duration(4 * sc.Ops),
	} {
		if err := row(0.10, dpt, true); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// E4ReadThroughput reproduces Figure 4: point-lookup throughput on an aged,
// delete-heavy store.
func E4ReadThroughput(sc Scale) (*Table, error) {
	t := &Table{
		ID:     "E4",
		Title:  "read throughput after deletes settle (lookups and scans)",
		Header: []string{"engine", "lookups/s", "probes/get", "scans/s", "steps/scan", "lookup_speedup", "scan_speedup"},
		Notes: []string{
			"paper band: 1.17x-1.4x higher read throughput for the delete-aware engine",
			"scans pay for every tombstone and superseded version the merge must step over",
		},
	}
	dpt := base.Duration(sc.Ops / 4)
	var baseLookup, baseScan float64
	for _, cfg := range []EngineConfig{Baseline(), FADE(dpt)} {
		rt, err := spaceWriteRun(cfg, sc, 0.15)
		if err != nil {
			return nil, err
		}
		// Phase 1: zipfian point lookups over the full key space, some
		// targeting deleted keys.
		g := workload.New(workload.Spec{
			Seed: 99, KeySpace: sc.KeySpace, ValueLen: sc.ValueLen,
			Dist: workload.Zipfian, Mix: workload.Mix{Lookups: 1},
		})
		g.PrimeInserted(sc.KeySpace) // the store holds the full key space
		st := rt.DB.Stats()
		g0, tp0 := st.Gets.Get(), st.TablesProbed.Get()
		n := sc.Ops / 2
		start := time.Now()
		for i := 0; i < n; i++ {
			op := g.Next()
			if _, err := rt.DB.Get(op.Key); err != nil && !errors.Is(err, core.ErrNotFound) {
				rt.Close()
				return nil, err
			}
		}
		lookupTput := float64(st.Gets.Get()-g0) / time.Since(start).Seconds()
		probes := float64(st.TablesProbed.Get()-tp0) / float64(st.Gets.Get()-g0)

		// Phase 2: short range scans. The iterator must step over every
		// tombstone and shadowed version in range; the paper's read win
		// comes from FADE having already purged them.
		scanN := sc.Ops / 50
		if scanN < 50 {
			scanN = 50
		}
		const scanLen = 100
		var stepped int64
		start = time.Now()
		for i := 0; i < scanN; i++ {
			key := workload.KeyAt(int(uint64(i*7919) % uint64(sc.KeySpace)))
			it, err := rt.DB.NewIter(core.IterOptions{})
			if err != nil {
				rt.Close()
				return nil, err
			}
			cnt := 0
			for ok := it.SeekGE(key); ok && cnt < scanLen; ok = it.Next() {
				cnt++
			}
			stepped += it.Stepped()
			if err := it.Close(); err != nil {
				rt.Close()
				return nil, err
			}
		}
		scanTput := float64(scanN) / time.Since(start).Seconds()

		lookupSpeedup, scanSpeedup := 1.0, 1.0
		if cfg.Name == "baseline" {
			baseLookup, baseScan = lookupTput, scanTput
		} else {
			if baseLookup > 0 {
				lookupSpeedup = lookupTput / baseLookup
			}
			if baseScan > 0 {
				scanSpeedup = scanTput / baseScan
			}
		}
		t.AddRow(cfg.Name, Fx(lookupTput, 0), F(probes), Fx(scanTput, 0),
			Fx(float64(stepped)/float64(scanN), 1), F(lookupSpeedup), F(scanSpeedup))
		if err := rt.Close(); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// E5KiWiRangeDelete reproduces Figure 5: secondary-key range deletes under
// the KiWi layout vs alternatives.
func E5KiWiRangeDelete(sc Scale) (*Table, error) {
	t := &Table{
		ID:    "E5",
		Title: "secondary range delete: KiWi page drops vs alternatives",
		Header: []string{"engine", "bytes_read", "bytes_rewritten", "pages_dropped", "wall_ms",
			"live_keys", "correct"},
		Notes: []string{
			"delete the oldest 50% of records by delete key (timestamp)",
			"point-deletes baseline models engines without secondary delete support",
		},
	}
	dpt := base.Duration(sc.KeySpace)
	configs := []EngineConfig{
		{Name: "kiwi-eager", Policy: compaction.PolicyLeveled, Picker: compaction.PickFADE,
			DPT: dpt, PagesPerTile: 4, EagerRangeDeletes: true},
		{Name: "kiwi-deferred", Policy: compaction.PolicyLeveled, Picker: compaction.PickFADE,
			DPT: dpt, PagesPerTile: 4},
		{Name: "standard-eager", Policy: compaction.PolicyLeveled, Picker: compaction.PickFADE,
			DPT: dpt, PagesPerTile: 1, EagerRangeDeletes: true},
		{Name: "point-deletes", Policy: compaction.PolicyLeveled, Picker: compaction.PickFADE,
			DPT: dpt, PagesPerTile: 1},
	}
	for _, cfg := range configs {
		rt, err := OpenRuntime(cfg, sc)
		if err != nil {
			return nil, err
		}
		// Timeseries ingest: unique keys, delete key = insert tick.
		g := workload.New(workload.Spec{Seed: 5, KeySpace: sc.KeySpace, ValueLen: sc.ValueLen})
		if err := preload(rt, g); err != nil {
			return nil, err
		}
		st := rt.DB.Stats()
		w0 := st.CompactBytesWritten.Get() + st.BytesFlushed.Get()
		r0 := st.CompactBytesRead.Get()
		cut := base.DeleteKey(sc.KeySpace / 2)
		start := time.Now()
		if cfg.Name == "point-deletes" {
			// No secondary-delete support: the application must find
			// and delete every covered key individually.
			it, err := rt.DB.NewIter(core.IterOptions{})
			if err != nil {
				rt.Close()
				return nil, err
			}
			var victims [][]byte
			for ok := it.First(); ok; ok = it.Next() {
				if workload.ExtractDeleteKey(it.Value()) < cut {
					victims = append(victims, append([]byte(nil), it.Key()...))
				}
			}
			if err := it.Close(); err != nil {
				rt.Close()
				return nil, err
			}
			for _, k := range victims {
				if err := rt.DB.Delete(k); err != nil {
					rt.Close()
					return nil, err
				}
			}
		} else {
			if err := rt.DB.DeleteSecondaryRange(0, cut); err != nil {
				rt.Close()
				return nil, err
			}
		}
		if err := rt.Settle(dpt+dpt/4, 20); err != nil {
			rt.Close()
			return nil, err
		}
		wall := time.Since(start)
		rewritten := st.CompactBytesWritten.Get() + st.BytesFlushed.Get() - w0
		readBytes := st.CompactBytesRead.Get() - r0
		// Count live keys and verify none predate the cut.
		it, err := rt.DB.NewIter(core.IterOptions{})
		if err != nil {
			rt.Close()
			return nil, err
		}
		live, correct := 0, true
		for ok := it.First(); ok; ok = it.Next() {
			live++
			if workload.ExtractDeleteKey(it.Value()) < cut {
				correct = false
			}
		}
		if err := it.Close(); err != nil {
			rt.Close()
			return nil, err
		}
		t.AddRow(cfg.Name, I(readBytes), I(rewritten), I(st.PagesDropped.Get()),
			I(wall.Milliseconds()), I(int64(live)), fmt.Sprintf("%v", correct))
		if err := rt.Close(); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// E6TombstoneCount reproduces Figure 6: the live tombstone population over
// time under a sustained delete workload.
func E6TombstoneCount(sc Scale) (*Table, error) {
	t := &Table{
		ID:     "E6",
		Title:  "live tombstones over time (delete-heavy workload)",
		Header: []string{"ops", "baseline", "fade"},
		Notes:  []string{"FADE bounds the tombstone population; the baseline accumulates"},
	}
	dpt := base.Duration(sc.Ops / 8)
	samples := 10
	counts := make(map[string][]int64)
	for _, cfg := range []EngineConfig{Baseline(), FADE(dpt)} {
		rt, err := OpenRuntime(cfg, sc)
		if err != nil {
			return nil, err
		}
		g := workload.New(workload.Spec{
			Seed: 13, KeySpace: sc.KeySpace, ValueLen: sc.ValueLen,
			Dist: workload.Uniform, Mix: workload.Mix{Updates: 0.3, Deletes: 0.25},
		})
		if err := preload(rt, g); err != nil {
			return nil, err
		}
		per := sc.Ops / samples
		for s := 0; s < samples; s++ {
			if err := rt.RunOps(g, per); err != nil {
				rt.Close()
				return nil, err
			}
			if err := rt.DB.WaitIdle(); err != nil {
				rt.Close()
				return nil, err
			}
			counts[cfg.Name] = append(counts[cfg.Name], rt.DB.Stats().LiveTombstones.Get())
		}
		if err := rt.Close(); err != nil {
			return nil, err
		}
	}
	per := sc.Ops / samples
	for s := 0; s < samples; s++ {
		t.AddRow(I(int64((s+1)*per)), I(counts["baseline"][s]), I(counts["fade"][s]))
	}
	return t, nil
}

// E7StrategyMatrix reproduces Table 1: the Compactionary-style grid of
// shape x picker under a mixed delete workload.
func E7StrategyMatrix(sc Scale) (*Table, error) {
	t := &Table{
		ID:     "E7",
		Title:  "compaction strategy matrix (mixed workload, 10% deletes)",
		Header: []string{"shape", "picker", "wa", "sa", "within_dpt", "p99_persist", "live_tombs", "ttl_compactions"},
	}
	dpt := base.Duration(sc.Ops / 4)
	// Each case is one setting of the compaction.Layout; the first two
	// labels keep the historical "leveling"/"tiering" names so the grid
	// stays comparable across versions, and the lazy-leveling rows extend
	// it.
	cases := []struct {
		label string
		cfg   EngineConfig
	}{
		{"leveling", EngineConfig{Name: "lvl/minoverlap", Policy: compaction.PolicyLeveled, Picker: compaction.PickMinOverlap, GradeDPT: dpt}},
		{"leveling", EngineConfig{Name: "lvl/fade", Policy: compaction.PolicyLeveled, Picker: compaction.PickFADE, DPT: dpt}},
		{"tiering", EngineConfig{Name: "tier/minoverlap", Policy: compaction.PolicySizeTiered, Picker: compaction.PickMinOverlap, GradeDPT: dpt}},
		{"tiering", EngineConfig{Name: "tier/fade", Policy: compaction.PolicySizeTiered, Picker: compaction.PickFADE, DPT: dpt}},
		{"lazy-leveling", EngineConfig{Name: "lazy/minoverlap", Policy: compaction.PolicyLazyLeveling, Picker: compaction.PickMinOverlap, GradeDPT: dpt}},
		{"lazy-leveling", EngineConfig{Name: "lazy/fade", Policy: compaction.PolicyLazyLeveling, Picker: compaction.PickFADE, DPT: dpt}},
	}
	for _, c := range cases {
		rt, err := spaceWriteRun(c.cfg, sc, 0.10)
		if err != nil {
			return nil, err
		}
		st := rt.DB.Stats()
		within, p99, _ := violationStats(st)
		t.AddRow(c.label, c.cfg.Picker.String(),
			F(st.WriteAmplification()), F(rt.SpaceAmp()),
			Fx(within, 3), I(p99), I(st.LiveTombstones.Get()),
			I(st.CompactionsByTrigger[int(compaction.TriggerTTL)].Get()))
		if err := rt.Close(); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// E8Ingestion reproduces Figure 7: ingestion throughput overhead of FADE's
// write path.
func E8Ingestion(sc Scale) (*Table, error) {
	t := &Table{
		ID:     "E8",
		Title:  "ingestion throughput (writes + 15% deletes)",
		Header: []string{"engine", "ops/s", "wa", "overhead_pct"},
	}
	dpt := base.Duration(sc.Ops / 4)
	var baseTput float64
	for _, cfg := range []EngineConfig{Baseline(), FADE(dpt)} {
		rt, err := OpenRuntime(cfg, sc)
		if err != nil {
			return nil, err
		}
		g := workload.New(workload.Spec{
			Seed: 3, KeySpace: sc.KeySpace, ValueLen: sc.ValueLen,
			Mix: workload.Mix{Updates: 0.35, Deletes: 0.15},
		})
		start := time.Now()
		total := sc.KeySpace + sc.Ops
		if err := rt.RunOps(g, total); err != nil {
			rt.Close()
			return nil, err
		}
		if err := rt.DB.WaitIdle(); err != nil {
			rt.Close()
			return nil, err
		}
		elapsed := time.Since(start)
		tput := float64(total) / elapsed.Seconds()
		over := 0.0
		if cfg.Name == "baseline" {
			baseTput = tput
		} else if baseTput > 0 {
			over = (baseTput/tput - 1) * 100
		}
		t.AddRow(cfg.Name, Fx(tput, 0), F(rt.DB.Stats().WriteAmplification()), Fx(over, 1))
		if err := rt.Close(); err != nil {
			return nil, err
		}
	}
	return t, nil
}
