package harness

import (
	"errors"
	"time"

	"repro/internal/base"
	"repro/internal/compaction"
	"repro/internal/core"
	"repro/internal/workload"
)

// A1TTLSplit ablates FADE's per-level TTL allocation: the Lethe exponential
// split against a uniform split of the same DPT.
func A1TTLSplit(sc Scale) (*Table, error) {
	t := &Table{
		ID:     "A1",
		Title:  "ablation: DPT split across levels (exponential vs uniform)",
		Header: []string{"split", "within_dpt", "p99_persist", "wa", "ttl_compactions"},
		Notes: []string{
			"exponential gives deep (rarely compacted) levels proportionally more budget",
			"uniform starves deep levels and over-triggers shallow ones",
		},
	}
	dpt := base.Duration(sc.Ops / 2)
	for _, split := range []compaction.TTLSplit{compaction.SplitExponential, compaction.SplitUniform} {
		cfg := FADE(dpt)
		cfg.TTLSplit = split
		cfg.Name = map[compaction.TTLSplit]string{
			compaction.SplitExponential: "exponential",
			compaction.SplitUniform:     "uniform",
		}[split]
		rt, err := spaceWriteRun(cfg, sc, 0.15)
		if err != nil {
			return nil, err
		}
		st := rt.DB.Stats()
		within, p99, _ := violationStats(st)
		t.AddRow(cfg.Name, Fx(within, 3), I(p99), F(st.WriteAmplification()),
			I(st.CompactionsByTrigger[int(compaction.TriggerTTL)].Get()))
		if err := rt.Close(); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// A2BloomBits ablates the Bloom filter budget's effect on point-lookup
// throughput over a delete-heavy store.
func A2BloomBits(sc Scale) (*Table, error) {
	t := &Table{
		ID:     "A2",
		Title:  "ablation: bloom bits/key vs point-lookup cost",
		Header: []string{"bits_per_key", "lookups/s", "probes/get", "skips/get"},
	}
	dpt := base.Duration(sc.Ops / 4)
	for _, bits := range []int{-1, 5, 10, 15} {
		cfg := FADE(dpt)
		cfg.BloomBitsPerKey = bits
		rt, err := spaceWriteRun(cfg, sc, 0.15)
		if err != nil {
			return nil, err
		}
		g := workload.New(workload.Spec{
			Seed: 31, KeySpace: sc.KeySpace, ValueLen: sc.ValueLen,
			Dist: workload.Zipfian, Mix: workload.Mix{Lookups: 1}, LookupMissRatio: 0.3,
		})
		g.PrimeInserted(sc.KeySpace)
		st := rt.DB.Stats()
		g0, tp0, bs0 := st.Gets.Get(), st.TablesProbed.Get(), st.BloomSkips.Get()
		n := sc.Ops / 4
		start := time.Now()
		for i := 0; i < n; i++ {
			op := g.Next()
			if _, err := rt.DB.Get(op.Key); err != nil && !errors.Is(err, core.ErrNotFound) {
				rt.Close()
				return nil, err
			}
		}
		elapsed := time.Since(start)
		gets := st.Gets.Get() - g0
		label := "off"
		if bits > 0 {
			label = I(int64(bits))
		}
		t.AddRow(label,
			Fx(float64(gets)/elapsed.Seconds(), 0),
			F(float64(st.TablesProbed.Get()-tp0)/float64(gets)),
			F(float64(st.BloomSkips.Get()-bs0)/float64(gets)))
		if err := rt.Close(); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// A3FADETieBreak ablates FADE's saturated-level tie-breaking criterion:
// tombstone density vs oldest tombstone vs the min-overlap baseline, all
// with the TTL trigger active.
func A3FADETieBreak(sc Scale) (*Table, error) {
	t := &Table{
		ID:     "A3",
		Title:  "ablation: saturated-level file picker under a DPT",
		Header: []string{"picker", "within_dpt", "p99_persist", "wa", "live_tombstones"},
	}
	dpt := base.Duration(sc.Ops / 2)
	for _, picker := range []compaction.Picker{
		compaction.PickMinOverlap, compaction.PickFADE, compaction.PickOldestTombstone,
	} {
		cfg := EngineConfig{
			Name:   picker.String(),
			Policy: compaction.PolicyLeveled,
			Picker: picker,
			DPT:    dpt,
		}
		rt, err := spaceWriteRun(cfg, sc, 0.15)
		if err != nil {
			return nil, err
		}
		st := rt.DB.Stats()
		within, p99, _ := violationStats(st)
		t.AddRow(cfg.Name, Fx(within, 3), I(p99), F(st.WriteAmplification()), I(st.LiveTombstones.Get()))
		if err := rt.Close(); err != nil {
			return nil, err
		}
	}
	return t, nil
}
