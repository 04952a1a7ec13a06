// Package harness reproduces the paper's evaluation: it builds engine
// configurations (delete-oblivious baseline vs FADE, leveling vs tiering,
// standard vs KiWi layout), drives deterministic workloads against them on
// an in-memory filesystem with a logical clock, and prints each
// table/figure of the evaluation as a text table. See DESIGN.md for the
// experiment index (E1..E8); EXPERIMENTS.md records the ablations (A1..A3),
// the policy sweep (C5) and the one wall-clock experiment kept here, C6.
// Speed is not measured here: that is benchmark/ and BENCHMARK.json.
package harness

import (
	"errors"
	"fmt"
	"io"
	"strings"

	"repro/internal/base"
	"repro/internal/compaction"
	"repro/internal/core"
	"repro/internal/vfs"
	"repro/internal/workload"
)

// Scale sizes an experiment. The defaults keep every experiment in the
// single-digit-seconds range on a laptop while still spanning 3+ levels.
type Scale struct {
	// KeySpace is the number of distinct keys.
	KeySpace int
	// ValueLen is the value size in bytes.
	ValueLen int
	// Ops is the number of operations in the measured phase.
	Ops int
	// MemTableBytes, BaseLevelBytes, TargetFileBytes size the tree.
	MemTableBytes   int64
	BaseLevelBytes  uint64
	TargetFileBytes uint64
	// SizeRatio is T.
	SizeRatio int
	// MaintainEvery runs maintenance to quiescence every this many ops.
	MaintainEvery int
}

// DefaultScale returns the standard experiment scale.
func DefaultScale() Scale {
	return Scale{
		KeySpace:        40_000,
		ValueLen:        128,
		Ops:             60_000,
		MemTableBytes:   96 << 10,
		BaseLevelBytes:  256 << 10,
		TargetFileBytes: 64 << 10,
		SizeRatio:       4,
		MaintainEvery:   64,
	}
}

// SmallScale is used by unit tests of the harness itself.
func SmallScale() Scale {
	s := DefaultScale()
	s.KeySpace = 4_000
	s.Ops = 8_000
	return s
}

// EngineConfig names one engine variant under test.
type EngineConfig struct {
	Name string
	// Policy selects the layout policy (leveled, size-tiered,
	// lazy-leveling); zero means leveled.
	Policy compaction.PolicyKind
	// Picker selects the saturated-level file picker.
	Picker compaction.Picker
	// DPT enables FADE when non-zero (in logical ticks; the harness
	// advances the clock one tick per operation).
	DPT base.Duration
	// GradeDPT is the deadline lateness is counted against, as tombstones
	// persist, in an engine that runs without a DPT (E1's baseline).
	GradeDPT base.Duration
	// TTLSplit selects the per-level DPT division.
	TTLSplit compaction.TTLSplit
	// PagesPerTile > 1 selects the KiWi layout.
	PagesPerTile int
	// EagerRangeDeletes enables the KiWi eager erase path.
	EagerRangeDeletes bool
	// BloomBitsPerKey overrides the default (10) when non-zero; -1
	// disables filters.
	BloomBitsPerKey int
}

// Baseline is the delete-oblivious leveled engine.
func Baseline() EngineConfig {
	return EngineConfig{Name: "baseline", Policy: compaction.PolicyLeveled, Picker: compaction.PickMinOverlap}
}

// FADE is the delete-aware engine with the given DPT.
func FADE(dpt base.Duration) EngineConfig {
	return EngineConfig{Name: "fade", Policy: compaction.PolicyLeveled, Picker: compaction.PickFADE, DPT: dpt}
}

// Runtime is an open engine plus its instrumented environment.
type Runtime struct {
	Config EngineConfig
	Scale  Scale
	DB     *core.DB
	FS     *vfs.MemFS
	Clock  *base.LogicalClock

	// LiveKeys tracks ground truth: how many distinct keys are live.
	liveKeys map[string]bool
	opCount  int
}

// OpenRuntime builds an engine for the config at the given scale.
func OpenRuntime(cfg EngineConfig, sc Scale) (*Runtime, error) {
	fs := vfs.NewMemFS()
	clk := &base.LogicalClock{}
	bloom := 10
	if cfg.BloomBitsPerKey > 0 {
		bloom = cfg.BloomBitsPerKey
	} else if cfg.BloomBitsPerKey < 0 {
		bloom = -1
	}
	opts := core.Options{
		FS:                     fs,
		Clock:                  clk,
		MemTableBytes:          sc.MemTableBytes,
		BloomBitsPerKey:        bloom,
		PagesPerTile:           cfg.PagesPerTile,
		DeleteKeyFunc:          workload.ExtractDeleteKey,
		EagerRangeDeletes:      cfg.EagerRangeDeletes,
		DisableAutoMaintenance: true,
		Compaction: compaction.Options{
			Policy:          cfg.Policy,
			Picker:          cfg.Picker,
			SizeRatio:       sc.SizeRatio,
			BaseLevelBytes:  sc.BaseLevelBytes,
			TargetFileBytes: sc.TargetFileBytes,
			DPT:             cfg.DPT,
			TTLSplit:        cfg.TTLSplit,
		},
	}
	db, err := core.Open("bench-db", opts)
	if err != nil {
		return nil, err
	}
	if cfg.DPT == 0 {
		db.Stats().SetPersistenceDeadline(cfg.GradeDPT)
	}
	return &Runtime{Config: cfg, Scale: sc, DB: db, FS: fs, Clock: clk, liveKeys: make(map[string]bool)}, nil
}

// metricsSink, when set, receives every Runtime's engine just before it
// closes — the moment its metrics are final. acheron-bench uses it to dump
// a per-experiment metric snapshot next to each result table.
var metricsSink func(configName string, db *core.DB)

// SetMetricsSink installs fn as the metrics sink (nil disables). Not safe
// to call while experiments are running.
func SetMetricsSink(fn func(configName string, db *core.DB)) { metricsSink = fn }

// Close shuts the engine down, handing the final metrics to the sink first.
func (rt *Runtime) Close() error {
	if metricsSink != nil {
		metricsSink(rt.Config.Name, rt.DB)
	}
	return rt.DB.Close()
}

// Apply executes one workload op, advancing the logical clock one tick and
// running maintenance periodically.
func (rt *Runtime) Apply(op workload.Op) error {
	rt.Clock.Advance(1)
	rt.opCount++
	var err error
	switch op.Kind {
	case workload.OpInsert, workload.OpUpdate:
		err = rt.DB.Put(op.Key, op.Value)
		if err == nil {
			rt.liveKeys[string(op.Key)] = true
		}
	case workload.OpDelete:
		err = rt.DB.Delete(op.Key)
		if err == nil {
			delete(rt.liveKeys, string(op.Key))
		}
	case workload.OpLookup:
		_, err = rt.DB.Get(op.Key)
		if errors.Is(err, core.ErrNotFound) {
			err = nil
		}
	case workload.OpScan:
		var it *core.Iter
		it, err = rt.DB.NewIter(core.IterOptions{})
		if err == nil {
			n := 0
			for ok := it.SeekGE(op.Key); ok && n < op.ScanLen; ok = it.Next() {
				n++
			}
			err = it.Close()
		}
	case workload.OpRangeDelete:
		err = rt.DB.DeleteSecondaryRange(op.Lo, op.Hi)
		// Ground truth: range deletes are tracked coarsely; the
		// experiments that use them compute liveness from the engine.
	}
	if err != nil {
		return fmt.Errorf("%s %q: %w", op.Kind, op.Key, err)
	}
	if rt.Scale.MaintainEvery > 0 && rt.opCount%rt.Scale.MaintainEvery == 0 {
		return rt.DB.WaitIdle()
	}
	return nil
}

// RunOps drives n ops from the generator.
func (rt *Runtime) RunOps(g *workload.Generator, n int) error {
	for i := 0; i < n; i++ {
		if err := rt.Apply(g.Next()); err != nil {
			return err
		}
	}
	return nil
}

// Settle advances the clock by d in steps, running maintenance after each
// step, giving TTL-triggered compactions their chance to fire.
func (rt *Runtime) Settle(d base.Duration, steps int) error {
	if steps <= 0 {
		steps = 10
	}
	if err := rt.DB.Flush(); err != nil {
		return err
	}
	for i := 0; i < steps; i++ {
		rt.Clock.Advance(d / base.Duration(steps))
		if err := rt.DB.WaitIdle(); err != nil {
			return err
		}
	}
	return nil
}

// LiveLogicalBytes estimates the ground-truth live data size.
func (rt *Runtime) LiveLogicalBytes() int64 {
	var n int64
	for k := range rt.liveKeys {
		n += int64(len(k) + rt.Scale.ValueLen)
	}
	return n
}

// SpaceAmp returns diskBytes / liveLogicalBytes.
func (rt *Runtime) SpaceAmp() float64 {
	live := rt.LiveLogicalBytes()
	if live == 0 {
		return 0
	}
	return float64(rt.DB.DiskSize()) / float64(live)
}

// ---------------------------------------------------------------------------
// Result tables

// Table is a rendered experiment result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.Join(parts, "  "))
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// F formats a float with 2 decimals; Fx with the given precision.
func F(v float64) string { return fmt.Sprintf("%.2f", v) }

// Fx formats a float with prec decimals.
func Fx(v float64, prec int) string { return fmt.Sprintf("%.*f", prec, v) }

// I formats an int64.
func I(v int64) string { return fmt.Sprintf("%d", v) }
