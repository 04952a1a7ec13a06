// Package compaction implements Acheron's compaction layer: one Layout —
// leveled, size-tiered or lazy-leveling, by where its single-run region
// starts — composed with FADE, the delete-aware machinery that partitions
// the delete persistence threshold (DPT) into per-level TTLs and triggers
// compactions when a file's oldest tombstone overstays its level budget,
// guaranteeing that every tombstone reaches the last level (and physically
// erases what it shadows) within the DPT, regardless of layout.
package compaction

import (
	"math"

	"repro/internal/base"
	"repro/internal/manifest"
	"repro/internal/memtable"
)

// Picker selects which file a saturated level compacts first.
type Picker int

const (
	// PickMinOverlap is the delete-oblivious baseline: choose the file
	// with the least byte overlap with the next level, minimizing write
	// amplification.
	PickMinOverlap Picker = iota
	// PickFADE chooses expired-TTL files first, then the file with the
	// highest tombstone density, pushing deletes toward the last level.
	PickFADE
	// PickOldestTombstone is an ablation of FADE's tie-breaker: choose
	// the file whose oldest tombstone is oldest.
	PickOldestTombstone
)

// String implements fmt.Stringer.
func (p Picker) String() string {
	switch p {
	case PickFADE:
		return "fade"
	case PickOldestTombstone:
		return "oldest-tombstone"
	}
	return "min-overlap"
}

// TTLSplit selects how the DPT is divided among levels.
type TTLSplit int

const (
	// SplitExponential assigns level i a TTL proportional to T^i (the
	// Lethe allocation): deeper levels, which hold exponentially more
	// data and compact exponentially less often, get proportionally more
	// budget.
	SplitExponential TTLSplit = iota
	// SplitUniform divides the DPT evenly across levels (ablation).
	SplitUniform
)

// Trigger records why a compaction was scheduled.
type Trigger int

const (
	// TriggerL0 fires when level 0 accumulates too many runs.
	TriggerL0 Trigger = iota
	// TriggerSaturation fires when a level exceeds its byte capacity.
	TriggerSaturation
	// TriggerTTL fires when a file's oldest tombstone exceeds its
	// cumulative level TTL — the FADE delete-persistence trigger.
	TriggerTTL
	// TriggerRangeDelete fires when a live secondary range tombstone can
	// erase (part of) a tombstone-free file: the KiWi eager erase. Its
	// candidates are in place — StartLevel == OutputLevel, one input file,
	// the outputs rejoin the file's own run.
	TriggerRangeDelete
)

// String implements fmt.Stringer.
func (t Trigger) String() string {
	switch t {
	case TriggerSaturation:
		return "saturation"
	case TriggerTTL:
		return "ttl"
	case TriggerRangeDelete:
		return "range-delete"
	}
	return "l0"
}

// PolicyKind names a built-in layout policy.
type PolicyKind int

const (
	// PolicyDefault, the zero value, selects PolicyLeveled.
	PolicyDefault PolicyKind = iota
	// PolicyLeveled keeps one sorted run per level below L0.
	PolicyLeveled
	// PolicySizeTiered allows up to SizeRatio runs per level, merging the
	// whole level into a fresh run at the next level when it fills.
	PolicySizeTiered
	// PolicyLazyLeveling tiers the upper levels (up to SizeRatio runs
	// each) but keeps the last populated level as a single sorted run —
	// the Dostoevsky hybrid: tiering's write cost where merges are
	// frequent, leveling's read/space cost where most data lives.
	PolicyLazyLeveling
)

// String implements fmt.Stringer using the policies' canonical names.
func (k PolicyKind) String() string {
	switch k {
	case PolicySizeTiered:
		return "size-tiered"
	case PolicyLazyLeveling:
		return "lazy-leveling"
	case PolicyLeveled:
		return "leveled"
	}
	return "default"
}

// ParsePolicyKind maps a policy name, as printed by PolicyKind.String, to
// its kind; the empty string also selects PolicyDefault.
func ParsePolicyKind(s string) (PolicyKind, bool) {
	switch s {
	case "leveled":
		return PolicyLeveled, true
	case "size-tiered":
		return PolicySizeTiered, true
	case "lazy-leveling":
		return PolicyLazyLeveling, true
	case "", "default":
		return PolicyDefault, true
	}
	return PolicyDefault, false
}

// Options configure the compaction policy.
type Options struct {
	// Policy selects the layout policy; PolicyDefault means PolicyLeveled.
	Policy PolicyKind
	// Picker selects the saturated-level file picker.
	Picker Picker
	// SizeRatio is T, the capacity ratio between adjacent levels (and the
	// run fan-in under tiering). Default 10.
	SizeRatio int
	// L0Threshold is the number of level-0 runs that triggers an L0
	// compaction. Default 4.
	L0Threshold int
	// BaseLevelBytes is level 1's byte capacity. Default 8 MiB.
	BaseLevelBytes uint64
	// DPT is the delete persistence threshold. Zero disables FADE's TTL
	// trigger entirely (the delete-oblivious baseline).
	DPT base.Duration
	// TTLSplit selects the per-level division of the DPT.
	TTLSplit TTLSplit
	// TargetFileBytes caps output file size. Default 2 MiB.
	TargetFileBytes uint64
}

// WithDefaults fills unset fields.
func (o Options) WithDefaults() Options {
	if o.Policy == PolicyDefault {
		o.Policy = PolicyLeveled
	}
	if o.SizeRatio <= 1 {
		o.SizeRatio = 10
	}
	if o.L0Threshold <= 0 {
		o.L0Threshold = 4
	}
	if o.BaseLevelBytes == 0 {
		o.BaseLevelBytes = 8 << 20
	}
	if o.TargetFileBytes == 0 {
		o.TargetFileBytes = 2 << 20
	}
	return o
}

// LevelCapacity returns level l's byte capacity. Level 0 is governed by run
// count, not bytes.
func (o Options) LevelCapacity(l int) uint64 {
	if l <= 0 {
		return 0
	}
	cap := o.BaseLevelBytes
	for i := 1; i < l; i++ {
		cap *= uint64(o.SizeRatio)
	}
	return cap
}

// LevelTTLAt returns d_l, level l's share of the DPT, for a tree whose
// deepest populated level is depth. A tombstone arriving at the deepest
// level is disposed of by the compaction that brought it there, so the DPT
// is partitioned across levels 0..depth-1 only — partitioning across the
// engine's full (mostly empty) level budget would starve the shallow
// levels and trigger far more delete-driven compactions than necessary.
// Returns 0 when FADE is disabled.
func (o Options) LevelTTLAt(l, depth int) base.Duration {
	if depth < 1 {
		depth = 1
	}
	if depth > manifest.NumLevels-1 {
		depth = manifest.NumLevels - 1
	}
	if o.DPT == 0 || l < 0 || l >= depth {
		return 0
	}
	switch o.TTLSplit {
	case SplitUniform:
		return o.DPT / base.Duration(depth)
	default:
		// d_0 = D (T-1) / (T^depth - 1); d_i = d_0 T^i. The geometric
		// sum of d_0..d_{depth-1} is exactly D.
		t := float64(o.SizeRatio)
		d0 := float64(o.DPT) * (t - 1) / (math.Pow(t, float64(depth)) - 1)
		return base.Duration(d0 * math.Pow(t, float64(l)))
	}
}

// CumulativeTTLAt returns the total TTL budget for a tombstone residing at
// level l of a depth-deep tree: the sum of the TTLs of levels 0..l. A file
// at level l whose oldest tombstone was created at ts has expired when
// now > ts + CumulativeTTLAt(l, depth).
func (o Options) CumulativeTTLAt(l, depth int) base.Duration {
	var sum base.Duration
	for i := 0; i <= l; i++ {
		sum += o.LevelTTLAt(i, depth)
	}
	return sum
}

// Candidate describes a compaction the picker selected.
type Candidate struct {
	// Trigger records why this compaction was chosen.
	Trigger Trigger
	// StartLevel and OutputLevel bound the compaction. Equal levels mark an
	// in-place rewrite: the outputs replace the inputs in run OutputRunID.
	StartLevel  int
	OutputLevel int
	// Inputs are the start-level input runs. Under leveling this is a
	// single partial run (the picked files); under tiering or L0 it is
	// every run of the start level.
	Inputs []*manifest.Run
	// Mem, when set, is a sealed memtable merged as the job's newest input,
	// ahead of Inputs: the flush Layout.PickFlush sends straight into level
	// 1. MemMeta describes it as the level-0 table a flush would write from
	// it; its key span counts in the candidate's rectangle.
	Mem     *memtable.MemTable
	MemMeta *manifest.FileMetadata
	// InputLevels, when non-nil, gives each input run's level (parallel
	// to Inputs); nil means every run is at StartLevel. TTL-triggered
	// tiering compactions span two levels so the tombstone can actually
	// be disposed of.
	InputLevels []int
	// OutputRunFiles are the overlapping files of the output level's run
	// that must be merged (leveling only; empty under tiering).
	OutputRunFiles []*manifest.FileMetadata
	// OutputRunID is the run the outputs join. Under leveled output it is
	// the output level's existing single run (or a fresh id); under
	// tiered output it is always a fresh id, allocated by the caller.
	OutputRunID uint64
	// OutputToNewRun marks a tiered output: the compaction's results form
	// a fresh sorted run beside the output level's existing runs instead
	// of merging into its single run. The engine allocates the run id at
	// commit time and skips the trivial-move fast path (a moved file would
	// land beside runs it may overlap).
	OutputToNewRun bool
	// Score orders candidates (higher = more urgent).
	Score float64
}

// InputFiles returns all start-level files of the candidate.
func (c *Candidate) InputFiles() []*manifest.FileMetadata {
	var out []*manifest.FileMetadata
	for _, r := range c.Inputs {
		out = append(out, r.Files...)
	}
	return out
}

// InputLevel returns the level of input run i.
func (c *Candidate) InputLevel(i int) int {
	if c.InputLevels != nil {
		return c.InputLevels[i]
	}
	return c.StartLevel
}
