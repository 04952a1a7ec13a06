package compaction

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/base"
	"repro/internal/manifest"
)

func ik(s string, seq base.SeqNum) base.InternalKey {
	return base.MakeInternalKey([]byte(s), seq, base.KindSet)
}

func file(num int, lo, hi string, size uint64) *manifest.FileMetadata {
	return &manifest.FileMetadata{
		FileNum:    base.FileNum(num),
		Size:       size,
		Smallest:   ik(lo, 100),
		Largest:    ik(hi, 1),
		NumEntries: size / 100,
	}
}

func tombFile(num int, lo, hi string, size uint64, oldest base.Timestamp, deletes uint64) *manifest.FileMetadata {
	f := file(num, lo, hi, size)
	f.HasTombstones = true
	f.OldestTombstone = oldest
	f.NumDeletes = deletes
	return f
}

func addFiles(t *testing.T, v *manifest.Version, level int, runID uint64, files ...*manifest.FileMetadata) *manifest.Version {
	t.Helper()
	e := &manifest.VersionEdit{}
	for _, f := range files {
		e.Added = append(e.Added, manifest.NewFileEntry{Level: level, RunID: runID, Meta: f})
	}
	nv, err := v.Apply(e)
	if err != nil {
		t.Fatal(err)
	}
	return nv
}

// pick asks o's configured layout for the most urgent compaction.
func pick(v *manifest.Version, o Options, now base.Timestamp, haveSnapshots bool, inflight InFlightSet) *Candidate {
	return o.NewLayout().Pick(v, now, haveSnapshots, inflight)
}

// TestTTLSplitSumsToDPT: the per-level TTLs must partition the DPT exactly
// (within float slack) for every depth, ratio and split strategy.
func TestTTLSplitSumsToDPT(t *testing.T) {
	f := func(dptRaw uint32, ratioRaw, depthRaw uint8, uniform bool) bool {
		dpt := base.Duration(dptRaw%1_000_000 + 1000)
		o := Options{SizeRatio: int(ratioRaw%9) + 2, DPT: dpt}
		if uniform {
			o.TTLSplit = SplitUniform
		}
		o = o.WithDefaults()
		depth := int(depthRaw%(manifest.NumLevels-1)) + 1
		var sum base.Duration
		for l := 0; l < depth; l++ {
			d := o.LevelTTLAt(l, depth)
			if d < 0 {
				return false
			}
			sum += d
		}
		return math.Abs(float64(sum-dpt)) <= float64(dpt)/100+float64(depth)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestTTLExponentialGrowsByRatio(t *testing.T) {
	o := Options{SizeRatio: 4, DPT: 1_000_000}.WithDefaults()
	depth := 4
	for l := 0; l+1 < depth; l++ {
		d0, d1 := o.LevelTTLAt(l, depth), o.LevelTTLAt(l+1, depth)
		ratio := float64(d1) / float64(d0)
		if ratio < 3.9 || ratio > 4.1 {
			t.Fatalf("TTL ratio between levels %d/%d = %.2f, want ~4", l, l+1, ratio)
		}
	}
}

func TestTTLDisabledWithoutDPT(t *testing.T) {
	o := Options{SizeRatio: 4}.WithDefaults()
	if o.LevelTTLAt(0, 3) != 0 || o.CumulativeTTLAt(2, 3) != 0 {
		t.Fatal("TTLs should be zero when DPT is disabled")
	}
}

func TestLevelCapacityGeometric(t *testing.T) {
	o := Options{SizeRatio: 10, BaseLevelBytes: 1000}.WithDefaults()
	if o.LevelCapacity(1) != 1000 || o.LevelCapacity(2) != 10_000 || o.LevelCapacity(3) != 100_000 {
		t.Fatal("capacities not geometric")
	}
	if o.LevelCapacity(0) != 0 {
		t.Fatal("L0 has no byte capacity")
	}
}

func TestPickNothingWhenHealthy(t *testing.T) {
	v := &manifest.Version{}
	v = addFiles(t, v, 1, 1, file(1, "a", "m", 1000))
	o := Options{BaseLevelBytes: 1 << 20, SizeRatio: 4}
	if c := pick(v, o, 0, false, nil); c != nil {
		t.Fatalf("healthy tree picked %+v", c)
	}
}

func TestPickL0Threshold(t *testing.T) {
	v := &manifest.Version{}
	for i := 0; i < 4; i++ {
		v = addFiles(t, v, 0, uint64(i+1), file(i+1, "a", "z", 100))
	}
	o := Options{L0Threshold: 4, BaseLevelBytes: 1 << 20}
	c := pick(v, o.WithDefaults(), 0, false, nil)
	if c == nil || c.Trigger != TriggerL0 {
		t.Fatalf("expected L0 trigger, got %+v", c)
	}
	if len(c.Inputs) != 4 || c.StartLevel != 0 || c.OutputLevel != 1 {
		t.Fatalf("L0 candidate shape: %+v", c)
	}
}

func TestPickSaturationLeveling(t *testing.T) {
	v := &manifest.Version{}
	// L1 over capacity; L2 has overlap with one input.
	v = addFiles(t, v, 1, 1,
		file(1, "a", "f", 600),
		file(2, "g", "m", 600))
	v = addFiles(t, v, 2, 2, file(3, "a", "c", 500))
	o := Options{BaseLevelBytes: 1000, SizeRatio: 4, Picker: PickMinOverlap}.WithDefaults()
	c := pick(v, o, 0, false, nil)
	if c == nil || c.Trigger != TriggerSaturation {
		t.Fatalf("expected saturation trigger, got %+v", c)
	}
	files := c.InputFiles()
	if len(files) != 1 || files[0].FileNum != 2 {
		t.Fatalf("min-overlap should pick file 2 (no overlap), got %v", files[0].FileNum)
	}
	if len(c.OutputRunFiles) != 0 {
		t.Fatal("file 2 has no output overlap")
	}
}

func TestPickFADEPrefersTombstoneDensity(t *testing.T) {
	v := &manifest.Version{}
	v = addFiles(t, v, 1, 1,
		file(1, "a", "f", 600),
		tombFile(2, "g", "m", 600, 0, 3)) // tombstone-dense
	o := Options{BaseLevelBytes: 1000, SizeRatio: 4, Picker: PickFADE}.WithDefaults()
	c := pick(v, o, 0, false, nil)
	if c == nil {
		t.Fatal("no candidate")
	}
	if got := c.InputFiles()[0].FileNum; got != 2 {
		t.Fatalf("FADE should pick the tombstone-dense file, got %v", got)
	}
}

func TestPickTTLTakesPriority(t *testing.T) {
	v := &manifest.Version{}
	// A healthy (unsaturated) L1 with one expired-tombstone file.
	v = addFiles(t, v, 1, 1, tombFile(1, "a", "m", 100, 0, 5))
	v = addFiles(t, v, 2, 2, file(9, "a", "z", 100))
	o := Options{BaseLevelBytes: 1 << 20, SizeRatio: 4, DPT: 1000, Picker: PickFADE}.WithDefaults()

	// Before the deadline: nothing to do.
	if c := pick(v, o, 10, false, nil); c != nil {
		t.Fatalf("premature TTL pick: %+v", c)
	}
	// After the whole DPT has certainly elapsed: must fire.
	c := pick(v, o, 2000, false, nil)
	if c == nil || c.Trigger != TriggerTTL {
		t.Fatalf("expected TTL trigger, got %+v", c)
	}
	if c.StartLevel != 1 || c.OutputLevel != 2 {
		t.Fatalf("TTL candidate levels: %+v", c)
	}
	if len(c.OutputRunFiles) != 1 || c.OutputRunFiles[0].FileNum != 9 {
		t.Fatal("TTL candidate must merge with overlapping output files")
	}
}

func TestPickTTLBatchesExpiredFiles(t *testing.T) {
	v := &manifest.Version{}
	v = addFiles(t, v, 1, 1,
		tombFile(1, "a", "c", 100, 500, 1), // expired (less overdue)
		tombFile(2, "e", "g", 100, 0, 1),   // expired (most overdue)
		file(3, "m", "p", 100),             // no tombstones: not included
	)
	o := Options{BaseLevelBytes: 1 << 20, SizeRatio: 4, DPT: 100, Picker: PickFADE}.WithDefaults()
	c := pick(v, o, 5000, false, nil)
	if c == nil || c.Trigger != TriggerTTL {
		t.Fatalf("no TTL candidate: %+v", c)
	}
	files := c.InputFiles()
	if len(files) != 2 {
		t.Fatalf("expected both expired files batched, got %d", len(files))
	}
	for _, f := range files {
		if f.FileNum == 3 {
			t.Fatal("unexpired file included in TTL batch")
		}
	}
	// The score reflects the most overdue member.
	if c.Score < 4000 {
		t.Fatalf("score %f should reflect the most overdue file", c.Score)
	}
}

func TestPickTTLOnlyExpiredAtDeadline(t *testing.T) {
	v := &manifest.Version{}
	v = addFiles(t, v, 1, 1,
		tombFile(1, "a", "c", 100, 0, 1),    // expired at now=5000
		tombFile(2, "e", "g", 100, 4950, 1), // not yet expired
	)
	o := Options{BaseLevelBytes: 1 << 20, SizeRatio: 4, DPT: 100, Picker: PickFADE}.WithDefaults()
	c := pick(v, o, 5000, false, nil)
	if c == nil {
		t.Fatal("no candidate")
	}
	files := c.InputFiles()
	if len(files) != 1 || files[0].FileNum != 1 {
		t.Fatalf("only the expired file should compact, got %v", files)
	}
}

func TestPickTieringMergesWholeLevelOnRunCount(t *testing.T) {
	v := &manifest.Version{}
	for i := 0; i < 4; i++ {
		v = addFiles(t, v, 1, uint64(i+1), file(i+1, "a", "z", 100))
	}
	o := Options{Policy: PolicySizeTiered, SizeRatio: 4, BaseLevelBytes: 1 << 30}.WithDefaults()
	c := pick(v, o, 0, false, nil)
	if c == nil || c.Trigger != TriggerSaturation {
		t.Fatalf("expected tiering saturation, got %+v", c)
	}
	if len(c.Inputs) != 4 {
		t.Fatalf("tiering should merge all runs, got %d", len(c.Inputs))
	}
	if len(c.OutputRunFiles) != 0 {
		t.Fatal("tiering must not merge into the output level's runs")
	}
}

func TestTieringBelowRunThresholdIdle(t *testing.T) {
	v := &manifest.Version{}
	for i := 0; i < 3; i++ {
		v = addFiles(t, v, 1, uint64(i+1), file(i+1, "a", "z", 1<<30))
	}
	o := Options{Policy: PolicySizeTiered, SizeRatio: 4, BaseLevelBytes: 1}.WithDefaults()
	if c := pick(v, o, 0, false, nil); c != nil {
		t.Fatalf("tiering should ignore byte saturation, got %+v", c)
	}
}

func TestExpiredUsesDepthBudget(t *testing.T) {
	p := Options{SizeRatio: 4, DPT: 1000}.NewLayout()
	f := tombFile(1, "a", "b", 100, 0, 1)
	// expiredAt asks whether f, at level l of a tree depth levels deep,
	// has expired by now.
	expiredAt := func(l, depth int, now base.Timestamp) bool {
		v := addFiles(t, &manifest.Version{}, depth, 1, file(2, "a", "b", 100))
		pc := p.newPickCtx(v, now, false, nil)
		_, exp := pc.expired(f, l)
		return exp
	}
	// Depth 1: a level-0 file gets the whole DPT.
	if expiredAt(0, 1, 999) {
		t.Fatal("expired before the DPT elapsed at depth 1")
	}
	if !expiredAt(0, 1, 1001) {
		t.Fatal("not expired after the DPT at depth 1")
	}
	// Depth 3: level 0's budget is a small slice of the DPT.
	d0 := p.o.LevelTTLAt(0, 3)
	if !expiredAt(0, 3, base.Timestamp(d0)+2) {
		t.Fatalf("file at L0 should expire after its slice d0=%d", d0)
	}
	// A file resting at the deepest level uses the full DPT.
	if expiredAt(3, 3, 999) {
		t.Fatal("deepest-level file expired early")
	}
	if !expiredAt(3, 3, 1001) {
		t.Fatal("deepest-level file never expires")
	}
}

func TestNoSnapshotIn(t *testing.T) {
	snaps := []base.SeqNum{10, 20, 30}
	cases := []struct {
		lo, hi base.SeqNum
		want   bool
	}{
		{0, 5, true},
		{0, 11, false},
		{10, 11, false}, // snapshot at exactly lo
		{11, 20, true},  // hi exclusive
		{11, 21, false},
		{31, 100, true},
	}
	for _, c := range cases {
		if got := noSnapshotIn(snaps, c.lo, c.hi); got != c.want {
			t.Errorf("noSnapshotIn(%d,%d) = %v, want %v", c.lo, c.hi, got, c.want)
		}
	}
	if !noSnapshotIn(nil, 0, 1000) {
		t.Error("no snapshots means always true")
	}
}

func TestCandidateScorePicksWorstLevel(t *testing.T) {
	v := &manifest.Version{}
	v = addFiles(t, v, 1, 1, file(1, "a", "m", 1500))   // 1.5x over
	v = addFiles(t, v, 2, 2, file(2, "a", "m", 12_000)) // 3x over
	o := Options{BaseLevelBytes: 1000, SizeRatio: 4, Picker: PickMinOverlap}.WithDefaults()
	c := pick(v, o, 0, false, nil)
	if c == nil || c.StartLevel != 2 {
		t.Fatalf("worst level not chosen: %+v", c)
	}
}

// TestPickMergesMultiRunLevelWhole: a level the layout keeps as one run but
// that in fact holds several (the store was last written under a tiering
// policy) is merged whole, both runs together, on every path that would
// otherwise move a single file of the newest run below the older run's
// versions of the same keys.
func TestPickMergesMultiRunLevelWhole(t *testing.T) {
	cases := []struct {
		name    string
		newest  *manifest.FileMetadata // run 2 of L1, overlapping run 1
		o       Options
		now     base.Timestamp
		trigger Trigger
	}{
		{"under-capacity", file(2, "c", "k", 100),
			Options{Policy: PolicyLeveled, BaseLevelBytes: 1 << 20, SizeRatio: 4}, 0, TriggerSaturation},
		{"byte-saturated", file(2, "c", "k", 900),
			Options{Policy: PolicyLeveled, BaseLevelBytes: 1000, SizeRatio: 4, Picker: PickMinOverlap}, 0, TriggerSaturation},
		{"ttl-expired", tombFile(2, "c", "k", 100, 0, 1),
			Options{Policy: PolicyLeveled, BaseLevelBytes: 1 << 20, SizeRatio: 4, DPT: 100, Picker: PickFADE}, 5000, TriggerTTL},
	}
	for _, tc := range cases {
		v := addFiles(t, &manifest.Version{}, 1, 1, file(1, "a", "m", 600))
		v = addFiles(t, v, 1, 2, tc.newest)
		v = addFiles(t, v, 2, 3, file(3, "a", "z", 100))
		c := pick(v, tc.o, tc.now, false, nil)
		if c == nil || c.Trigger != tc.trigger || c.StartLevel != 1 || c.OutputLevel != 2 {
			t.Fatalf("%s: got %+v", tc.name, c)
		}
		if len(c.Inputs) != 2 || len(c.InputFiles()) != 2 {
			t.Fatalf("%s: want both runs of L1 whole, got %d runs / %d files", tc.name, len(c.Inputs), len(c.InputFiles()))
		}
		if c.OutputToNewRun || len(c.OutputRunFiles) != 1 {
			t.Fatalf("%s: the merge must join L2's run: %+v", tc.name, c)
		}
	}
}

// pickBenchTree is a populated four-level version: two level-0 runs and
// single runs of 4, 40 and 396 files at levels 1-3, every file carrying a
// tombstone as old as its file number, keys k000000.. repeating per level.
// pickBenchClaims are two running jobs over it: a level 1 -> 2 merge over the
// low keys and a level 2 -> 3 merge further right.
func pickBenchTree(tb testing.TB) *manifest.Version {
	e := &manifest.VersionEdit{}
	num := 0
	for l, n := range []int{2, 4, 40, 396} {
		for i := 0; i < n; i++ {
			num++
			lo, hi := fmt.Sprintf("k%06d", 2*i), fmt.Sprintf("k%06d", 2*i+1)
			runID := uint64(l)
			if l == 0 {
				runID = uint64(10 + i) // one run per level-0 file
			}
			e.Added = append(e.Added, manifest.NewFileEntry{Level: l, RunID: runID, Meta: tombFile(num, lo, hi, 1000, base.Timestamp(num), 1)})
		}
	}
	v, err := (&manifest.Version{}).Apply(e)
	if err != nil {
		tb.Fatal(err)
	}
	return v
}

var pickBenchClaims = InFlightSet{
	1: rect(1, 2, "k000000", "k000020"),
	2: rect(2, 3, "k000100", "k000300"),
}

// BenchmarkPick measures one Pick over pickBenchTree under each policy:
// idle — the DPT far away and no running job, so the TTL scan visits every
// file and nothing is picked — and claimed — the DPT spent, levels 1-3 at
// or over capacity, beside pickBenchClaims' two running jobs.
func BenchmarkPick(b *testing.B) {
	v := pickBenchTree(b)
	for _, kind := range []PolicyKind{PolicyLeveled, PolicySizeTiered, PolicyLazyLeveling} {
		idle := Options{Policy: kind, Picker: PickFADE, DPT: 1 << 40, BaseLevelBytes: 1 << 20}.NewLayout()
		b.Run("idle/"+kind.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if c := idle.Pick(v, 1000, false, nil); c != nil {
					b.Fatalf("idle tree picked %+v", c)
				}
			}
		})
		busy := Options{Policy: kind, Picker: PickFADE, DPT: 600, BaseLevelBytes: 4000}.NewLayout()
		b.Run("claimed/"+kind.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				busy.Pick(v, 1000, false, pickBenchClaims)
			}
		})
	}
}

// TestPickAllocCeiling: a pick beside running jobs allocates the candidate
// it builds and nothing per file or per claim checked — the conflict test
// reads the running rectangles in place.
func TestPickAllocCeiling(t *testing.T) {
	v := pickBenchTree(t)
	for _, tc := range []struct {
		kind    PolicyKind
		pick    bool // whether any work is free of the running jobs
		ceiling float64
	}{
		{PolicyLeveled, true, 8},
		// The most overdue free file is in level 0, whose whole-level push
		// pulls tiered level 1 in and so overlaps the level 1 -> 2 claim.
		{PolicySizeTiered, false, 5},
		{PolicyLazyLeveling, false, 5},
	} {
		p := Options{Policy: tc.kind, Picker: PickFADE, DPT: 600, BaseLevelBytes: 4000}.NewLayout()
		if c := p.Pick(v, 1000, false, pickBenchClaims); (c != nil) != tc.pick || (c != nil && pickBenchClaims.Conflicts(c)) {
			t.Fatalf("%s: pick beside the running jobs = %+v", tc.kind, c)
		}
		allocs := testing.AllocsPerRun(20, func() { p.Pick(v, 1000, false, pickBenchClaims) })
		if allocs > tc.ceiling {
			t.Errorf("%s: Pick allocated %.0f objects, ceiling %.0f", tc.kind, allocs, tc.ceiling)
		}
	}
}

// TestPickFlush: a memtable, described as the level-0 table it would
// become, merges straight into level 1 only when that table would arrive
// TTL-expired, level 0 is empty and level 1 is one leveled run at most. The
// candidate is the level-0 TTL push: level 1's overlap as the output run,
// the memtable's span in the rectangle even where level 1 has nothing under
// it — so a claim there conflicts — and no file of its own.
func TestPickFlush(t *testing.T) {
	mem := func(lo, hi string, oldest base.Timestamp) *manifest.FileMetadata {
		return &manifest.FileMetadata{Smallest: ik(lo, 100), Largest: ik(hi, 1), HasTombstones: true, OldestTombstone: oldest}
	}
	l1 := addFiles(t, &manifest.Version{}, 1, 1, file(1, "a", "c", 100), file(2, "d", "f", 100), file(3, "g", "i", 100))
	o := Options{SizeRatio: 4, DPT: 1000, Picker: PickFADE}.WithDefaults()
	layout := o.NewLayout()

	c := layout.PickFlush(l1, nil, mem("b", "e", 0), 1001, false, nil)
	if c == nil || c.Trigger != TriggerTTL || c.StartLevel != 0 || c.OutputLevel != 1 || c.OutputRunID != 1 {
		t.Fatalf("expired memtable over level 1: %+v", c)
	}
	if len(c.InputFiles()) != 0 || len(c.OutputRunFiles) != 2 || c.OutputRunFiles[0].FileNum != 1 || c.OutputRunFiles[1].FileNum != 2 {
		t.Fatalf("inputs %v, output run files %v: want none, and files 1 and 2", c.InputFiles(), c.OutputRunFiles)
	}

	// Nothing of level 1 under the memtable: the span still stands.
	c = layout.PickFlush(l1, nil, mem("x", "z", 0), 1001, false, nil)
	if c == nil || len(c.OutputRunFiles) != 0 {
		t.Fatalf("expired memtable beside level 1: %+v", c)
	}
	if r := c.Rectangle(); r.MinLevel != 0 || r.MaxLevel != 1 || string(r.Lo) != "x" || string(r.Hi) != "z" {
		t.Fatalf("rectangle [%d,%d] x [%s,%s], want [0,1] x [x,z]", r.MinLevel, r.MaxLevel, r.Lo, r.Hi)
	}
	claims := InFlightSet{7: rect(1, 2, "y", "y")}
	if c := layout.PickFlush(l1, nil, mem("x", "z", 0), 1001, false, claims); c != nil {
		t.Fatalf("a claim inside the memtable's span must decline it: %+v", c)
	}

	noTombs := mem("b", "e", 0)
	noTombs.HasTombstones = false
	for _, tc := range []struct {
		name   string
		layout *Layout
		v      *manifest.Version
		meta   *manifest.FileMetadata
	}{
		{"within-budget", layout, l1, mem("b", "e", 1)},
		{"no-tombstones", layout, l1, noTombs},
		{"no-dpt", Options{SizeRatio: 4, Picker: PickFADE}.NewLayout(), l1, mem("b", "e", 0)},
		{"l0-not-empty", layout, addFiles(t, l1, 0, 2, file(4, "x", "z", 100)), mem("b", "e", 0)},
		{"l1-two-runs", layout, addFiles(t, l1, 1, 3, file(5, "x", "z", 100)), mem("b", "e", 0)},
		{"l1-tiered", sizeTiered(o), l1, mem("b", "e", 0)},
	} {
		if c := tc.layout.PickFlush(tc.v, nil, tc.meta, 1001, false, nil); c != nil {
			t.Errorf("%s: %+v, want a level-0 flush", tc.name, c)
		}
	}
}
