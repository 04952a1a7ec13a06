package compaction

import (
	"testing"

	"repro/internal/manifest"
)

// Tests for the Policy implementations as such: kind dispatch, the
// per-level shape queries (MaxRunsAt / Saturated / LeveledOutputAt), and
// each policy's Pick logic including in-flight disjointness. The legacy
// picker behaviour shared by all policies is covered in policy_test.go.

func TestPolicyKindDispatch(t *testing.T) {
	cases := []struct {
		o    Options
		name string
	}{
		{Options{Policy: PolicyLeveled}, "leveled"},
		{Options{Policy: PolicySizeTiered}, "size-tiered"},
		{Options{Policy: PolicyLazyLeveling}, "lazy-leveling"},
	}
	for _, c := range cases {
		if got := c.o.NewPolicy().Name(); got != c.name {
			t.Errorf("NewPolicy(%+v).Name() = %q, want %q", c.o, got, c.name)
		}
	}
}

// TestPolicyDefaultIsLeveled: the zero Policy — what a zero Options, an
// empty -policy flag and "default" all produce — is the leveled layout.
func TestPolicyDefaultIsLeveled(t *testing.T) {
	if _, ok := (Options{}).NewPolicy().(*Leveled); !ok {
		t.Fatalf("Options{}.NewPolicy() = %T, want *Leveled", Options{}.NewPolicy())
	}
	for _, name := range []string{"", "default"} {
		kind, ok := ParsePolicyKind(name)
		if !ok || kind != PolicyDefault {
			t.Fatalf("ParsePolicyKind(%q) = %v,%v", name, kind, ok)
		}
		if got := (Options{Policy: kind}).NewPolicy().Name(); got != "leveled" {
			t.Fatalf("policy %q builds %q, want leveled", name, got)
		}
	}
}

func TestParsePolicyKind(t *testing.T) {
	cases := []struct {
		in   string
		kind PolicyKind
		ok   bool
	}{
		{"leveled", PolicyLeveled, true},
		{"leveling", PolicyLeveled, true},
		{"size-tiered", PolicySizeTiered, true},
		{"tiering", PolicySizeTiered, true},
		{"lazy-leveling", PolicyLazyLeveling, true},
		{"lazy", PolicyLazyLeveling, true},
		{"", PolicyDefault, true},
		{"default", PolicyDefault, true},
		{"bogus", PolicyDefault, false},
	}
	for _, c := range cases {
		kind, ok := ParsePolicyKind(c.in)
		if kind != c.kind || ok != c.ok {
			t.Errorf("ParsePolicyKind(%q) = %v,%v want %v,%v", c.in, kind, ok, c.kind, c.ok)
		}
	}
	// Round trip: every kind's String parses back to itself.
	for _, k := range []PolicyKind{PolicyLeveled, PolicySizeTiered, PolicyLazyLeveling} {
		if got, ok := ParsePolicyKind(k.String()); !ok || got != k {
			t.Errorf("ParsePolicyKind(%q) does not round-trip", k.String())
		}
	}
}

func TestSizeTieredShapeQueries(t *testing.T) {
	p := NewSizeTiered(Options{SizeRatio: 4, L0Threshold: 3, BaseLevelBytes: 1000})
	v := &manifest.Version{}
	for i := 0; i < 4; i++ {
		v = addFiles(t, v, 1, uint64(i+1), file(i+1, "a", "z", 100))
	}
	if p.MaxRunsAt(v, 0) != 3 || p.MaxRunsAt(v, 1) != 4 || p.MaxRunsAt(v, 5) != 4 {
		t.Fatal("MaxRunsAt: want L0Threshold at L0, SizeRatio below")
	}
	if !p.Saturated(v, 1) {
		t.Fatal("level at SizeRatio runs must be saturated")
	}
	if p.Saturated(v, 2) {
		t.Fatal("empty level saturated")
	}
	// Byte size never saturates a tiered level, however huge.
	v2 := addFiles(t, &manifest.Version{}, 1, 1, file(1, "a", "z", 1<<40))
	if p.Saturated(v2, 1) {
		t.Fatal("tiering must ignore byte saturation")
	}
	// The bottom level can never be saturated (nowhere to go).
	vb := &manifest.Version{}
	for i := 0; i < 6; i++ {
		vb = addFiles(t, vb, manifest.NumLevels-1, uint64(i+1), file(i+1, "a", "z", 100))
	}
	if p.Saturated(vb, manifest.NumLevels-1) {
		t.Fatal("bottom level reported saturated")
	}
	for l := 0; l < manifest.NumLevels; l++ {
		if p.LeveledOutputAt(v, l) {
			t.Fatalf("size-tiered output at L%d should start a fresh run", l)
		}
	}
}

func TestSizeTieredPickOutputsNewRun(t *testing.T) {
	v := &manifest.Version{}
	for i := 0; i < 4; i++ {
		v = addFiles(t, v, 2, uint64(i+1), file(i+1, "a", "z", 100))
	}
	// The output level already holds a run; tiering must not merge into it.
	v = addFiles(t, v, 3, 9, file(9, "a", "z", 100))
	p := NewSizeTiered(Options{SizeRatio: 4, BaseLevelBytes: 1 << 30})
	c := p.Pick(v, 0, false, nil)
	if c == nil || c.Trigger != TriggerSaturation {
		t.Fatalf("expected saturation pick, got %+v", c)
	}
	if c.StartLevel != 2 || c.OutputLevel != 3 || len(c.Inputs) != 4 {
		t.Fatalf("candidate shape: %+v", c)
	}
	if !c.OutputToNewRun || len(c.OutputRunFiles) != 0 {
		t.Fatal("tiered output must be a fresh run with no output overlap")
	}
}

func TestSizeTieredTTLPullsNextLevel(t *testing.T) {
	v := &manifest.Version{}
	v = addFiles(t, v, 1, 1, tombFile(1, "a", "m", 100, 0, 2))
	v = addFiles(t, v, 2, 2, file(2, "a", "h", 100))
	v = addFiles(t, v, 2, 3, file(3, "h", "z", 100))
	p := NewSizeTiered(Options{SizeRatio: 4, BaseLevelBytes: 1 << 30, DPT: 100, Picker: PickFADE})
	c := p.Pick(v, 5000, false, nil)
	if c == nil || c.Trigger != TriggerTTL {
		t.Fatalf("expected TTL pick, got %+v", c)
	}
	// The whole expired level plus the whole next level compact together,
	// so the tombstone lands in a run that shadows nothing older beside it.
	if len(c.Inputs) != 3 {
		t.Fatalf("want 1+2 input runs across both levels, got %d", len(c.Inputs))
	}
	wantLevels := []int{1, 2, 2}
	for i := range c.Inputs {
		if c.InputLevel(i) != wantLevels[i] {
			t.Fatalf("input %d at level %d, want %d", i, c.InputLevel(i), wantLevels[i])
		}
	}
	if !c.OutputToNewRun {
		t.Fatal("tiered TTL output must still be a fresh run")
	}
}

func TestSizeTieredPickSkipsClaimedLevel(t *testing.T) {
	v := &manifest.Version{}
	for i := 0; i < 4; i++ {
		v = addFiles(t, v, 1, uint64(i+1), file(i+1, "a", "z", 100))
	}
	p := NewSizeTiered(Options{SizeRatio: 4, BaseLevelBytes: 1 << 30})
	if c := p.Pick(v, 0, false, NewInFlightSet()); c == nil {
		t.Fatal("no pick with an empty in-flight set")
	}
	s := NewInFlightSet()
	s.Claim(1, nil, 1, 2, nil, nil) // whole-keyspace claim over L1-L2
	if c := p.Pick(v, 0, false, s); c != nil {
		t.Fatalf("pick overlapping an in-flight claim: %+v", c)
	}
	// A claim on disjoint levels does not block it.
	s2 := NewInFlightSet()
	s2.Claim(2, nil, 3, 4, nil, nil)
	if c := p.Pick(v, 0, false, s2); c == nil {
		t.Fatal("disjoint claim blocked the pick")
	}
}

func TestLazyLastLevelTracksDepth(t *testing.T) {
	v := &manifest.Version{}
	if lazyLastLevel(v) != 1 {
		t.Fatal("empty tree should level into L1")
	}
	v = addFiles(t, v, 0, 1, file(1, "a", "z", 100))
	if lazyLastLevel(v) != 1 {
		t.Fatal("L0-only tree should level into L1")
	}
	v = addFiles(t, v, 3, 2, file(2, "a", "z", 100))
	if lazyLastLevel(v) != 3 {
		t.Fatalf("lazyLastLevel = %d, want deepest populated level 3", lazyLastLevel(v))
	}
}

func TestLazyLevelingShapeQueries(t *testing.T) {
	p := NewLazyLeveling(Options{SizeRatio: 4, L0Threshold: 3, BaseLevelBytes: 1000})
	v := &manifest.Version{}
	v = addFiles(t, v, 1, 1, file(1, "a", "m", 100))
	v = addFiles(t, v, 3, 2, file(2, "a", "z", 100)) // last level

	if p.MaxRunsAt(v, 0) != 3 {
		t.Fatal("L0 governed by L0Threshold")
	}
	if p.MaxRunsAt(v, 1) != 4 || p.MaxRunsAt(v, 2) != 4 {
		t.Fatal("tiered upper levels hold up to SizeRatio runs")
	}
	if p.MaxRunsAt(v, 3) != 1 || p.MaxRunsAt(v, 4) != 1 {
		t.Fatal("the last level (and deeper) holds a single run")
	}
	for l := 0; l < 3; l++ {
		if p.LeveledOutputAt(v, l) {
			t.Fatalf("output into tiered L%d should start a fresh run", l)
		}
	}
	if !p.LeveledOutputAt(v, 3) || !p.LeveledOutputAt(v, 4) {
		t.Fatal("output into (or past) the last level must merge into its run")
	}

	// Saturation: run count on tiered levels, bytes on the last level.
	vt := &manifest.Version{}
	for i := 0; i < 4; i++ {
		vt = addFiles(t, vt, 1, uint64(i+1), file(i+1, "a", "z", 1))
	}
	vt = addFiles(t, vt, 3, 9, file(9, "a", "z", 100))
	if !p.Saturated(vt, 1) {
		t.Fatal("tiered level at SizeRatio runs must be saturated")
	}
	// LevelCapacity(3) = 1000 * 4^2 = 16000.
	vb := addFiles(t, &manifest.Version{}, 3, 1, file(1, "a", "z", 20_000))
	if !p.Saturated(vb, 3) {
		t.Fatal("last level over byte capacity must be saturated")
	}
	vs := addFiles(t, &manifest.Version{}, 3, 1, file(1, "a", "z", 15_000))
	if p.Saturated(vs, 3) {
		t.Fatal("last level under capacity reported saturated")
	}
}

func TestLazyLevelingTieredMergeShape(t *testing.T) {
	// L1 saturated by run count; L3 is the leveled last level. The merge
	// out of L1 lands at tiered L2, so it must start a fresh run.
	v := &manifest.Version{}
	for i := 0; i < 4; i++ {
		v = addFiles(t, v, 1, uint64(i+1), file(i+1, "a", "z", 10))
	}
	v = addFiles(t, v, 3, 9, file(9, "a", "z", 100))
	p := NewLazyLeveling(Options{SizeRatio: 4, BaseLevelBytes: 1 << 30})
	c := p.Pick(v, 0, false, nil)
	if c == nil || c.Trigger != TriggerSaturation || c.StartLevel != 1 {
		t.Fatalf("expected L1 saturation pick, got %+v", c)
	}
	if len(c.Inputs) != 4 || !c.OutputToNewRun {
		t.Fatalf("merge into tiered L2 must take all runs to a fresh run: %+v", c)
	}

	// Same saturation, but the next level IS the last level: the merge
	// must join its single sorted run instead.
	v2 := &manifest.Version{}
	for i := 0; i < 4; i++ {
		v2 = addFiles(t, v2, 1, uint64(i+1), file(i+1, "a", "m", 10))
	}
	v2 = addFiles(t, v2, 2, 9, file(9, "a", "z", 100))
	c = p.Pick(v2, 0, false, nil)
	if c == nil || c.StartLevel != 1 || c.OutputToNewRun {
		t.Fatalf("merge into the last level must be leveled, got %+v", c)
	}
	if len(c.OutputRunFiles) != 1 || c.OutputRunFiles[0].FileNum != 9 {
		t.Fatalf("missing output overlap with the last level's run: %+v", c)
	}
}

func TestLazyLevelingSaturatedLastEvictsOneFile(t *testing.T) {
	// The last level holds one run of two files and is over capacity
	// (cap(2) = 1000*4 = 4000): one victim file moves down, making L3 the
	// new last level.
	v := &manifest.Version{}
	v = addFiles(t, v, 2, 1,
		file(1, "a", "f", 3000),
		file(2, "g", "m", 3000))
	p := NewLazyLeveling(Options{SizeRatio: 4, BaseLevelBytes: 1000, Picker: PickMinOverlap})
	c := p.Pick(v, 0, false, nil)
	if c == nil || c.Trigger != TriggerSaturation {
		t.Fatalf("expected last-level saturation, got %+v", c)
	}
	if c.StartLevel != 2 || c.OutputLevel != 3 {
		t.Fatalf("candidate levels: %+v", c)
	}
	if files := c.InputFiles(); len(files) != 1 {
		t.Fatalf("leveled eviction moves one file, got %d", len(files))
	}
	if c.OutputToNewRun {
		t.Fatal("eviction from the last level extends the leveled region")
	}
}

func TestLazyLevelingTTLOnLastLevelBatches(t *testing.T) {
	// Two expired files and one clean file on the leveled last level: the
	// TTL pick batches exactly the expired ones into the next level.
	v := &manifest.Version{}
	v = addFiles(t, v, 2, 1,
		tombFile(1, "a", "c", 100, 0, 1),
		tombFile(2, "e", "g", 100, 100, 1),
		file(3, "m", "p", 100))
	p := NewLazyLeveling(Options{SizeRatio: 4, BaseLevelBytes: 1 << 30, DPT: 100, Picker: PickFADE})
	c := p.Pick(v, 5000, false, nil)
	if c == nil || c.Trigger != TriggerTTL {
		t.Fatalf("expected TTL pick, got %+v", c)
	}
	if c.StartLevel != 2 || c.OutputLevel != 3 || c.OutputToNewRun {
		t.Fatalf("last-level TTL eviction shape: %+v", c)
	}
	files := c.InputFiles()
	if len(files) != 2 {
		t.Fatalf("want both expired files batched, got %d", len(files))
	}
	for _, f := range files {
		if f.FileNum == 3 {
			t.Fatal("clean file included in TTL batch")
		}
	}
	// An open snapshot blocks disposal-only compactions at the last level.
	if c := p.Pick(v, 5000, true, nil); c != nil {
		t.Fatalf("TTL eviction should wait out snapshots, got %+v", c)
	}
}

func TestLazyLevelingTTLOnTieredLevel(t *testing.T) {
	// Expired tombstone on tiered L1; L2 is also tiered (last level is 3),
	// so the push pulls L2's runs along.
	v := &manifest.Version{}
	v = addFiles(t, v, 1, 1, tombFile(1, "a", "m", 100, 0, 2))
	v = addFiles(t, v, 2, 2, file(2, "a", "z", 100))
	v = addFiles(t, v, 3, 3, file(3, "a", "z", 100))
	p := NewLazyLeveling(Options{SizeRatio: 4, BaseLevelBytes: 1 << 30, DPT: 100, Picker: PickFADE})
	c := p.Pick(v, 5000, false, nil)
	if c == nil || c.Trigger != TriggerTTL {
		t.Fatalf("expected TTL pick, got %+v", c)
	}
	if len(c.Inputs) != 2 || c.InputLevel(0) != 1 || c.InputLevel(1) != 2 {
		t.Fatalf("tiered TTL push should pull the next tiered level: %+v", c)
	}
	if !c.OutputToNewRun {
		t.Fatal("output lands at tiered L2, must be a fresh run")
	}

	// When the level below the expired one is the leveled last level, no
	// pull is needed: merging into the single run disposes the tombstone.
	v2 := &manifest.Version{}
	v2 = addFiles(t, v2, 1, 1, tombFile(1, "a", "m", 100, 0, 2))
	v2 = addFiles(t, v2, 2, 2, file(2, "a", "z", 100))
	c = p.Pick(v2, 5000, false, nil)
	if c == nil || c.Trigger != TriggerTTL {
		t.Fatalf("expected TTL pick, got %+v", c)
	}
	if len(c.Inputs) != 1 || c.InputLevels != nil {
		t.Fatalf("push into the last level needs no pull: %+v", c)
	}
	if c.OutputToNewRun || len(c.OutputRunFiles) != 1 {
		t.Fatalf("push into the last level must merge with its run: %+v", c)
	}
}

func TestLazyLevelingPickSkipsClaimedFiles(t *testing.T) {
	// Saturated last level with two files; claiming one forces the pick to
	// the other, claiming both (by rectangle) yields no pick at all.
	v := &manifest.Version{}
	v = addFiles(t, v, 2, 1,
		file(1, "a", "f", 3000),
		file(2, "g", "m", 3000))
	p := NewLazyLeveling(Options{SizeRatio: 4, BaseLevelBytes: 1000, Picker: PickMinOverlap})

	s := NewInFlightSet()
	s.Claim(7, []*manifest.FileMetadata{file(1, "a", "f", 3000)}, 2, 3, []byte("a"), []byte("f"))
	c := p.Pick(v, 0, false, s)
	if c == nil || c.InputFiles()[0].FileNum != 2 {
		t.Fatalf("pick should fall back to the unclaimed file, got %+v", c)
	}
	s.Claim(8, []*manifest.FileMetadata{file(2, "g", "m", 3000)}, 2, 3, []byte("g"), []byte("m"))
	if c := p.Pick(v, 0, false, s); c != nil {
		t.Fatalf("pick with every file claimed returned %+v", c)
	}
}
