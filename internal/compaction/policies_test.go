package compaction

import (
	"reflect"
	"testing"

	"repro/internal/base"
	"repro/internal/manifest"
)

// Tests for the three settings of the Layout as such: kind dispatch, each
// policy's shape as Pick shows it (how many runs a level holds before it is
// due, what saturates it, where outputs join a run), and in-flight
// disjointness. The picker behaviour common to all three is covered in
// policy_test.go.

func sizeTiered(o Options) *Layout {
	o.Policy = PolicySizeTiered
	return o.NewLayout()
}

func lazyLeveling(o Options) *Layout {
	o.Policy = PolicyLazyLeveling
	return o.NewLayout()
}

// runsAt returns a version holding n one-file runs of the given file size
// at level l.
func runsAt(t *testing.T, l, n int, size uint64) *manifest.Version {
	t.Helper()
	v := &manifest.Version{}
	for i := 0; i < n; i++ {
		v = addFiles(t, v, l, uint64(i+1), file(i+1, "a", "z", size))
	}
	return v
}

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
		if got := c.o.NewLayout().Name(); got != c.name {
			t.Errorf("NewLayout(%+v).Name() = %q, want %q", c.o, got, c.name)
		}
	}
}

// TestPolicyDefaultIsLeveled: the zero Policy — what a zero Options, an
// empty -policy flag and "default" all produce — is the leveled layout: it
// carries that name and picks what PolicyLeveled picks.
func TestPolicyDefaultIsLeveled(t *testing.T) {
	for _, name := range []string{"", "default"} {
		kind, ok := ParsePolicyKind(name)
		if !ok || kind != PolicyDefault {
			t.Fatalf("ParsePolicyKind(%q) = %v,%v", name, kind, ok)
		}
	}
	if got := (Options{}).WithDefaults().Policy; got != PolicyLeveled {
		t.Fatalf("WithDefaults leaves Policy = %v, want leveled", got)
	}
	o := Options{SizeRatio: 4, BaseLevelBytes: 1000, DPT: 100, Picker: PickFADE}
	def := o.NewLayout()
	o.Policy = PolicyLeveled
	lvl := o.NewLayout()
	if def.Name() != "leveled" || lvl.Name() != "leveled" {
		t.Fatalf("names %q / %q, want leveled", def.Name(), lvl.Name())
	}
	l1 := addFiles(t, &manifest.Version{}, 1, 1, file(1, "a", "f", 600), tombFile(2, "g", "m", 600, 0, 3))
	l1 = addFiles(t, l1, 2, 2, file(3, "a", "c", 500))
	for name, v := range map[string]*manifest.Version{
		"l0":         runsAt(t, 0, 4, 100),
		"saturation": l1,
		"two-runs":   runsAt(t, 1, 2, 100),
	} {
		for _, now := range []base.Timestamp{0, 5000} { // before and after the tombstone's deadline
			want := lvl.Pick(v, now, false, nil)
			if want == nil {
				t.Fatalf("%s now=%d: leveled picked nothing", name, now)
			}
			if got := def.Pick(v, now, false, nil); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s now=%d: default picked %+v, leveled %+v", name, now, got, want)
			}
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
		{"size-tiered", PolicySizeTiered, true},
		{"lazy-leveling", PolicyLazyLeveling, true},
		{"", PolicyDefault, true},
		{"default", PolicyDefault, true},
		{"bogus", PolicyDefault, false},
		// The pre-PR-13 -shape names are gone with the flag.
		{"leveling", PolicyDefault, false},
		{"tiered", PolicyDefault, false},
		{"tiering", PolicyDefault, false},
		{"lazy", PolicyDefault, false},
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
	p := sizeTiered(Options{SizeRatio: 4, L0Threshold: 3, BaseLevelBytes: 1000})
	// A level is due at its run limit and not one run earlier: L0Threshold
	// at L0, SizeRatio below; every output starts a fresh run.
	for _, l := range []int{0, 1, 5} {
		limit := 4
		if l == 0 {
			limit = 3
		}
		if c := p.Pick(runsAt(t, l, limit-1, 100), 0, false, nil); c != nil {
			t.Fatalf("L%d with %d runs picked %+v", l, limit-1, c)
		}
		c := p.Pick(runsAt(t, l, limit, 100), 0, false, nil)
		if c == nil || c.StartLevel != l || len(c.Inputs) != limit {
			t.Fatalf("L%d at its %d-run limit: got %+v", l, limit, c)
		}
		if !c.OutputToNewRun || len(c.OutputRunFiles) != 0 {
			t.Fatalf("size-tiered output at L%d should start a fresh run: %+v", l+1, c)
		}
	}
	// With an empty L2 beside a saturated L1, L1 is the level picked.
	if c := p.Pick(runsAt(t, 1, 4, 100), 0, false, nil); c.Trigger != TriggerSaturation || c.StartLevel != 1 {
		t.Fatalf("saturated L1: %+v", c)
	}
	// Byte size never saturates a tiered level, however huge.
	if c := p.Pick(runsAt(t, 1, 1, 1<<40), 0, false, nil); c != nil {
		t.Fatalf("tiering must ignore byte saturation, got %+v", c)
	}
	// The bottom level can never be saturated (nowhere to go).
	if c := p.Pick(runsAt(t, manifest.NumLevels-1, 6, 100), 0, false, nil); c != nil {
		t.Fatalf("bottom level picked: %+v", c)
	}
}

func TestSizeTieredPickOutputsNewRun(t *testing.T) {
	v := &manifest.Version{}
	for i := 0; i < 4; i++ {
		v = addFiles(t, v, 2, uint64(i+1), file(i+1, "a", "z", 100))
	}
	// The output level already holds a run; tiering must not merge into it.
	v = addFiles(t, v, 3, 9, file(9, "a", "z", 100))
	p := sizeTiered(Options{SizeRatio: 4, BaseLevelBytes: 1 << 30})
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
	p := sizeTiered(Options{SizeRatio: 4, BaseLevelBytes: 1 << 30, DPT: 100, Picker: PickFADE})
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
	p := sizeTiered(Options{SizeRatio: 4, BaseLevelBytes: 1 << 30})
	if c := p.Pick(v, 0, false, InFlightSet{}); c == nil {
		t.Fatal("no pick with an empty in-flight set")
	}
	s := InFlightSet{1: {MinLevel: 1, MaxLevel: 2}} // whole-keyspace claim over L1-L2
	if c := p.Pick(v, 0, false, s); c != nil {
		t.Fatalf("pick overlapping an in-flight claim: %+v", c)
	}
	// A claim on disjoint levels does not block it.
	s2 := InFlightSet{2: {MinLevel: 3, MaxLevel: 4}}
	if c := p.Pick(v, 0, false, s2); c == nil {
		t.Fatal("disjoint claim blocked the pick")
	}
}

func TestLazyLastLevelTracksDepth(t *testing.T) {
	p := lazyLeveling(Options{})
	v := &manifest.Version{}
	if p.firstLeveled(v) != 1 {
		t.Fatal("empty tree should level into L1")
	}
	v = addFiles(t, v, 0, 1, file(1, "a", "z", 100))
	if p.firstLeveled(v) != 1 {
		t.Fatal("L0-only tree should level into L1")
	}
	v = addFiles(t, v, 3, 2, file(2, "a", "z", 100))
	if got := p.firstLeveled(v); got != 3 {
		t.Fatalf("firstLeveled = %d, want deepest populated level 3", got)
	}
}

func TestLazyLevelingShapeQueries(t *testing.T) {
	p := lazyLeveling(Options{SizeRatio: 4, L0Threshold: 3, BaseLevelBytes: 1000})
	last := func(v *manifest.Version) *manifest.Version { // L3 is the last level
		return addFiles(t, v, 3, 9, file(9, "a", "z", 100))
	}

	// L0 is governed by L0Threshold, the tiered upper levels hold up to
	// SizeRatio runs, and outputs into them start a fresh run.
	for _, l := range []int{0, 1} {
		limit := 4
		if l == 0 {
			limit = 3
		}
		if c := p.Pick(last(runsAt(t, l, limit-1, 1)), 0, false, nil); c != nil {
			t.Fatalf("L%d with %d runs picked %+v", l, limit-1, c)
		}
		c := p.Pick(last(runsAt(t, l, limit, 1)), 0, false, nil)
		if c == nil || c.StartLevel != l || len(c.Inputs) != limit || !c.OutputToNewRun {
			t.Fatalf("tiered L%d at its %d-run limit, output into tiered L%d: got %+v", l, limit, l+1, c)
		}
	}
	// An output into the last level merges into its run.
	c := p.Pick(last(runsAt(t, 2, 4, 1)), 0, false, nil)
	if c == nil || c.StartLevel != 2 || c.OutputToNewRun || len(c.OutputRunFiles) != 1 {
		t.Fatalf("output into the last level must merge into its run: %+v", c)
	}
	// The last level holds a single run: a second one makes it due at
	// once, whole, and the merge extends the leveled region past it.
	two := addFiles(t, last(&manifest.Version{}), 3, 10, file(10, "a", "z", 100))
	c = p.Pick(two, 0, false, nil)
	if c == nil || c.StartLevel != 3 || len(c.Inputs) != 2 || c.OutputToNewRun {
		t.Fatalf("two runs on the last level: %+v", c)
	}

	// Saturation on the last level is by bytes: LevelCapacity(3) =
	// 1000 * 4^2 = 16000.
	vb := addFiles(t, &manifest.Version{}, 3, 1, file(1, "a", "z", 20_000))
	if c := p.Pick(vb, 0, false, nil); c == nil || c.Trigger != TriggerSaturation || c.StartLevel != 3 {
		t.Fatalf("last level over byte capacity must be saturated, got %+v", c)
	}
	vs := addFiles(t, &manifest.Version{}, 3, 1, file(1, "a", "z", 15_000))
	if c := p.Pick(vs, 0, false, nil); c != nil {
		t.Fatalf("last level under capacity picked %+v", c)
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
	p := lazyLeveling(Options{SizeRatio: 4, BaseLevelBytes: 1 << 30})
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
	p := lazyLeveling(Options{SizeRatio: 4, BaseLevelBytes: 1000, Picker: PickMinOverlap})
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
	p := lazyLeveling(Options{SizeRatio: 4, BaseLevelBytes: 1 << 30, DPT: 100, Picker: PickFADE})
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
	p := lazyLeveling(Options{SizeRatio: 4, BaseLevelBytes: 1 << 30, DPT: 100, Picker: PickFADE})
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
	p := lazyLeveling(Options{SizeRatio: 4, BaseLevelBytes: 1000, Picker: PickMinOverlap})

	s := InFlightSet{7: rect(2, 3, "a", "f")}
	c := p.Pick(v, 0, false, s)
	if c == nil || c.InputFiles()[0].FileNum != 2 {
		t.Fatalf("pick should fall back to the unclaimed file, got %+v", c)
	}
	s[8] = rect(2, 3, "g", "m")
	if c := p.Pick(v, 0, false, s); c != nil {
		t.Fatalf("pick with every file claimed returned %+v", c)
	}
}
