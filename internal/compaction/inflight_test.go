package compaction

import (
	"testing"

	"repro/internal/base"
	"repro/internal/manifest"
)

// rect is the claim rectangle [minL, maxL] x [lo, hi].
func rect(minL, maxL int, lo, hi string) Rect {
	return Rect{MinLevel: minL, MaxLevel: maxL, Lo: []byte(lo), Hi: []byte(hi)}
}

func TestInFlightOverlapRules(t *testing.T) {
	s := InFlightSet{1: rect(1, 2, "d", "m")}

	cases := []struct {
		name       string
		minL, maxL int
		lo, hi     string
		want       bool
	}{
		{"disjoint levels", 3, 4, "d", "m", false},
		{"disjoint keys", 1, 2, "n", "z", false},
		{"disjoint keys below", 1, 2, "a", "c", false},
		{"same rectangle", 1, 2, "d", "m", true},
		{"touching edge", 2, 3, "m", "z", true},
		{"level range straddles", 0, 1, "a", "e", true},
	}
	for _, tc := range cases {
		got := s.Overlaps(rect(tc.minL, tc.maxL, tc.lo, tc.hi))
		if got != tc.want {
			t.Errorf("%s: Overlaps = %v, want %v", tc.name, got, tc.want)
		}
	}
	// Full-keyspace claims conflict with everything level-overlapping.
	s[2] = Rect{MinLevel: 5, MaxLevel: 6}
	if !s.Overlaps(rect(6, 6, "a", "b")) {
		t.Error("full-keyspace claim should overlap any span at its levels")
	}
	if s.Overlaps(rect(3, 4, "a", "b")) {
		t.Error("full-keyspace claim must still respect level disjointness")
	}
	s.Release(1)
	if s.Overlaps(rect(1, 2, "d", "m")) {
		t.Error("released claim still conflicts")
	}
	if !s.Overlaps(Rect{MinLevel: 5, MaxLevel: 5}) {
		t.Error("releasing one claim dropped another")
	}
}

func TestInFlightNilSetNeverConflicts(t *testing.T) {
	var s InFlightSet
	if s.Overlaps(Rect{MinLevel: 0, MaxLevel: 6}) {
		t.Fatal("nil InFlightSet must be inert")
	}
	c := &Candidate{StartLevel: 1, OutputLevel: 2,
		Inputs: []*manifest.Run{{ID: 1, Files: []*manifest.FileMetadata{file(1, "a", "z", 100)}}}}
	if s.Conflicts(c) {
		t.Fatal("nil InFlightSet conflicts with candidate")
	}
}

func TestPickSaturatedSkipsClaimedFiles(t *testing.T) {
	v := &manifest.Version{}
	// L1 over capacity with two files; file 1 has strictly less overlap so
	// the picker would normally choose it.
	v = addFiles(t, v, 1, 1,
		file(1, "a", "f", 600),
		file(2, "g", "m", 600))
	v = addFiles(t, v, 2, 2, file(3, "g", "j", 500))
	o := Options{BaseLevelBytes: 1000, SizeRatio: 4, Picker: PickMinOverlap}.WithDefaults()

	c := pick(v, o, 0, false, nil)
	if c == nil || c.InputFiles()[0].FileNum != 1 {
		t.Fatalf("baseline pick should choose file 1, got %+v", c)
	}

	// A running job over file 1's keys at L1-L2: the picker must fall back
	// to file 2.
	s := InFlightSet{7: rect(1, 2, "a", "f")}
	c = pick(v, o, 0, false, s)
	if c == nil || c.InputFiles()[0].FileNum != 2 {
		t.Fatalf("pick with claim should choose file 2, got %+v", c)
	}

	// Both files under running rectangles: nothing pickable.
	s[8] = rect(1, 2, "g", "m")
	if c = pick(v, o, 0, false, s); c != nil {
		t.Fatalf("pick with all files claimed returned %+v", c)
	}
}

func TestPickTTLSkipsClaimedFiles(t *testing.T) {
	v := &manifest.Version{}
	v = addFiles(t, v, 1, 1,
		tombFile(1, "a", "c", 100, 0, 1),   // most overdue
		tombFile(2, "e", "g", 100, 500, 1), // expired, less overdue
	)
	o := Options{BaseLevelBytes: 1 << 20, SizeRatio: 4, DPT: 100, Picker: PickFADE}.WithDefaults()

	s := InFlightSet{3: rect(1, 2, "a", "c")}
	c := pick(v, o, 5000, false, s)
	if c == nil || c.Trigger != TriggerTTL {
		t.Fatalf("expected TTL candidate for unclaimed file, got %+v", c)
	}
	files := c.InputFiles()
	if len(files) != 1 || files[0].FileNum != 2 {
		t.Fatalf("TTL pick should skip the claimed file, got %v", files)
	}
}

// TestPickTTLPassesOverBusyFile: the most overdue expired file lies inside a
// running job's rectangle without being one of its files — every candidate
// holding it would conflict. The TTL pick serves the next most overdue file
// instead of giving up on TTL work until the job ends.
func TestPickTTLPassesOverBusyFile(t *testing.T) {
	for _, tc := range []struct {
		name   string
		layout *Layout
		v      func(t *testing.T) *manifest.Version
		claim  Rect
		want   base.FileNum // the file the TTL candidate must hold
	}{
		{
			// A level 1 -> 2 job moving file 3 [d,f] whose level-2 overlap
			// [a,k] widens its span over file 1, the most overdue.
			name:   "level-1 file in an output-widened span",
			layout: Options{BaseLevelBytes: 1 << 20, SizeRatio: 4, DPT: 100, Picker: PickFADE}.NewLayout(),
			v: func(t *testing.T) *manifest.Version {
				v := addFiles(t, &manifest.Version{}, 1, 1,
					tombFile(1, "a", "c", 100, 0, 1),
					file(3, "d", "f", 100),
					tombFile(2, "m", "p", 100, 500, 1))
				return addFiles(t, v, 2, 2, file(4, "a", "k", 100))
			},
			claim: rect(1, 2, "a", "k"),
			want:  2,
		},
		{
			// A level 0 -> 1 push into a fresh level-1 run: the older
			// level-1 run beside it holds the most overdue file.
			name:   "tiered neighbour run",
			layout: sizeTiered(Options{BaseLevelBytes: 1 << 20, SizeRatio: 4, DPT: 100, Picker: PickFADE}),
			v: func(t *testing.T) *manifest.Version {
				v := addFiles(t, &manifest.Version{}, 1, 1, tombFile(1, "a", "c", 100, 0, 1))
				return addFiles(t, v, 3, 2, tombFile(2, "m", "p", 100, 0, 1))
			},
			claim: rect(0, 1, "a", "z"),
			want:  2,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v := tc.v(t)
			if c := tc.layout.Pick(v, 5000, false, nil); c == nil || c.Trigger != TriggerTTL || c.InputFiles()[0].FileNum != 1 {
				t.Fatalf("idle pick should push the most overdue file 1, got %+v", c)
			}
			c := tc.layout.Pick(v, 5000, false, InFlightSet{9: tc.claim})
			if c == nil || c.Trigger != TriggerTTL {
				t.Fatalf("no TTL candidate beside the running job: %+v", c)
			}
			if files := c.InputFiles(); len(files) != 1 || files[0].FileNum != tc.want {
				t.Fatalf("TTL candidate holds %v, want file %d alone", files, tc.want)
			}
		})
	}
}

func TestCandidateRectangleCoversOutputs(t *testing.T) {
	c := &Candidate{
		StartLevel:  1,
		OutputLevel: 2,
		Inputs:      []*manifest.Run{{ID: 1, Files: []*manifest.FileMetadata{file(1, "d", "f", 100)}}},
		OutputRunFiles: []*manifest.FileMetadata{
			file(2, "b", "e", 100),
			file(3, "f", "k", 100),
		},
	}
	r := c.Rectangle()
	if r.MinLevel != 1 || r.MaxLevel != 2 {
		t.Fatalf("levels = [%d,%d], want [1,2]", r.MinLevel, r.MaxLevel)
	}
	if string(r.Lo) != "b" || string(r.Hi) != "k" {
		t.Fatalf("span = [%s,%s], want [b,k]", r.Lo, r.Hi)
	}
	if n := len(c.ClaimFiles()); n != 3 {
		t.Fatalf("ClaimFiles = %d files, want 3", n)
	}
}

// TestInPlaceCandidateClaim: a candidate with StartLevel == OutputLevel (the
// eager range-delete shape) claims one level row over its file's key span. It
// conflicts with a claim on overlapping keys at that level — not with a job a
// level away, nor with one beside it in key space.
func TestInPlaceCandidateClaim(t *testing.T) {
	inPlace := func(num int, lo, hi string) *Candidate {
		return &Candidate{Trigger: TriggerRangeDelete, StartLevel: 2, OutputLevel: 2, OutputRunID: 5,
			Inputs: []*manifest.Run{{ID: 5, Files: []*manifest.FileMetadata{file(num, lo, hi, 100)}}}}
	}
	c := inPlace(7, "d", "k")
	if r := c.Rectangle(); r.MinLevel != 2 || r.MaxLevel != 2 || string(r.Lo) != "d" || string(r.Hi) != "k" {
		t.Fatalf("rectangle = L%d..L%d [%s,%s], want L2..L2 [d,k]", r.MinLevel, r.MaxLevel, r.Lo, r.Hi)
	}
	if files := c.ClaimFiles(); len(files) != 1 || files[0].FileNum != 7 {
		t.Fatalf("ClaimFiles = %v, want the one input", files)
	}
	cases := []struct {
		name       string
		minL, maxL int
		lo, hi     string
		want       bool
	}{
		{"a level above", 0, 1, "a", "z", false},
		{"a level below", 3, 4, "a", "z", false},
		{"same level, beside", 2, 2, "l", "z", false},
		{"same level, overlapping", 2, 2, "a", "e", true},
		{"a merge into its level", 1, 2, "j", "m", true},
		{"a merge out of its level", 2, 3, "a", "d", true},
	}
	for _, tc := range cases {
		s := InFlightSet{1: rect(tc.minL, tc.maxL, tc.lo, tc.hi)}
		if got := s.Conflicts(c); got != tc.want {
			t.Errorf("%s: Conflicts = %v, want %v", tc.name, got, tc.want)
		}
	}
	s := InFlightSet{}
	s.Claim(1, c)
	if !s.Overlaps(rect(2, 2, "k", "k")) || s.Overlaps(rect(1, 1, "d", "k")) || s.Overlaps(rect(3, 3, "d", "k")) {
		t.Fatal("Claim must publish exactly the candidate's level row")
	}
	if s.Conflicts(inPlace(8, "l", "p")) {
		t.Error("a neighbour file of the same run must be rewritable concurrently")
	}
	if !s.Conflicts(candidate(1, []*manifest.FileMetadata{file(9, "a", "e", 100)}, nil)) {
		t.Error("an L1->L2 merge over the claimed keys must wait")
	}
}
