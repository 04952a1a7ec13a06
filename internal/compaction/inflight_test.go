package compaction

import (
	"testing"

	"repro/internal/manifest"
)

func TestInFlightOverlapRules(t *testing.T) {
	s := NewInFlightSet()
	s.Claim(1, nil, 1, 2, []byte("d"), []byte("m"))

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
		got := s.Overlaps(tc.minL, tc.maxL, []byte(tc.lo), []byte(tc.hi))
		if got != tc.want {
			t.Errorf("%s: Overlaps = %v, want %v", tc.name, got, tc.want)
		}
	}
	// Full-keyspace claims conflict with everything level-overlapping.
	s.Claim(2, nil, 5, 6, nil, nil)
	if !s.Overlaps(6, 6, []byte("a"), []byte("b")) {
		t.Error("full-keyspace claim should overlap any span at its levels")
	}
	if s.Overlaps(3, 4, []byte("a"), []byte("b")) {
		t.Error("full-keyspace claim must still respect level disjointness")
	}
	s.Release(1)
	if s.Overlaps(1, 2, []byte("d"), []byte("m")) {
		t.Error("released claim still conflicts")
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d, want 1", s.Len())
	}
}

func TestInFlightNilSetNeverConflicts(t *testing.T) {
	var s *InFlightSet
	if s.FileClaimed(1) || s.Overlaps(0, 6, nil, nil) || s.Len() != 0 {
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

	// Claim file 1 (and its rectangle at L1-L2 over a-f): the picker must
	// fall back to file 2.
	s := NewInFlightSet()
	s.Claim(7, []*manifest.FileMetadata{file(1, "a", "f", 600)}, 1, 2, []byte("a"), []byte("f"))
	c = pick(v, o, 0, false, s)
	if c == nil || c.InputFiles()[0].FileNum != 2 {
		t.Fatalf("pick with claim should choose file 2, got %+v", c)
	}

	// Claim both files: nothing pickable.
	s.Claim(8, []*manifest.FileMetadata{file(2, "g", "m", 600)}, 1, 2, []byte("g"), []byte("m"))
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

	s := NewInFlightSet()
	s.Claim(3, []*manifest.FileMetadata{tombFile(1, "a", "c", 100, 0, 1)}, 1, 2, []byte("a"), []byte("c"))
	c := pick(v, o, 5000, false, s)
	if c == nil || c.Trigger != TriggerTTL {
		t.Fatalf("expected TTL candidate for unclaimed file, got %+v", c)
	}
	files := c.InputFiles()
	if len(files) != 1 || files[0].FileNum != 2 {
		t.Fatalf("TTL pick should skip the claimed file, got %v", files)
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
	minL, maxL, lo, hi := c.Rectangle()
	if minL != 1 || maxL != 2 {
		t.Fatalf("levels = [%d,%d], want [1,2]", minL, maxL)
	}
	if string(lo) != "b" || string(hi) != "k" {
		t.Fatalf("span = [%s,%s], want [b,k]", lo, hi)
	}
	if n := len(c.ClaimFiles()); n != 3 {
		t.Fatalf("ClaimFiles = %d files, want 3", n)
	}
}

// TestInPlaceCandidateClaim: a candidate with StartLevel == OutputLevel (the
// eager range-delete shape) claims one level row over its file's key span. It
// conflicts with a claim on the file or on overlapping keys at that level —
// not with a job a level away, nor with one beside it in key space.
func TestInPlaceCandidateClaim(t *testing.T) {
	inPlace := func(num int, lo, hi string) *Candidate {
		return &Candidate{Trigger: TriggerRangeDelete, StartLevel: 2, OutputLevel: 2, OutputRunID: 5,
			Inputs: []*manifest.Run{{ID: 5, Files: []*manifest.FileMetadata{file(num, lo, hi, 100)}}}}
	}
	c := inPlace(7, "d", "k")
	if minL, maxL, lo, hi := c.Rectangle(); minL != 2 || maxL != 2 || string(lo) != "d" || string(hi) != "k" {
		t.Fatalf("rectangle = L%d..L%d [%s,%s], want L2..L2 [d,k]", minL, maxL, lo, hi)
	}
	if files := c.ClaimFiles(); len(files) != 1 || files[0].FileNum != 7 {
		t.Fatalf("ClaimFiles = %v, want the one input", files)
	}
	cases := []struct {
		name       string
		files      []*manifest.FileMetadata
		minL, maxL int
		lo, hi     string
		want       bool
	}{
		{"a level above", nil, 0, 1, "a", "z", false},
		{"a level below", nil, 3, 4, "a", "z", false},
		{"same level, beside", nil, 2, 2, "l", "z", false},
		{"same level, overlapping", nil, 2, 2, "a", "e", true},
		{"a merge into its level", nil, 1, 2, "j", "m", true},
		{"a merge out of its level", nil, 2, 3, "a", "d", true},
		{"the file itself, elsewhere", []*manifest.FileMetadata{file(7, "d", "k", 100)}, 5, 5, "x", "z", true},
	}
	for _, tc := range cases {
		s := NewInFlightSet()
		s.Claim(1, tc.files, tc.minL, tc.maxL, []byte(tc.lo), []byte(tc.hi))
		if got := s.Conflicts(c); got != tc.want {
			t.Errorf("%s: Conflicts = %v, want %v", tc.name, got, tc.want)
		}
	}
	s := NewInFlightSet()
	s.ClaimCandidate(1, c)
	if !s.FileClaimed(7) || !s.Overlaps(2, 2, []byte("k"), []byte("k")) || s.Overlaps(1, 1, []byte("d"), []byte("k")) || s.Overlaps(3, 3, []byte("d"), []byte("k")) {
		t.Fatal("ClaimCandidate must publish the file and exactly its level row")
	}
	if s.Conflicts(inPlace(8, "l", "p")) {
		t.Error("a neighbour file of the same run must be rewritable concurrently")
	}
	if !s.Conflicts(candidate(1, []*manifest.FileMetadata{file(9, "a", "e", 100)}, nil)) {
		t.Error("an L1->L2 merge over the claimed keys must wait")
	}
}

func TestInFlightSnapshotIsStable(t *testing.T) {
	s := NewInFlightSet()
	s.Claim(1, nil, 0, 1, []byte("a"), []byte("m"))
	snap := s.Snapshot()
	s.Release(1)
	if s.Overlaps(0, 1, []byte("b"), []byte("c")) {
		t.Fatal("live set still overlapping after release")
	}
	if !snap.Overlaps(0, 1, []byte("b"), []byte("c")) {
		t.Fatal("snapshot lost a claim released after it was taken")
	}
	s.Claim(2, nil, 2, 3, []byte("x"), []byte("z"))
	if snap.Overlaps(2, 3, []byte("y"), []byte("y")) {
		t.Fatal("snapshot sees a claim added after it was taken")
	}
	var nilSet *InFlightSet
	if nilSet.Snapshot() != nil {
		t.Fatal("nil set snapshot should stay nil")
	}
}
