package base

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestTrailerPacking(t *testing.T) {
	cases := []struct {
		seq  SeqNum
		kind Kind
	}{
		{0, KindSet},
		{1, KindDelete},
		{MaxSeqNum, KindSet},
		{12345678, KindRangeDelete},
	}
	for _, c := range cases {
		tr := MakeTrailer(c.seq, c.kind)
		if tr.SeqNum() != c.seq {
			t.Errorf("MakeTrailer(%d,%v).SeqNum() = %d", c.seq, c.kind, tr.SeqNum())
		}
		if tr.Kind() != c.kind {
			t.Errorf("MakeTrailer(%d,%v).Kind() = %v", c.seq, c.kind, tr.Kind())
		}
	}
}

func TestInternalKeyEncodeDecodeRoundtrip(t *testing.T) {
	f := func(userKey []byte, seq uint64, kindRaw uint8) bool {
		seq &= uint64(MaxSeqNum)
		kind := Kind(kindRaw%3) + 1
		ik := MakeInternalKey(userKey, SeqNum(seq), kind)
		dec := DecodeInternalKey(ik.Encode(nil))
		return bytes.Equal(dec.UserKey, userKey) && dec.SeqNum() == SeqNum(seq) && dec.Kind() == kind
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeInternalKeyPanicsOnShort(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for short encoded key")
		}
	}()
	DecodeInternalKey([]byte{1, 2, 3})
}

// TestCompareEncodedMatchesCompare checks that byte comparison of encoded
// keys equals the structural internal-key ordering.
func TestCompareEncodedMatchesCompare(t *testing.T) {
	f := func(a, b []byte, sa, sb uint64, ka, kb uint8) bool {
		ia := MakeInternalKey(a, SeqNum(sa&uint64(MaxSeqNum)), Kind(ka%3)+1)
		ib := MakeInternalKey(b, SeqNum(sb&uint64(MaxSeqNum)), Kind(kb%3)+1)
		want := ia.Compare(ib)
		got := CompareEncoded(ia.Encode(nil), ib.Encode(nil))
		return sign(got) == sign(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	}
	return 0
}

// TestInternalKeyOrdering pins the required ordering: user key ascending,
// then seqnum descending, then kind descending.
func TestInternalKeyOrdering(t *testing.T) {
	keys := []InternalKey{
		MakeInternalKey([]byte("a"), 9, KindSet),
		MakeInternalKey([]byte("a"), 5, KindDelete),
		MakeInternalKey([]byte("a"), 5, KindSet),
		MakeInternalKey([]byte("a"), 1, KindSet),
		MakeInternalKey([]byte("b"), 100, KindDelete),
		MakeInternalKey([]byte("b"), 2, KindSet),
		MakeInternalKey([]byte("ba"), 1, KindSet),
	}
	for i := 0; i+1 < len(keys); i++ {
		if keys[i].Compare(keys[i+1]) >= 0 {
			t.Errorf("keys[%d]=%s should sort before keys[%d]=%s", i, keys[i], i+1, keys[i+1])
		}
	}
	// Shuffle and re-sort by encoded comparison; must match.
	shuffled := append([]InternalKey(nil), keys...)
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	sort.Slice(shuffled, func(i, j int) bool {
		return CompareEncoded(shuffled[i].Encode(nil), shuffled[j].Encode(nil)) < 0
	})
	for i := range keys {
		if keys[i].Compare(shuffled[i]) != 0 {
			t.Fatalf("encoded sort order diverges at %d: %s vs %s", i, keys[i], shuffled[i])
		}
	}
}

func TestSearchKeySortsBeforeEntries(t *testing.T) {
	// A search key for (k, seq) must be <= every entry of k with seqnum
	// <= seq and > every entry with seqnum > seq.
	search := MakeSearchKey([]byte("k"), 10)
	if search.Compare(MakeInternalKey([]byte("k"), 10, KindSet)) > 0 {
		t.Error("search key should sort <= entry at same seq")
	}
	if search.Compare(MakeInternalKey([]byte("k"), 11, KindSet)) <= 0 {
		t.Error("search key should sort after newer entries")
	}
	if search.Compare(MakeInternalKey([]byte("k"), 9, KindDelete)) > 0 {
		t.Error("search key should sort before older entries")
	}
}

func TestCloneIndependence(t *testing.T) {
	buf := []byte("mutable")
	ik := MakeInternalKey(buf, 3, KindSet)
	cl := ik.Clone()
	buf[0] = 'X'
	if string(cl.UserKey) != "mutable" {
		t.Fatalf("clone aliased original buffer: %q", cl.UserKey)
	}
}

func TestTombstoneValueRoundtrip(t *testing.T) {
	for _, ts := range []Timestamp{0, 1, 123456789, 1 << 62} {
		if got := DecodeTombstoneValue(EncodeTombstoneValue(ts)); got != ts {
			t.Errorf("roundtrip %d -> %d", ts, got)
		}
	}
	if got := DecodeTombstoneValue([]byte{1, 2}); got != 0 {
		t.Errorf("short payload should decode to 0, got %d", got)
	}
}

func TestRangeTombstoneRoundtrip(t *testing.T) {
	f := func(lo, hi uint64, seq uint64, ts int64) bool {
		rt := RangeTombstone{Lo: lo, Hi: hi, Seq: SeqNum(seq), CreatedAt: Timestamp(ts)}
		enc := EncodeRangeTombstone(nil, rt)
		dec, rest, ok := DecodeRangeTombstone(enc)
		return ok && len(rest) == 0 && dec == rt
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := DecodeRangeTombstone(make([]byte, 31)); ok {
		t.Error("short buffer should not decode")
	}
}

func TestRangeTombstoneCovers(t *testing.T) {
	rt := RangeTombstone{Lo: 100, Hi: 200, Seq: 50}
	cases := []struct {
		dk   DeleteKey
		seq  SeqNum
		want bool
	}{
		{100, 49, true},  // at lower bound, older
		{199, 0, true},   // just below upper bound
		{200, 10, false}, // hi is exclusive
		{99, 10, false},  // below range
		{150, 50, false}, // same seq: not covered
		{150, 51, false}, // newer than tombstone
		{150, 49, true},  // inside
	}
	for _, c := range cases {
		if got := rt.Covers(c.dk, c.seq); got != c.want {
			t.Errorf("Covers(%d, %d) = %v, want %v", c.dk, c.seq, got, c.want)
		}
	}
}

func TestRangeTombstoneCoversRange(t *testing.T) {
	rt := RangeTombstone{Lo: 100, Hi: 200, Seq: 50}
	if !rt.CoversRange(100, 199) {
		t.Error("full interior span should be covered")
	}
	if rt.CoversRange(100, 200) {
		t.Error("span reaching Hi (inclusive max = 200) must not be covered")
	}
	if rt.CoversRange(99, 150) {
		t.Error("span starting below Lo must not be covered")
	}
}

// TestSkylineMatchesCovers: for random tombstone lists over a small key space
// (many overlaps, touching ends, empty spans, equal seqnums), the skyline
// answers exactly what walking the list with Covers does, at every delete
// key and around every seqnum; and rebuilding a used skyline allocates
// nothing.
func TestSkylineMatchesCovers(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var s Skyline
	for trial := 0; trial < 300; trial++ {
		rts := make([]RangeTombstone, rng.Intn(12))
		for i := range rts {
			rts[i] = RangeTombstone{Lo: DeleteKey(rng.Intn(40)), Hi: DeleteKey(rng.Intn(40)), Seq: SeqNum(rng.Intn(8))}
		}
		s.Build(rts)
		for dk := DeleteKey(0); dk < 42; dk++ {
			for seq := SeqNum(0); seq < 10; seq++ {
				want := false
				for _, rt := range rts {
					want = want || rt.Covers(dk, seq)
				}
				if got := s.Covers(dk, seq); got != want {
					t.Fatalf("trial %d, tombstones %v: Covers(%d, %d) = %v, want %v", trial, rts, dk, seq, got, want)
				}
			}
		}
	}
	rts := make([]RangeTombstone, 1000)
	for i := range rts {
		lo := DeleteKey(rng.Intn(1 << 20))
		rts[i] = RangeTombstone{Lo: lo, Hi: lo + DeleteKey(rng.Intn(1<<12)), Seq: SeqNum(rng.Intn(1 << 30))}
	}
	s.Build(rts)
	if allocs := testing.AllocsPerRun(5, func() { s.Build(rts) }); allocs != 0 {
		t.Fatalf("rebuilding a skyline of %d tombstones allocated %.0f times", len(rts), allocs)
	}
}

func TestLogicalClock(t *testing.T) {
	var c LogicalClock
	if c.Now() != 0 {
		t.Fatal("zero value should read 0")
	}
	if got := c.Advance(10); got != 10 {
		t.Fatalf("Advance returned %d", got)
	}
	c.Set(100)
	if c.Now() != 100 {
		t.Fatalf("Set/Now = %d", c.Now())
	}
}

func TestKindString(t *testing.T) {
	if KindSet.String() != "SET" || KindDelete.String() != "DEL" || KindRangeDelete.String() != "RANGEDEL" {
		t.Error("kind names changed")
	}
	if Kind(99).String() != "KIND(99)" {
		t.Error("unknown kind formatting changed")
	}
}
