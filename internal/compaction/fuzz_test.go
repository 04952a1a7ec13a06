package compaction

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"repro/internal/base"
)

// FuzzSkyline: for fuzzer-chosen range tombstones, snapshots, delete key and
// seqnum, the skyline Run builds over the tombstones it may apply answers what
// the walk it replaced did — some tombstone covers the entry, and no snapshot
// predates that tombstone. Beside the fuzzer's own (dk, seq), each
// tombstone's edges are probed at seqnums around its own.
func FuzzSkyline(f *testing.F) {
	type rt = base.RangeTombstone
	tombstones := func(rts ...rt) []byte {
		var b []byte
		for _, rt := range rts {
			b = binary.BigEndian.AppendUint64(b, rt.Lo)
			b = binary.BigEndian.AppendUint64(b, rt.Hi)
			b = binary.BigEndian.AppendUint64(b, uint64(rt.Seq))
		}
		return b
	}
	snapshots := func(seqs ...uint64) []byte {
		var b []byte
		for _, s := range seqs {
			b = binary.BigEndian.AppendUint64(b, s)
		}
		return b
	}
	// Nested [0, x) prefixes, kiwi_retention's shape, with and without a
	// snapshot between their seqnums.
	nested := tombstones(rt{Lo: 0, Hi: 100, Seq: 5}, rt{Lo: 0, Hi: 200, Seq: 9}, rt{Lo: 0, Hi: 300, Seq: 12})
	f.Add(nested, snapshots(), uint64(150), uint64(7))
	f.Add(nested, snapshots(10), uint64(50), uint64(4))
	f.Add(nested, snapshots(3, 9), uint64(250), uint64(11))
	// Empty and inverted spans beside a real one.
	f.Add(tombstones(rt{Lo: 50, Hi: 50, Seq: 9}, rt{Lo: 80, Hi: 20, Seq: 9}, rt{Lo: 10, Hi: 60, Seq: 3}), snapshots(), uint64(50), uint64(2))
	// Touching intervals, the middle one newer.
	f.Add(tombstones(rt{Lo: 0, Hi: 10, Seq: 5}, rt{Lo: 10, Hi: 20, Seq: 7}, rt{Lo: 20, Hi: 30, Seq: 5}), snapshots(6), uint64(10), uint64(5))
	// Spans reaching MaxUint64, which no tombstone covers.
	f.Add(tombstones(rt{Lo: 0, Hi: math.MaxUint64, Seq: 4}, rt{Lo: math.MaxUint64 - 1, Hi: math.MaxUint64, Seq: 9}), snapshots(), uint64(math.MaxUint64), uint64(1))

	f.Fuzz(func(t *testing.T, rtBytes, snapBytes []byte, dk, seq uint64) {
		var rts []base.RangeTombstone
		for b := rtBytes; len(b) >= 24 && len(rts) < 16; b = b[24:] {
			rts = append(rts, base.RangeTombstone{
				Lo: binary.BigEndian.Uint64(b), Hi: binary.BigEndian.Uint64(b[8:]),
				Seq: base.SeqNum(binary.BigEndian.Uint64(b[16:])),
			})
		}
		var snaps []base.SeqNum
		for b := snapBytes; len(b) >= 8 && len(snaps) < 8; b = b[8:] {
			snaps = append(snaps, base.SeqNum(binary.BigEndian.Uint64(b)))
		}
		slices.Sort(snaps)

		var s base.Skyline
		s.Build(applicableRangeDels(snaps, rts))
		check := func(dk base.DeleteKey, seq base.SeqNum) {
			want := false
			for _, rt := range rts {
				if rt.Covers(dk, seq) && noSnapshotIn(snaps, 0, rt.Seq) {
					want = true
				}
			}
			if got := s.Covers(dk, seq); got != want {
				t.Fatalf("tombstones %v, snapshots %v: Covers(%d, %d) = %v, want %v", rts, snaps, dk, seq, got, want)
			}
		}
		check(dk, base.SeqNum(seq))
		for _, rt := range rts {
			for _, d := range []base.DeleteKey{rt.Lo - 1, rt.Lo, rt.Hi - 1, rt.Hi} {
				for _, q := range []base.SeqNum{rt.Seq - 1, rt.Seq, base.SeqNum(seq)} {
					check(d, q)
				}
			}
		}
	})
}
