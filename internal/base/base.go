// Package base defines the fundamental types shared by every layer of the
// Acheron LSM engine: user and internal keys, sequence numbers, entry kinds,
// secondary ("delete key") range tombstones, and the logical clock used to
// age tombstones against the delete persistence threshold.
package base

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
)

// SeqNum is a monotonically increasing sequence number assigned to every
// write. Higher sequence numbers shadow lower ones for the same user key.
type SeqNum uint64

// MaxSeqNum is the largest representable sequence number. Internal keys used
// as seek targets carry MaxSeqNum so that they sort before every real entry
// with the same user key.
const MaxSeqNum SeqNum = (1 << 56) - 1

// Kind identifies what an internal entry represents.
type Kind uint8

const (
	// KindSet is a regular key/value insertion (or update).
	KindSet Kind = 1
	// KindDelete is a point tombstone. Its value holds the 8-byte
	// big-endian creation timestamp used by FADE to age the tombstone.
	KindDelete Kind = 2
	// KindRangeDelete is a secondary-key range tombstone (the KiWi delete
	// path). It never appears inside the primary key ordering; range
	// tombstones are stored in a sidecar (memtable) or a dedicated meta
	// block (sstable).
	KindRangeDelete Kind = 3
	// KindMax is one past the largest valid kind.
	KindMax Kind = 4
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindSet:
		return "SET"
	case KindDelete:
		return "DEL"
	case KindRangeDelete:
		return "RANGEDEL"
	}
	return fmt.Sprintf("KIND(%d)", uint8(k))
}

// Trailer packs a sequence number and kind into a single uint64:
// seqnum<<8 | kind. Internal keys order by user key ascending, then trailer
// descending, which places newer entries first.
type Trailer uint64

// MakeTrailer builds a trailer from a sequence number and kind.
func MakeTrailer(seq SeqNum, kind Kind) Trailer {
	return Trailer(uint64(seq)<<8 | uint64(kind))
}

// SeqNum extracts the sequence number from the trailer.
func (t Trailer) SeqNum() SeqNum { return SeqNum(t >> 8) }

// Kind extracts the entry kind from the trailer.
func (t Trailer) Kind() Kind { return Kind(t & 0xff) }

// InternalKey is a user key plus a trailer. The encoded form appends the
// 8-byte big-endian *inverted* trailer to the user key so that plain
// bytes.Compare on encoded keys yields the internal ordering.
type InternalKey struct {
	UserKey []byte
	Trailer Trailer
}

// MakeInternalKey assembles an InternalKey.
func MakeInternalKey(userKey []byte, seq SeqNum, kind Kind) InternalKey {
	return InternalKey{UserKey: userKey, Trailer: MakeTrailer(seq, kind)}
}

// MakeSearchKey returns the key that seeks to the first entry with the given
// user key at or below the given sequence number.
func MakeSearchKey(userKey []byte, seq SeqNum) InternalKey {
	return MakeInternalKey(userKey, seq, KindMax-1)
}

// SeqNum returns the key's sequence number.
func (ik InternalKey) SeqNum() SeqNum { return ik.Trailer.SeqNum() }

// Kind returns the key's entry kind.
func (ik InternalKey) Kind() Kind { return ik.Trailer.Kind() }

// Size returns the encoded size of the key.
func (ik InternalKey) Size() int { return len(ik.UserKey) + 8 }

// Encode appends the encoded internal key to dst and returns the result.
// The trailer is bitwise inverted so ascending byte order equals the
// internal ordering (user key asc, seqnum desc, kind desc).
func (ik InternalKey) Encode(dst []byte) []byte {
	dst = append(dst, ik.UserKey...)
	var tr [8]byte
	binary.BigEndian.PutUint64(tr[:], ^uint64(ik.Trailer))
	return append(dst, tr[:]...)
}

// DecodeInternalKey splits an encoded internal key into its parts. It
// panics if the encoded form is shorter than the 8-byte trailer; callers
// own the framing.
func DecodeInternalKey(encoded []byte) InternalKey {
	n := len(encoded) - 8
	if n < 0 {
		panic(fmt.Sprintf("base: encoded internal key too short: %d bytes", len(encoded)))
	}
	tr := ^binary.BigEndian.Uint64(encoded[n:])
	return InternalKey{UserKey: encoded[:n], Trailer: Trailer(tr)}
}

// Clone returns a copy of the key whose UserKey does not alias ik's.
func (ik InternalKey) Clone() InternalKey {
	return InternalKey{UserKey: append([]byte(nil), ik.UserKey...), Trailer: ik.Trailer}
}

// String implements fmt.Stringer.
func (ik InternalKey) String() string {
	return fmt.Sprintf("%q#%d,%s", ik.UserKey, ik.SeqNum(), ik.Kind())
}

// Compare orders internal keys: user key ascending, then sequence number
// descending, then kind descending. Newer entries sort first.
func (ik InternalKey) Compare(other InternalKey) int {
	//lint:ignore rawkeycompare comparator implementation; user keys are defined as lexicographic byte order
	if c := bytes.Compare(ik.UserKey, other.UserKey); c != 0 {
		return c
	}
	switch {
	case ik.Trailer > other.Trailer:
		return -1
	case ik.Trailer < other.Trailer:
		return 1
	}
	return 0
}

// CompareEncoded orders two encoded internal keys without decoding them.
func CompareEncoded(a, b []byte) int {
	if len(a) < 8 || len(b) < 8 {
		// A valid encoded key always carries its 8-byte trailer; anything
		// shorter came from a corrupt block. Fall back to raw byte order so
		// the comparator stays total (and panic-free) and the corruption
		// surfaces as a decode error at the consumer instead.
		//lint:ignore rawkeycompare corrupt-input fallback inside the comparator itself
		return bytes.Compare(a, b)
	}
	ua, ub := a[:len(a)-8], b[:len(b)-8]
	//lint:ignore rawkeycompare comparator implementation; user-key prefix is lexicographic by definition
	if c := bytes.Compare(ua, ub); c != 0 {
		return c
	}
	// Trailers are stored inverted, so plain byte comparison of the
	// suffix already yields seqnum-descending order.
	//lint:ignore rawkeycompare comparator implementation; inverted trailer bytes sort seqnum-descending
	return bytes.Compare(a[len(a)-8:], b[len(b)-8:])
}

// Compare is the user-key comparator used throughout the engine.
// It is plain lexicographic byte order.
func Compare(a, b []byte) int { return bytes.Compare(a, b) } //lint:ignore rawkeycompare this IS the engine comparator

// Timestamp is a point on the engine's clock, in nanoseconds. The clock may
// be the OS clock or a deterministic logical clock (benchmarks use the
// latter so TTL expiry is reproducible).
type Timestamp int64

// Duration is a span between two Timestamps, in the clock's nanosecond units.
type Duration int64

// Clock supplies timestamps for tombstone aging.
type Clock interface {
	// Now returns the current time on this clock.
	Now() Timestamp
}

// LogicalClock is a deterministic, manually advanced Clock. The zero value
// is ready to use. It is safe for concurrent use only through Advance/Now
// being individually atomic-free single-writer operations; the engine
// serializes writes, which is the only Advance caller in tests.
type LogicalClock struct {
	now Timestamp
}

// Now returns the current logical time.
func (c *LogicalClock) Now() Timestamp { return c.now }

// Advance moves the clock forward by d and returns the new time.
func (c *LogicalClock) Advance(d Duration) Timestamp {
	c.now += Timestamp(d)
	return c.now
}

// Set jumps the clock to t.
func (c *LogicalClock) Set(t Timestamp) { c.now = t }

// EncodeTombstoneValue encodes a point tombstone's creation timestamp as its
// value payload.
func EncodeTombstoneValue(ts Timestamp) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(ts))
	return b[:]
}

// DecodeTombstoneValue recovers the creation timestamp from a point
// tombstone's value. A malformed (short) payload yields timestamp 0, i.e.
// "as old as possible", which is the conservative choice for TTL expiry.
func DecodeTombstoneValue(v []byte) Timestamp {
	if len(v) < 8 {
		return 0
	}
	return Timestamp(binary.BigEndian.Uint64(v))
}

// DeleteKey is the secondary key on which KiWi range deletes operate (for
// example a record timestamp). It is extracted from a record's value by a
// user-supplied DeleteKeyExtractor.
type DeleteKey = uint64

// DeleteKeyExtractor derives the secondary delete key from a record's value.
// It must be pure: the same value always yields the same delete key.
type DeleteKeyExtractor func(value []byte) DeleteKey

// RangeTombstone invalidates every record whose delete key lies in
// [Lo, Hi) and whose sequence number is below Seq.
type RangeTombstone struct {
	// Lo is the inclusive lower bound on the delete key.
	Lo DeleteKey
	// Hi is the exclusive upper bound on the delete key.
	Hi DeleteKey
	// Seq is the tombstone's sequence number; only older entries are
	// invalidated.
	Seq SeqNum
	// CreatedAt is the tombstone's creation time, used for TTL aging
	// exactly like point tombstones.
	CreatedAt Timestamp
}

// Covers reports whether the tombstone invalidates an entry with the given
// delete key and sequence number.
func (rt RangeTombstone) Covers(dk DeleteKey, seq SeqNum) bool {
	return seq < rt.Seq && dk >= rt.Lo && dk < rt.Hi
}

// CoversRange reports whether the tombstone's span fully contains [lo, hi].
// Both bounds are inclusive: they describe the min and max delete key
// observed in a page or file.
func (rt RangeTombstone) CoversRange(lo, hi DeleteKey) bool {
	return lo >= rt.Lo && hi < rt.Hi
}

// Skyline answers Covers for a whole list of range tombstones with one binary
// search: the list flattened into disjoint delete-key intervals, each holding
// the newest seqnum among the tombstones covering it. Some tombstone of the
// list covers (dk, seq) exactly when seq is below the seqnum of dk's
// interval. The zero value covers nothing; Build reuses its buffers.
type Skyline struct {
	// Interval i is [los[i], los[i+1]), the last one open-ended; seqs[i] is
	// the newest seqnum covering it, 0 in a gap. Adjacent intervals differ.
	los  []DeleteKey
	seqs []SeqNum
	// Build's scratch: the tombstones newest first, and the union-find
	// links to each interval's next one not yet assigned.
	bySeq []RangeTombstone
	next  []int32
}

// Build makes s the skyline of rts, in O(k log k) for k tombstones. The
// endpoints of every non-empty tombstone, sorted, cut the key space into
// elementary intervals; the tombstones are then applied newest first, each
// assigning its seqnum to those of its intervals no newer one has, and a
// union-find over "next unassigned interval" visits each interval once.
func (s *Skyline) Build(rts []RangeTombstone) {
	los, bySeq := s.los[:0], s.bySeq[:0]
	for _, rt := range rts {
		if rt.Lo < rt.Hi {
			los = append(los, rt.Lo, rt.Hi)
			bySeq = append(bySeq, rt)
		}
	}
	slices.Sort(los)
	los = slices.Compact(los)
	slices.SortFunc(bySeq, func(a, b RangeTombstone) int { return cmp.Compare(b.Seq, a.Seq) })
	// The last interval starts at the largest Hi: no tombstone reaches it,
	// and its link ends every walk.
	seqs := slices.Grow(s.seqs[:0], len(los))[:len(los)]
	next := slices.Grow(s.next[:0], len(los))[:len(los)]
	clear(seqs)
	for i := range next {
		next[i] = int32(i)
	}
	find := func(i int32) int32 {
		for next[i] != i {
			next[i] = next[next[i]]
			i = next[i]
		}
		return i
	}
	for _, rt := range bySeq {
		lo, _ := slices.BinarySearch(los, rt.Lo)
		hi, _ := slices.BinarySearch(los, rt.Hi)
		for i := find(int32(lo)); int(i) < hi; i = find(i + 1) {
			seqs[i] = rt.Seq
			next[i] = i + 1
		}
	}
	// Merge neighbours with the same seqnum, in place.
	n := 0
	for i := range los {
		if n > 0 && seqs[i] == seqs[n-1] {
			continue
		}
		los[n], seqs[n] = los[i], seqs[i]
		n++
	}
	s.los, s.seqs, s.bySeq, s.next = los[:n], seqs[:n], bySeq, next
}

// Covers reports whether some tombstone s was built from covers an entry with
// the given delete key and sequence number.
func (s *Skyline) Covers(dk DeleteKey, seq SeqNum) bool {
	i, found := slices.BinarySearch(s.los, dk)
	if !found {
		i--
	}
	return i >= 0 && seq < s.seqs[i]
}

// EncodeRangeTombstone appends the wire form of rt to dst.
func EncodeRangeTombstone(dst []byte, rt RangeTombstone) []byte {
	var b [32]byte
	binary.BigEndian.PutUint64(b[0:], rt.Lo)
	binary.BigEndian.PutUint64(b[8:], rt.Hi)
	binary.BigEndian.PutUint64(b[16:], uint64(rt.Seq))
	binary.BigEndian.PutUint64(b[24:], uint64(rt.CreatedAt))
	return append(dst, b[:]...)
}

// DecodeRangeTombstone reads one wire-form tombstone from b, returning the
// tombstone and the remaining bytes. ok is false if b is too short.
func DecodeRangeTombstone(b []byte) (rt RangeTombstone, rest []byte, ok bool) {
	if len(b) < 32 {
		return RangeTombstone{}, b, false
	}
	rt.Lo = binary.BigEndian.Uint64(b[0:])
	rt.Hi = binary.BigEndian.Uint64(b[8:])
	rt.Seq = SeqNum(binary.BigEndian.Uint64(b[16:]))
	rt.CreatedAt = Timestamp(binary.BigEndian.Uint64(b[24:]))
	return rt, b[32:], true
}

// FileNum identifies an on-disk file (sstable, WAL segment, manifest).
type FileNum uint64

// String implements fmt.Stringer.
func (fn FileNum) String() string { return fmt.Sprintf("%06d", uint64(fn)) }
