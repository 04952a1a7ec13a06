// Package bloom implements the blocked Bloom filter used by Acheron's
// sstables. Point lookups probe the filter before touching any data block,
// which is the main defence of read throughput once deletes litter the tree
// with tombstones.
//
// The filter follows the classic RocksDB/LevelDB construction: k hash probes
// derived from a single 64-bit hash via double hashing, bit array sized at a
// configurable bits-per-key. The false-positive rate for b bits/key is
// roughly 0.6185^b (≈0.8% at b=10).
package bloom

import (
	"encoding/binary"
	"slices"
)

// Filter is an immutable, queryable Bloom filter.
type Filter struct {
	bits   []byte
	probes uint32
}

// maxProbes bounds the probe count a filter is built or decoded with.
const maxProbes = 30

// Build constructs a filter over the given key hashes. Callers hash keys
// with Hash. bitsPerKey tunes the space/false-positive trade-off; values
// below 1 are clamped to 1.
func Build(hashes []uint64, bitsPerKey int) Filter {
	probes, nBytes := size(len(hashes), bitsPerKey)
	bits := make([]byte, nBytes)
	setBits(bits, probes, hashes)
	return Filter{bits: bits, probes: probes}
}

// AppendCompact builds the filter Build would and appends its compact wire
// form to dst: one probe-count byte, then the bit array. It allocates only
// when dst lacks the capacity, so a caller building many small filters into
// one reused buffer allocates nothing per filter. DecodeCompact reads it back.
func AppendCompact(dst []byte, hashes []uint64, bitsPerKey int) []byte {
	probes, nBytes := size(len(hashes), bitsPerKey)
	return appendBits(append(dst, byte(probes)), probes, nBytes, hashes)
}

// appendBits appends the nBytes bit array of a filter over hashes to dst.
func appendBits(dst []byte, probes uint32, nBytes int, hashes []uint64) []byte {
	start := len(dst)
	dst = slices.Grow(dst, nBytes)[:start+nBytes]
	clear(dst[start:])
	setBits(dst[start:], probes, hashes)
	return dst
}

// size returns the probe count and bit-array bytes of a filter over n keys.
func size(n, bitsPerKey int) (probes uint32, nBytes int) {
	bitsPerKey = max(bitsPerKey, 1)
	// probes k = bitsPerKey * ln(2), clamped to [1, maxProbes].
	probes = min(max(uint32(float64(bitsPerKey)*0.69), 1), maxProbes)
	nBits := max(n*bitsPerKey, 64)
	return probes, (nBits + 7) / 8
}

// setBits sets every hash's probe bits in bits.
func setBits(bits []byte, probes uint32, hashes []uint64) {
	nBits := uint64(len(bits) * 8)
	for _, h := range hashes {
		delta := h>>33 | h<<31
		for i := uint32(0); i < probes; i++ {
			pos := h % nBits
			bits[pos/8] |= 1 << (pos % 8)
			h += delta
		}
	}
}

// MayContain reports whether the filter possibly contains the key with the
// given hash. False positives are possible; false negatives are not.
func (f Filter) MayContain(h uint64) bool {
	if len(f.bits) == 0 {
		return true // empty filter: always maybe
	}
	nBits := uint64(len(f.bits) * 8)
	delta := h>>33 | h<<31
	for i := uint32(0); i < f.probes; i++ {
		pos := h % nBits
		if f.bits[pos/8]&(1<<(pos%8)) == 0 {
			return false
		}
		h += delta
	}
	return true
}

// SizeBytes returns the in-memory size of the filter's bit array.
func (f Filter) SizeBytes() int { return len(f.bits) }

// Append builds the filter Build would and appends its wire form to dst:
// 4-byte probe count followed by the bit array. Like AppendCompact it
// allocates only when dst lacks the capacity. Decode reads it back.
func Append(dst []byte, hashes []uint64, bitsPerKey int) []byte {
	probes, nBytes := size(len(hashes), bitsPerKey)
	return appendBits(binary.LittleEndian.AppendUint32(dst, probes), probes, nBytes, hashes)
}

// Decode parses a filter from its wire form. ok is false if the input is
// malformed.
func Decode(b []byte) (Filter, bool) {
	if len(b) < 4 {
		return Filter{}, false
	}
	probes := binary.LittleEndian.Uint32(b[:4])
	if probes == 0 || probes > maxProbes {
		return Filter{}, false
	}
	return Filter{bits: b[4:], probes: probes}, true
}

// DecodeCompact parses the form AppendCompact writes; the filter aliases b.
// ok is false if the probe count is out of range or the bit array is empty.
func DecodeCompact(b []byte) (Filter, bool) {
	if len(b) < 2 || b[0] == 0 || b[0] > maxProbes {
		return Filter{}, false
	}
	return Filter{bits: b[1:], probes: uint32(b[0])}, true
}

// Hash computes the 64-bit hash of a key used for both filter construction
// and probing. It is a 64-bit FNV-1a variant with extra avalanche mixing
// (xxhash-style finalizer) to decorrelate the double-hashing probes.
func Hash(key []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var h uint64 = offset64
	for _, c := range key {
		h ^= uint64(c)
		h *= prime64
	}
	// Finalizer from xxhash64 to break FNV's weak low-bit diffusion.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
