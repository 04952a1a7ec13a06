package main

import (
	"bytes"
	"errors"

	"repro/internal/core"
)

// oracle is the dense model every result is checked against: one slot per
// key index. It lives outside the op timer.
type oracle struct {
	// put[idx] is the tick of the live version of key idx, 0 when dead.
	put []uint32
	// del[idx] is the tick of the point delete that killed key idx, 0 when
	// the key is live, was never deleted, or died to a range delete.
	del []uint32
	// watermark is the exclusive upper bound of the secondary range
	// deleted so far: versions with tick < watermark are dead.
	watermark uint32
	valLen    int
}

func newOracle(keys, valLen int) *oracle {
	return &oracle{put: make([]uint32, keys), del: make([]uint32, keys), valLen: valLen}
}

func (o *oracle) live(idx uint32) bool {
	t := o.put[idx]
	return t != 0 && t >= o.watermark
}

func (o *oracle) notePut(idx, tick uint32) { o.put[idx], o.del[idx] = tick, 0 }
func (o *oracle) noteDelete(idx, tick uint32) {
	o.put[idx], o.del[idx] = 0, tick
}

// checkValue reports whether v is exactly the live version of idx.
func (o *oracle) checkValue(idx uint32, v, scratch []byte) bool {
	if !o.live(idx) || len(v) != o.valLen {
		return false
	}
	fillValue(scratch[:o.valLen], idx, o.put[idx])
	//lint:ignore rawkeycompare the operands are values, compared byte for byte
	return bytes.Equal(v, scratch[:o.valLen])
}

// checkGet checks a point lookup's outcome exactly.
func (o *oracle) checkGet(p op, v []byte, err error, scratch []byte) bool {
	if p.absent || !o.live(p.idx) {
		return errors.Is(err, core.ErrNotFound)
	}
	return err == nil && o.checkValue(p.idx, v, scratch)
}

// scanBuf receives a scan's entries inside the op timer (the copy stands for
// the caller consuming them) and is checked after it.
type scanBuf struct {
	data []byte
	ends []int // ends[2i] closes key i, ends[2i+1] closes value i
}

func (b *scanBuf) reset() { b.data, b.ends = b.data[:0], b.ends[:0] }
func (b *scanBuf) add(k, v []byte) {
	b.data = append(b.data, k...)
	b.ends = append(b.ends, len(b.data))
	b.data = append(b.data, v...)
	b.ends = append(b.ends, len(b.data))
}
func (b *scanBuf) len() int { return len(b.ends) / 2 }
func (b *scanBuf) entry(i int) (k, v []byte) {
	start := 0
	if i > 0 {
		start = b.ends[2*i-1]
	}
	return b.data[start:b.ends[2*i]], b.data[b.ends[2*i]:b.ends[2*i+1]]
}

// checkScan checks a scan that started at key index start and asked for
// limit entries: strictly ascending keys, every entry live with its exact
// value, and no live key skipped. Only indices ≡ res (mod mod) are this
// caller's to judge (served_mixed connections own one residue class each);
// foreign entries are checked for order only.
func (o *oracle) checkScan(start uint32, limit int, b *scanBuf, mod, res uint32, scratch []byte) bool {
	next := start // smallest owned index not yet accounted for
	if r := next % mod; r != res {
		next += (res + mod - r) % mod
	}
	prev, havePrev := uint32(0), false
	for i := 0; i < b.len(); i++ {
		k, v := b.entry(i)
		idx, ok := parseKey(k)
		if !ok || idx < start || (havePrev && idx <= prev) || int(idx) >= len(o.put) {
			return false
		}
		prev, havePrev = idx, true
		if idx%mod != res {
			continue
		}
		for ; next < idx; next += mod {
			if o.live(next) {
				return false // a live key was skipped
			}
		}
		if !o.checkValue(idx, v, scratch) {
			return false
		}
		next = idx + mod
	}
	if b.len() >= limit {
		return true
	}
	// A short scan claims the key space is exhausted.
	for ; int(next) < len(o.put); next += mod {
		if o.live(next) {
			return false
		}
	}
	return true
}

// liveBytes is the logical size of the live data: keys plus values.
func (o *oracle) liveBytes() int64 {
	var n int64
	for idx := range o.put {
		if o.live(uint32(idx)) {
			n += int64(keyLen + o.valLen)
		}
	}
	return n
}
