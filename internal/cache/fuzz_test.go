package cache

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// fuzzCapacities are the cache sizes the input's first byte picks from:
// empty, smaller than a block, one shard of a few blocks, and two shards.
var fuzzCapacities = []int64{0, 1000, 48 << 10, 600 << 10}

// FuzzCache decodes a stream of ops over three files and eight offsets and
// checks the cache against a model of the last block put for each key. Each
// op is 3 bytes: the op (low three bits; the bits above pick the file), the
// offset, and the block size as a fraction of a shard, up to past one. The
// ops are 0 Get and release, 1 and 3 Put, 2 EvictFile, 4 Get and keep the
// pin, 5 release the pin the offset byte picks, 6 a read miss (Alloc,
// Insert, keep the pin) and 7 a compaction miss (Alloc, keep the pin, never
// Insert). After every op: a hit returns the last bytes put for its key, no
// block of an evicted file is held, no pinned block's bytes have changed, no
// pinned buffer is on a free list, Bytes is the sum of the held blocks and at
// most the capacity, spare buffers fit beside them in it (or are one), and
// Hits+Misses counts the Gets.
func FuzzCache(f *testing.F) {
	op := func(kind, file, off, size byte) []byte { return []byte{kind | file<<3, off, size} }
	cat := func(cap byte, ops ...[]byte) []byte { return append([]byte{cap}, bytes.Join(ops, nil)...) }
	f.Add([]byte{})
	// Put, hit, replace with a larger block, hit, evict the file, miss.
	f.Add(cat(2, op(1, 0, 0, 20), op(0, 0, 0, 0), op(1, 0, 0, 90), op(0, 0, 0, 0), op(2, 0, 0, 0), op(0, 0, 0, 0)))
	// A block of exactly a shard, then one just past it, then empty ones.
	f.Add(cat(3, op(1, 1, 1, 200), op(0, 1, 1, 0), op(1, 1, 2, 201), op(0, 1, 2, 0), op(1, 2, 3, 0), op(1, 2, 4, 0)))
	// Fill two files past the capacity, re-reading some between puts.
	var churn [][]byte
	for i := byte(0); i < 40; i++ {
		churn = append(churn, op(1, i%2, i%8, 40+i), op(0, 0, i%3, 0))
	}
	f.Add(cat(2, churn...))
	// Pin a block, evict its file, churn the shard with read misses and
	// compaction misses, then release the pin.
	pinned := [][]byte{op(6, 0, 0, 40), op(4, 0, 0, 0), op(5, 0, 0, 0), op(2, 0, 0, 0)}
	for i := byte(0); i < 20; i++ {
		pinned = append(pinned, op(6, 1+i%2, i%8, 30+i), op(5, 0, 1, 0), op(7, 2, i%8, 35))
	}
	f.Add(cat(2, append(pinned, op(5, 0, 0, 0), op(6, 1, 0, 40))...))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		capacity := fuzzCapacities[int(data[0])%len(fuzzCapacities)]
		c := New(capacity)
		shardCap := c.shards[0].capacity
		model := map[blockKey][]byte{} // the last block put for each key
		var pins []fuzzPin
		gets, puts := int64(0), 0
		budget := int64(16 << 20) // bytes of blocks per input
		for data = data[1:]; len(data) >= 3; data = data[3:] {
			k := blockKey{id: uint64(data[0]>>3)%3 + 1, off: uint64(data[1]%8) * 4096}
			size := int64(data[2]) * (shardCap + 1) / 200
			// block returns size bytes tagged with the op's number, which
			// tells the block from the key's earlier ones.
			block := func(buf []byte) []byte {
				puts++
				var tag [8]byte
				binary.LittleEndian.PutUint64(tag[:], uint64(puts))
				copy(buf, tag[:])
				clear(buf[min(len(buf), 8):])
				return buf
			}
			switch op := data[0] & 7; op {
			case 0, 4:
				gets++
				b, ok := c.Get(k.id, k.off)
				if want, held := model[k]; ok && (!held || !bytes.Equal(b.Data(), want)) {
					t.Fatalf("Get(%d, %d) hit %d bytes, not the last put (%d bytes, held %v)", k.id, k.off, len(b.Data()), len(want), held)
				}
				if op == 0 || !ok {
					b.Release()
				} else {
					pins = append(pins, fuzzPin{b, bytes.Clone(b.Data())})
				}
			case 2:
				c.EvictFile(k.id)
				for mk := range model {
					if mk.id == k.id {
						delete(model, mk)
					}
				}
			case 5:
				if len(pins) > 0 {
					j := int(data[1]) % len(pins)
					pins[j].b.Release()
					pins = append(pins[:j], pins[j+1:]...)
				}
			default:
				if budget -= size; budget < 0 {
					return
				}
				if op == 1 || op == 3 {
					blk := block(make([]byte, size))
					c.Put(k.id, k.off, blk)
					model[k] = bytes.Clone(blk)
				} else {
					b := c.Alloc(k.id, k.off, int(size))
					block(b.Data())
					if op == 6 {
						c.Insert(k.id, k.off, &b)
						model[k] = bytes.Clone(b.Data())
					}
					pins = append(pins, fuzzPin{b, bytes.Clone(b.Data())})
				}
				if op != 7 {
					if held := c.holds(k); held != (size <= shardCap) {
						t.Fatalf("Put of %d bytes into a %d-byte shard: held %v", size, shardCap, held)
					}
				}
			}
			c.check(t, model, capacity)
			for _, p := range pins {
				if !bytes.Equal(p.b.Data(), p.want) {
					t.Fatalf("a pinned block of %d bytes changed", len(p.want))
				}
				c.checkNotSpare(t, p.b.Data())
			}
			if got := c.Hits() + c.Misses(); got != gets {
				t.Fatalf("Hits+Misses = %d after %d Gets", got, gets)
			}
		}
	})
}

// fuzzPin is a pin FuzzCache holds and the bytes its block had when taken.
type fuzzPin struct {
	b    Block
	want []byte
}

// holds reports whether the block k is resident, without marking it.
func (c *Cache) holds(k blockKey) bool {
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.index[k]
	return ok
}

// checkNotSpare fails t if buf's backing array is on a free list.
func (c *Cache) checkNotSpare(t *testing.T, buf []byte) {
	t.Helper()
	if cap(buf) == 0 {
		return
	}
	for n := range c.shards {
		for _, sp := range c.shards[n].spare {
			if &sp[:1][0] == &buf[:1][0] {
				t.Fatalf("shard %d: a pinned buffer of %d bytes is on the free list", n, len(buf))
			}
		}
	}
}

// check walks every shard's queue, free list and spare buffers and fails t
// unless they account for every slot (slots neither queued nor free are
// pinned blocks evicted meanwhile), the hand is on a queued block or none,
// each held block is the model's block for its key, the byte counts match
// the blocks held and stay within capacity, and the spare buffers fit beside
// them in it unless there is only one.
func (c *Cache) check(t *testing.T, model map[blockKey][]byte, capacity int64) {
	t.Helper()
	var total int64
	for n := range c.shards {
		s := &c.shards[n]
		var sum int64
		held, hand := 0, s.hand == 0
		queued := make(map[int32]bool)
		for i, prev := s.slot(0).next, int32(0); i != 0; prev, i = i, s.slot(i).next {
			sl := s.slot(i)
			if sl.prev != prev {
				t.Fatalf("shard %d: slot %d links back to %d, not %d", n, i, sl.prev, prev)
			}
			if j, ok := s.index[sl.key]; !ok || j != i {
				t.Fatalf("shard %d: slot %d holds %v, indexed at %d (%v)", n, i, sl.key, j, ok)
			}
			if want, ok := model[sl.key]; !ok || !bytes.Equal(sl.data, want) {
				t.Fatalf("shard %d: slot %d holds %d bytes for %v, not the last put", n, i, len(sl.data), sl.key)
			}
			if refs := sl.refs.Load(); refs < 1 {
				t.Fatalf("shard %d: queued slot %d has %d references", n, i, refs)
			}
			if i == s.hand {
				hand = true
			}
			if held++; held > int(s.nslots) {
				t.Fatalf("shard %d: the queue loops", n)
			}
			queued[i] = true
			sum += int64(len(sl.data))
		}
		if !hand {
			t.Fatalf("shard %d: the hand is on slot %d, which is not queued", n, s.hand)
		}
		free := 0
		for i := s.free; i != 0; i = s.slot(i).next {
			if s.slot(i).data != nil || s.slot(i).refs.Load() != 0 {
				t.Fatalf("shard %d: free slot %d still references a block", n, i)
			}
			if free++; free > int(s.nslots) {
				t.Fatalf("shard %d: the free list loops", n)
			}
			queued[i] = true
		}
		for i := int32(1); i < s.nslots; i++ {
			if sl := s.slot(i); sl.self != i || !queued[i] && sl.refs.Load() < 1 {
				t.Fatalf("shard %d: slot %d (self %d) is neither queued, free nor pinned", n, i, sl.self)
			}
		}
		if held != len(s.index) || held+free+1 > int(s.nslots) {
			t.Fatalf("shard %d: %d queued, %d free, %d indexed, %d slots", n, held, free, len(s.index), int(s.nslots))
		}
		if sum != s.bytes || sum > max(s.capacity, 0) {
			t.Fatalf("shard %d: holds %d bytes, counts %d, capacity %d", n, sum, s.bytes, s.capacity)
		}
		var spare int64
		for _, sp := range s.spare {
			if int64(cap(sp)) > s.capacity {
				t.Fatalf("shard %d: a spare buffer of %d bytes in a %d-byte shard", n, cap(sp), s.capacity)
			}
			spare += int64(cap(sp))
		}
		if spare != s.spareBytes || len(s.spare) > 1 && sum+spare > s.capacity {
			t.Fatalf("shard %d: %d spare bytes in %d buffers beside %d held, counts %d, capacity %d", n, spare, len(s.spare), sum, s.spareBytes, s.capacity)
		}
		total += sum
	}
	if got := c.Bytes(); got != total || got > max(capacity, 0) {
		t.Fatalf("Bytes = %d, blocks held sum to %d, capacity %d", got, total, capacity)
	}
}
