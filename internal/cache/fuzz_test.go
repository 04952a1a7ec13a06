package cache

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// fuzzCapacities are the cache sizes the input's first byte picks from:
// empty, smaller than a block, one shard of a few blocks, and two shards.
var fuzzCapacities = []int64{0, 1000, 48 << 10, 600 << 10}

// FuzzCache decodes a stream of Gets, Puts and EvictFiles over three files
// and eight offsets and checks the cache against a model of the last block
// put for each key. Each op is 3 bytes: the op (low two bits: 0 Get, 1 Put,
// 2 EvictFile, 3 Put; the next two bits pick the file), the offset, and the
// block size as a fraction of a shard, up to past one. After every op: a
// hit returns the last bytes put for its key, no block of an evicted file
// is held, Bytes is the sum of the held blocks and at most the capacity,
// and Hits+Misses counts the Gets.
func FuzzCache(f *testing.F) {
	op := func(kind, file, off, size byte) []byte { return []byte{kind | file<<2, off, size} }
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

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		capacity := fuzzCapacities[int(data[0])%len(fuzzCapacities)]
		c := New(capacity)
		shardCap := c.shards[0].capacity
		model := map[blockKey][]byte{} // the last block put for each key
		gets, puts := int64(0), 0
		budget := int64(16 << 20) // bytes of blocks per input
		for data = data[1:]; len(data) >= 3; data = data[3:] {
			k := blockKey{id: uint64(data[0]>>2)%3 + 1, off: uint64(data[1]%8) * 4096}
			switch data[0] & 3 {
			case 0:
				gets++
				got, ok := c.Get(k.id, k.off)
				if want, held := model[k]; ok && (!held || !bytes.Equal(got, want)) {
					t.Fatalf("Get(%d, %d) hit %d bytes, not the last put (%d bytes, held %v)", k.id, k.off, len(got), len(want), held)
				}
			case 2:
				c.EvictFile(k.id)
				for mk := range model {
					if mk.id == k.id {
						delete(model, mk)
					}
				}
			default:
				puts++
				size := int64(data[2]) * (shardCap + 1) / 200
				if budget -= size; budget < 0 {
					return
				}
				blk := make([]byte, size)
				var tag [8]byte // tells this block from the key's earlier ones
				binary.LittleEndian.PutUint64(tag[:], uint64(puts))
				copy(blk, tag[:])
				c.Put(k.id, k.off, blk)
				model[k] = blk
				if held := c.holds(k); held != (size <= shardCap) {
					t.Fatalf("Put of %d bytes into a %d-byte shard: held %v", size, shardCap, held)
				}
			}
			c.check(t, model, capacity)
			if got := c.Hits() + c.Misses(); got != gets {
				t.Fatalf("Hits+Misses = %d after %d Gets", got, gets)
			}
		}
	})
}

// holds reports whether the block k is resident, without marking it.
func (c *Cache) holds(k blockKey) bool {
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.index[k]
	return ok
}

// check walks every shard's queue and free list and fails t unless they
// account for every slot, the hand is on a queued block or none, each held
// block is the model's block for its key,
// and the byte counts match the blocks held and stay within capacity.
func (c *Cache) check(t *testing.T, model map[blockKey][]byte, capacity int64) {
	t.Helper()
	var total int64
	for n := range c.shards {
		s := &c.shards[n]
		var sum int64
		held, hand := 0, s.hand == 0
		for i, prev := s.slots[0].next, int32(0); i != 0; prev, i = i, s.slots[i].next {
			sl := &s.slots[i]
			if sl.prev != prev {
				t.Fatalf("shard %d: slot %d links back to %d, not %d", n, i, sl.prev, prev)
			}
			if j, ok := s.index[sl.key]; !ok || j != i {
				t.Fatalf("shard %d: slot %d holds %v, indexed at %d (%v)", n, i, sl.key, j, ok)
			}
			if want, ok := model[sl.key]; !ok || !bytes.Equal(sl.data, want) {
				t.Fatalf("shard %d: slot %d holds %d bytes for %v, not the last put", n, i, len(sl.data), sl.key)
			}
			if i == s.hand {
				hand = true
			}
			if held++; held > len(s.slots) {
				t.Fatalf("shard %d: the queue loops", n)
			}
			sum += int64(len(sl.data))
		}
		if !hand {
			t.Fatalf("shard %d: the hand is on slot %d, which is not queued", n, s.hand)
		}
		free := 0
		for i := s.free; i != 0; i = s.slots[i].next {
			if s.slots[i].data != nil {
				t.Fatalf("shard %d: free slot %d still references a block", n, i)
			}
			if free++; free > len(s.slots) {
				t.Fatalf("shard %d: the free list loops", n)
			}
		}
		if held != len(s.index) || held+free+1 != len(s.slots) {
			t.Fatalf("shard %d: %d queued, %d free, %d indexed, %d slots", n, held, free, len(s.index), len(s.slots))
		}
		if sum != s.bytes || sum > max(s.capacity, 0) {
			t.Fatalf("shard %d: holds %d bytes, counts %d, capacity %d", n, sum, s.bytes, s.capacity)
		}
		total += sum
	}
	if got := c.Bytes(); got != total || got > max(capacity, 0) {
		t.Fatalf("Bytes = %d, blocks held sum to %d, capacity %d", got, total, capacity)
	}
}
