package skiplist

import (
	"bytes"
	"sort"
	"testing"
)

// fuzzSizes are the key and value lengths a size byte of 240 or more
// selects: the edges of the first chunk, of the largest chunk and past it.
var fuzzSizes = []int{
	firstChunk - int(nodeSize), firstChunk, 2 * firstChunk,
	maxChunk - int(nodeSize) - 64, maxChunk - 1, maxChunk, maxChunk + 1, 2*maxChunk + 3,
}

func fuzzSize(b byte) int {
	if b < 240 {
		return int(b)
	}
	return fuzzSizes[int(b-240)%len(fuzzSizes)]
}

// fuzzBytes is n bytes derived from a seed, so two seeds make distinct
// keys of any length and a long key costs the input two bytes. The pattern
// repeats every 256 bytes; copying the period, rather than looping over
// every byte, keeps a megabyte key cheap under coverage instrumentation.
func fuzzBytes(n int, seed, step byte) []byte {
	b := make([]byte, n)
	for i := 0; i < n && i < 256; i++ {
		b[i] = seed + byte(i)*step
	}
	for i := 256; i < n; i *= 2 {
		copy(b[i:], b[:i])
	}
	return b
}

// FuzzSkiplist decodes a stream of inserts, seeks and retirements, with key
// and value sizes from 0 to past the largest chunk, and checks Get, SeekGE
// and a full iteration against a sorted slice. A retirement checks the list
// whole, releases it and starts the next one on its chunks, which are not
// zeroed: every list is checked against its own model, and its towers
// walked, so a node in a reused chunk that links to a node of the list
// before fails. Each op is 5 bytes: op (3 mod 4 retires, else even inserts
// and odd seeks), key size, value size, and two key seed bytes; a size byte
// below 240 is the length itself, one above picks from fuzzSizes.
func FuzzSkiplist(f *testing.F) {
	op := func(kind, ksize, vsize, seed, step byte) []byte { return []byte{kind, ksize, vsize, seed, step} }
	cat := func(ops ...[]byte) []byte { return bytes.Join(ops, nil) }
	f.Add([]byte{})
	// Empty key and value; a seek past everything.
	f.Add(cat(op(0, 0, 0, 0, 0), op(0, 1, 0, 'a', 1), op(1, 3, 0, 0xff, 0)))
	// A value, then a key, larger than the largest chunk, between small entries.
	f.Add(cat(op(0, 8, 8, 'a', 1), op(0, 8, 246, 'b', 1), op(0, 247, 8, 'c', 1), op(0, 8, 8, 'd', 1), op(1, 8, 0, 'b', 1)))
	// Entries filling the first chunk's tail exactly, and one just over.
	f.Add(cat(op(0, 4, 240, 'a', 3), op(0, 4, 241, 'b', 3), op(0, 4, 243, 'c', 3), op(1, 4, 0, 'b', 0)))
	// Many small entries in descending order, rolling several chunks.
	var many []byte
	for i := 0; i < 200; i++ {
		many = append(many, op(0, 12, 200, byte(255-i), 7)...)
	}
	f.Add(append(many, op(1, 12, 0, 100, 7)...))
	// Two lists of small entries, the second on the first's chunks, and a
	// third after a large entry's own chunk.
	f.Add(cat(many, op(3, 0, 0, 0, 0), many[:500], op(0, 8, 246, 'b', 1), op(3, 0, 0, 0, 0), many[500:700]))

	f.Fuzz(func(t *testing.T, data []byte) {
		type entry struct{ k, v []byte }
		var model []entry // sorted by key
		find := func(k []byte) int {
			return sort.Search(len(model), func(i int) bool { return bytes.Compare(model[i].k, k) >= 0 })
		}
		chunks := NewChunks(8 << 20)
		l := NewRecycled(bytes.Compare, chunks)
		check := func() {
			if l.Len() != len(model) {
				t.Fatalf("Len = %d, want %d", l.Len(), len(model))
			}
			it := l.NewIter()
			i := 0
			for ok := it.First(); ok; ok = it.Next() {
				if i >= len(model) || !bytes.Equal(it.Key(), model[i].k) || !bytes.Equal(it.Value(), model[i].v) {
					t.Fatalf("entry %d of the iteration is %.16q, not the model's", i, it.Key())
				}
				if cap(it.Key()) != len(it.Key()) || cap(it.Value()) != len(it.Value()) {
					t.Fatalf("entry %d: cap exceeds len", i)
				}
				i++
			}
			if i != len(model) {
				t.Fatalf("iterated %d entries, want %d", i, len(model))
			}
			if ok := it.Last(); ok != (len(model) > 0) || ok && !bytes.Equal(it.Key(), model[len(model)-1].k) {
				t.Fatalf("Last = %.16q, %v over %d entries", it.Key(), ok, len(model))
			}
			for _, e := range model {
				if v, ok := l.Get(e.k); !ok || !bytes.Equal(v, e.v) {
					t.Fatalf("Get(%.16q) = %d bytes, %v after the run", e.k, len(v), ok)
				}
			}
			checkTowers(t, l, len(model))
		}
		budget := 4 << 20 // bytes of keys and values per input
		for ; len(data) >= 5; data = data[5:] {
			if data[0]%4 == 3 {
				check()
				l.Release()
				l, model = NewRecycled(bytes.Compare, chunks), nil
				continue
			}
			k := fuzzBytes(fuzzSize(data[1]), data[3], data[4])
			if data[0]%2 == 0 {
				v := fuzzBytes(fuzzSize(data[2]), data[4], data[3]+1)
				if budget -= len(k) + len(v); budget < 0 {
					break
				}
				i := find(k)
				if i < len(model) && bytes.Equal(model[i].k, k) {
					continue // the list takes distinct keys only
				}
				l.Insert(k, v)
				model = append(model, entry{})
				copy(model[i+1:], model[i:])
				model[i] = entry{k, v}
				continue
			}
			it := l.NewIter()
			i := find(k)
			if ok := it.SeekGE(k); ok != (i < len(model)) {
				t.Fatalf("SeekGE(%.16q) = %v with %d of %d keys at or after it", k, ok, len(model)-i, len(model))
			}
			if i < len(model) && (!bytes.Equal(it.Key(), model[i].k) || !bytes.Equal(it.Value(), model[i].v)) {
				t.Fatalf("SeekGE(%.16q) landed on %.16q, want %.16q", k, it.Key(), model[i].k)
			}
			present := i < len(model) && bytes.Equal(model[i].k, k)
			if v, ok := l.Get(k); ok != present || (ok && !bytes.Equal(v, model[i].v)) {
				t.Fatalf("Get(%.16q) = %d bytes, %v; present=%v", k, len(v), ok, present)
			}
		}

		check()
	})
}
