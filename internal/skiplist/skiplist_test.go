package skiplist

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

func TestInsertGet(t *testing.T) {
	l := New(bytes.Compare)
	for i := 0; i < 1000; i++ {
		k := []byte(fmt.Sprintf("key%06d", i*7%1000))
		l.Insert(k, []byte(fmt.Sprintf("v%d", i)))
	}
	if l.Len() != 1000 {
		t.Fatalf("Len = %d", l.Len())
	}
	if _, ok := l.Get([]byte("key000500")); !ok {
		t.Fatal("missing inserted key")
	}
	if _, ok := l.Get([]byte("absent")); ok {
		t.Fatal("found absent key")
	}
}

func TestOrderedIteration(t *testing.T) {
	l := New(bytes.Compare)
	it := l.NewIter()
	if it.Last() {
		t.Fatal("Last on an empty list is valid")
	}
	perm := rand.New(rand.NewSource(3)).Perm(2000)
	for _, i := range perm {
		l.Insert([]byte(fmt.Sprintf("k%08d", i)), nil)
	}
	prev := []byte(nil)
	n := 0
	for ok := it.First(); ok; ok = it.Next() {
		if prev != nil && bytes.Compare(prev, it.Key()) >= 0 {
			t.Fatalf("out of order: %q then %q", prev, it.Key())
		}
		prev = append(prev[:0], it.Key()...)
		n++
	}
	if n != 2000 {
		t.Fatalf("iterated %d", n)
	}
	if !it.Last() || !bytes.Equal(it.Key(), prev) {
		t.Fatalf("Last = %q, want %q", it.Key(), prev)
	}
}

func TestSeekGE(t *testing.T) {
	l := New(bytes.Compare)
	var keys []string
	for i := 0; i < 500; i++ {
		k := fmt.Sprintf("k%06d", i*4)
		keys = append(keys, k)
		l.Insert([]byte(k), nil)
	}
	it := l.NewIter()
	for trial := 0; trial < 500; trial++ {
		target := fmt.Sprintf("k%06d", trial*4-1)
		want := sort.SearchStrings(keys, target)
		ok := it.SeekGE([]byte(target))
		if want == len(keys) {
			if ok {
				t.Fatalf("SeekGE(%q) should be invalid", target)
			}
		} else if !ok || string(it.Key()) != keys[want] {
			t.Fatalf("SeekGE(%q) = %q, want %q", target, it.Key(), keys[want])
		}
	}
}

func TestBytesAccounting(t *testing.T) {
	l := New(bytes.Compare)
	if l.Bytes() != 0 {
		t.Fatal("fresh list should report 0 bytes")
	}
	l.Insert(make([]byte, 100), make([]byte, 50))
	if got := l.Bytes(); got < 150 {
		t.Fatalf("Bytes = %d, want >= 150", got)
	}
}

// TestConcurrentReadersOneWriter checks the single-writer/many-readers
// contract. One writer inserts keys in a scrambled order, rolling several
// arena chunks, while readers iterate — always a strictly ascending
// sequence — and Get keys inserted before they started. Afterwards the
// towers are walked: every level sorted, each a subsequence of the level
// below, no node linked above its height, nothing lost. Run under -race.
func TestConcurrentReadersOneWriter(t *testing.T) {
	const (
		prefix = 1000
		keys   = 20_000
	)
	l := New(bytes.Compare)
	for i := 0; i < prefix; i++ {
		l.Insert([]byte(fmt.Sprintf("pre%06d", i)), []byte("p"))
	}
	firstChunk := l.arena.idx
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				it := l.NewIter()
				var prev []byte
				for ok := it.First(); ok; ok = it.Next() {
					if prev != nil && bytes.Compare(prev, it.Key()) >= 0 {
						t.Errorf("reader saw %q after %q", it.Key(), prev)
						return
					}
					prev = append(prev[:0], it.Key()...)
				}
				for i := 0; i < prefix; i += 97 {
					k := fmt.Sprintf("pre%06d", i)
					if v, ok := l.Get([]byte(k)); !ok || string(v) != "p" {
						t.Errorf("pre-populated %q: %q, ok=%v", k, v, ok)
						return
					}
				}
			}
		}()
	}
	for _, i := range rand.New(rand.NewSource(1)).Perm(keys) {
		l.Insert([]byte(fmt.Sprintf("k%08d", i)), make([]byte, 64))
	}
	close(stop)
	wg.Wait()
	if rolled := l.arena.idx - firstChunk; rolled < 3 {
		t.Fatalf("the writer rolled %d chunks, want >= 3", rolled)
	}

	if want := prefix + keys; l.Len() != want {
		t.Fatalf("Len = %d, want %d", l.Len(), want)
	}
	checkTowers(t, l, prefix+keys)
}

// checkTowers walks every level of l: level 0 links want nodes in strictly
// ascending order; each upper level is sorted, a subsequence of the level
// below, and holds only nodes tall enough to be linked there. The walk
// follows the refs in the nodes' towers.
func checkTowers(t *testing.T, l *List, want int) {
	t.Helper()
	rv := l.arena.resolver()
	var below map[string]bool
	for level := 0; level < int(l.height.Load()); level++ {
		on := make(map[string]bool)
		var last []byte
		for x := rv.node(l.head.tower[level].Load()); x != nil; x = rv.node(x.tower[level].Load()) {
			if int(x.height) <= level {
				t.Fatalf("node %q of height %d linked at level %d", x.key(), x.height, level)
			}
			if last != nil && bytes.Compare(last, x.key()) >= 0 {
				t.Fatalf("level %d out of order at %q", level, x.key())
			}
			if level > 0 && !below[string(x.key())] {
				t.Fatalf("level %d node %q missing from level %d", level, x.key(), level-1)
			}
			on[string(x.key())] = true
			last = append(last[:0], x.key()...)
		}
		if level == 0 && len(on) != want {
			t.Fatalf("level 0 links %d nodes, want %d", len(on), want)
		}
		below = on
	}
}

// TestConcurrentInsertProperty inserts from many goroutines, serialized by
// a mutex as Insert's single-writer contract requires (the engine holds its
// apply lock the same way), with interleaved key ranges in scrambled order,
// and verifies the skiplist invariants afterwards: nothing lost, nothing
// duplicated, every level sorted and a subsequence of the level below, and
// every key readable with its writer's value.
func TestConcurrentInsertProperty(t *testing.T) {
	const (
		writers    = 8
		perWriter  = 4000
		totalKeys  = writers * perWriter
		iterations = 3
	)
	for trial := 0; trial < iterations; trial++ {
		l := New(bytes.Compare)
		var mu sync.Mutex
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				// Writer w owns keys ≡ w (mod writers), inserted in a
				// scrambled order so splice points collide across levels.
				order := rand.New(rand.NewSource(int64(trial*writers + w))).Perm(perWriter)
				for _, i := range order {
					k := []byte(fmt.Sprintf("k%08d", i*writers+w))
					mu.Lock()
					l.Insert(k, []byte{byte(w)})
					mu.Unlock()
				}
			}(w)
		}
		wg.Wait()

		if l.Len() != totalKeys {
			t.Fatalf("trial %d: Len = %d, want %d", trial, l.Len(), totalKeys)
		}
		it := l.NewIter()
		n := 0
		for ok := it.First(); ok; ok = it.Next() {
			if want := fmt.Sprintf("k%08d", n); string(it.Key()) != want {
				t.Fatalf("trial %d: position %d holds %q, want %q", trial, n, it.Key(), want)
			}
			n++
		}
		if n != totalKeys {
			t.Fatalf("trial %d: iterated %d keys, want %d", trial, n, totalKeys)
		}
		checkTowers(t, l, totalKeys)
		for i := 0; i < totalKeys; i += 97 {
			k := []byte(fmt.Sprintf("k%08d", i))
			v, ok := l.Get(k)
			if !ok {
				t.Fatalf("trial %d: Get(%q) missing", trial, k)
			}
			if len(v) != 1 || int(v[0]) != i%writers {
				t.Fatalf("trial %d: Get(%q) = %v, want writer %d", trial, k, v, i%writers)
			}
		}
	}
}

// TestConcurrentInsertWithReaders overlaps lock-free readers with writers
// on many goroutines that take turns on a mutex: iterators must observe a
// strictly ascending sequence at every step, and Get must find any key
// inserted before the reader started. Run under -race.
func TestConcurrentInsertWithReaders(t *testing.T) {
	const writers = 4
	const perWriter = 5000
	l := New(bytes.Compare)
	// Pre-populate a stable prefix readers can rely on.
	for i := 0; i < 1000; i++ {
		l.Insert([]byte(fmt.Sprintf("pre%06d", i)), nil)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				it := l.NewIter()
				var prev []byte
				for ok := it.First(); ok; ok = it.Next() {
					if prev != nil && bytes.Compare(prev, it.Key()) >= 0 {
						t.Errorf("reader saw %q after %q", it.Key(), prev)
						return
					}
					prev = append(prev[:0], it.Key()...)
				}
				if _, ok := l.Get([]byte("pre000500")); !ok {
					t.Errorf("pre-populated key vanished")
					return
				}
			}
		}()
	}
	var mu sync.Mutex
	var writersWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			for i := 0; i < perWriter; i++ {
				k := []byte(fmt.Sprintf("w%d-%08d", w, i))
				mu.Lock()
				l.Insert(k, nil)
				mu.Unlock()
			}
		}(w)
	}
	writersWG.Wait()
	close(stop)
	readers.Wait()
	if want := 1000 + writers*perWriter; l.Len() != want {
		t.Fatalf("Len = %d, want %d", l.Len(), want)
	}
}

func TestDeterministicHeights(t *testing.T) {
	build := func() string {
		l := New(bytes.Compare)
		for i := 0; i < 100; i++ {
			l.Insert([]byte(fmt.Sprintf("k%03d", i)), nil)
		}
		return fmt.Sprintf("%d", l.height.Load())
	}
	if build() != build() {
		t.Fatal("same insertion sequence should produce identical structure")
	}
}

// TestEntryLargerThanChunk inserts entries whose key plus value exceeds the
// largest chunk, between small ones, and reads them all back. (The list
// before the arena had no chunks, so it passes there too; this pins the
// path that gives such an entry a chunk of its own.)
func TestEntryLargerThanChunk(t *testing.T) {
	l := New(bytes.Compare)
	want := map[string][]byte{}
	put := func(k string, v []byte) {
		l.Insert([]byte(k), v)
		want[k] = v
	}
	big := func(n int, seed byte) []byte {
		v := make([]byte, n)
		for i := range v {
			v[i] = seed + byte(i*31)
		}
		return v
	}
	put("a", []byte("small"))
	put("b", big(maxChunk+1, 1))
	put("c", []byte("small"))
	put(string(big(maxChunk/2, 2)), big(maxChunk/2, 3)) // split across key and value
	put("d", big(3*maxChunk, 4))
	for i := 0; i < 100; i++ {
		put(fmt.Sprintf("e%03d", i), big(100, byte(i)))
	}
	for k, v := range want {
		got, ok := l.Get([]byte(k))
		if !ok || !bytes.Equal(got, v) {
			t.Fatalf("Get(%.8q): %d bytes, ok=%v; want %d bytes", k, len(got), ok, len(v))
		}
	}
	n := 0
	it := l.NewIter()
	for ok := it.First(); ok; ok = it.Next() {
		if !bytes.Equal(it.Value(), want[string(it.Key())]) {
			t.Fatalf("iterated %.8q with the wrong value", it.Key())
		}
		n++
	}
	if n != len(want) {
		t.Fatalf("iterated %d entries, want %d", n, len(want))
	}
}

// TestTruncatedNodeAtChunkEnd places a node of every height, empty key and
// value included, so that its truncated header ends exactly at its chunk's
// usable end, then reads it back. Under -race, checkptr fails the
// conversion to *node if the chunk lacked its nodeSize slack. (Nothing at
// the parent of the arena truncated a node, so it cannot fail there.)
func TestTruncatedNodeAtChunkEnd(t *testing.T) {
	for h := 1; h <= maxHeight; h++ {
		for _, kv := range [][2]string{{"", ""}, {"k", ""}, {"key", "v"}} {
			l := New(bytes.Compare)
			idx := l.arena.idx
			size := (towerOff + 4*uint64(h) + uint64(len(kv[0])+len(kv[1])) + 3) &^ 3
			l.arena.off = l.arena.limit - size
			ref, n := l.arena.newNode([]byte(kv[0]), []byte(kv[1]), h)
			if l.arena.idx != idx || ref>>offBits != idx {
				t.Fatalf("h=%d %q: node did not land in the chunk's tail", h, kv)
			}
			rv := l.arena.resolver()
			if got := rv.node(ref); got != n || int(got.height) != h || string(got.key()) != kv[0] || string(got.value()) != kv[1] {
				t.Fatalf("h=%d %q: read back height %d key %q value %q", h, kv, got.height, got.key(), got.value())
			}
			for i := 0; i < h; i++ {
				if n.tower[i].Load() != 0 {
					t.Fatalf("h=%d: fresh tower slot %d is not nil", h, i)
				}
			}
		}
	}
}

// TestKeyValueCopiedAndCapped: Insert copies key and value, so the caller
// may reuse its buffers; the slices Get and the iterator return have cap ==
// len, so appending to one cannot overwrite the entry after it; and their
// bytes stay put through 10^4 more inserts and a chunk roll. The list
// before the arena retained the caller's slices and fails the first two.
func TestKeyValueCopiedAndCapped(t *testing.T) {
	l := New(bytes.Compare)
	key := append(make([]byte, 0, 64), "key-0"...)
	val := append(make([]byte, 0, 64), "value-0"...)
	l.Insert(key, val)
	l.Insert([]byte("key-1"), []byte("value-1"))
	copy(key, "XXXXX")
	copy(val, "XXXXXXX")

	v, ok := l.Get([]byte("key-0"))
	it := l.NewIter()
	if !ok || !it.First() {
		t.Fatal("key-0 missing")
	}
	k, iv := it.Key(), it.Value()
	for _, b := range [][]byte{v, k, iv} {
		if cap(b) != len(b) {
			t.Fatalf("returned slice %q has cap %d > len %d", b, cap(b), len(b))
		}
	}
	if string(k) != "key-0" || string(v) != "value-0" || string(iv) != "value-0" {
		t.Fatalf("entry reads %q=%q (iterator %q) after the caller reused its buffers", k, v, iv)
	}
	_ = append(k, '!')
	_ = append(v, '!')
	if it.Next(); string(it.Key()) != "key-1" || string(it.Value()) != "value-1" {
		t.Fatalf("next entry reads %q=%q after appends to the previous one", it.Key(), it.Value())
	}

	first := l.arena.idx
	for i := 0; i < 10_000; i++ {
		l.Insert([]byte(fmt.Sprintf("more-%05d", i)), make([]byte, 16))
	}
	if l.arena.idx == first {
		t.Fatal("10^4 inserts did not roll a chunk")
	}
	if string(k) != "key-0" || string(v) != "value-0" || string(iv) != "value-0" {
		t.Fatalf("entry reads %q=%q (iterator %q) after more inserts", k, v, iv)
	}
}

// benchKeys returns n memtable-shaped keys, 24 bytes each, in a fixed
// random order, and a 128-byte value.
func benchKeys(n int) ([][]byte, []byte) {
	keys := make([][]byte, n)
	for i, j := range rand.New(rand.NewSource(1)).Perm(n) {
		keys[i] = []byte(fmt.Sprintf("user%020d", j*7919))
	}
	return keys, bytes.Repeat([]byte{'v'}, 128)
}

// benchEntries is the size of the benchmarks' lists: about a 4 MiB
// memtable's worth of benchKeys entries.
const benchEntries = 20_000

// BenchmarkInsert times an insert into a list of up to benchEntries
// entries; a full list is replaced by a fresh one, so ns/op does not grow
// with b.N.
func BenchmarkInsert(b *testing.B) {
	keys, val := benchKeys(benchEntries)
	b.ReportAllocs()
	b.ResetTimer()
	var l *List
	for i := 0; i < b.N; i++ {
		j := i % len(keys)
		if j == 0 {
			l = New(bytes.Compare)
		}
		l.Insert(keys[j], val)
	}
}

// BenchmarkSeekGE times a seek to a present key of a benchEntries list.
func BenchmarkSeekGE(b *testing.B) {
	keys, val := benchKeys(benchEntries)
	l := New(bytes.Compare)
	for _, k := range keys {
		l.Insert(k, val)
	}
	it := l.NewIter()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !it.SeekGE(keys[i%len(keys)]) {
			b.Fatal("seek found nothing")
		}
	}
}
