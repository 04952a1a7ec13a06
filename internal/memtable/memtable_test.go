package memtable

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"repro/internal/base"
)

func TestAddGetVisibility(t *testing.T) {
	m := New()
	m.Add(base.MakeInternalKey([]byte("k"), 5, base.KindSet), []byte("v5"))
	m.Add(base.MakeInternalKey([]byte("k"), 9, base.KindSet), []byte("v9"))

	// Latest read sees the newest version.
	kind, v, seq, ok := m.Get([]byte("k"), base.MaxSeqNum)
	if !ok || kind != base.KindSet || string(v) != "v9" || seq != 9 {
		t.Fatalf("latest get = %v %q %d %v", kind, v, seq, ok)
	}
	// Snapshot read at seq 7 sees the older version.
	kind, v, seq, ok = m.Get([]byte("k"), 7)
	if !ok || string(v) != "v5" || seq != 5 {
		t.Fatalf("snapshot get = %v %q %d %v", kind, v, seq, ok)
	}
	// Snapshot read below both versions sees nothing.
	if _, _, _, ok = m.Get([]byte("k"), 3); ok {
		t.Fatal("pre-insert snapshot should see nothing")
	}
	// Absent key.
	if _, _, _, ok = m.Get([]byte("absent"), base.MaxSeqNum); ok {
		t.Fatal("absent key found")
	}
}

func TestTombstoneVisibleAsDelete(t *testing.T) {
	m := New()
	m.Add(base.MakeInternalKey([]byte("k"), 1, base.KindSet), []byte("v"))
	m.Add(base.MakeInternalKey([]byte("k"), 2, base.KindDelete), base.EncodeTombstoneValue(42))
	kind, _, _, ok := m.Get([]byte("k"), base.MaxSeqNum)
	if !ok || kind != base.KindDelete {
		t.Fatalf("expected tombstone, got %v ok=%v", kind, ok)
	}
	if m.NumDeletes() != 1 {
		t.Fatalf("NumDeletes = %d", m.NumDeletes())
	}
	ts, has := m.OldestTombstone()
	if !has || ts != 42 {
		t.Fatalf("OldestTombstone = %d, %v", ts, has)
	}
}

func TestOldestTombstoneTracksMinimum(t *testing.T) {
	m := New()
	m.Add(base.MakeInternalKey([]byte("a"), 1, base.KindDelete), base.EncodeTombstoneValue(100))
	m.Add(base.MakeInternalKey([]byte("b"), 2, base.KindDelete), base.EncodeTombstoneValue(50))
	m.Add(base.MakeInternalKey([]byte("c"), 3, base.KindDelete), base.EncodeTombstoneValue(75))
	if ts, _ := m.OldestTombstone(); ts != 50 {
		t.Fatalf("OldestTombstone = %d, want 50", ts)
	}
	// Range tombstones participate too.
	m.AddRangeTombstone(base.RangeTombstone{Lo: 0, Hi: 10, Seq: 4, CreatedAt: 7})
	if ts, _ := m.OldestTombstone(); ts != 7 {
		t.Fatalf("OldestTombstone with rangedel = %d, want 7", ts)
	}
}

func TestRangeTombstoneSidecar(t *testing.T) {
	m := New()
	if m.NumRangeDeletes() != 0 || !m.Empty() {
		t.Fatal("fresh memtable should be empty")
	}
	m.AddRangeTombstone(base.RangeTombstone{Lo: 1, Hi: 5, Seq: 1, CreatedAt: 1})
	m.AddRangeTombstone(base.RangeTombstone{Lo: 7, Hi: 9, Seq: 2, CreatedAt: 2})
	if m.NumRangeDeletes() != 2 {
		t.Fatalf("NumRangeDeletes = %d", m.NumRangeDeletes())
	}
	if m.Empty() {
		t.Fatal("memtable with range tombstones is not empty")
	}
	rts := m.RangeTombstones()
	if len(rts) != 2 || rts[0].Lo != 1 || rts[1].Lo != 7 {
		t.Fatalf("RangeTombstones = %v", rts)
	}
	// A slice obtained before an add is unchanged by it, spare capacity
	// included: the list is published copy-on-write.
	m.AddRangeTombstone(base.RangeTombstone{Lo: 11, Hi: 13, Seq: 3, CreatedAt: 3})
	if len(rts) != 2 || rts[0].Lo != 1 || rts[1].Lo != 7 {
		t.Fatalf("earlier slice changed by a later add: %v", rts)
	}
	if grown := rts[:cap(rts)]; len(grown) > 2 && grown[2].Lo == 11 {
		t.Fatal("a later add wrote into an earlier slice's backing array")
	}
	if now := m.RangeTombstones(); len(now) != 3 || now[2].Lo != 11 {
		t.Fatalf("RangeTombstones after third add = %v", now)
	}
}

// TestMemTableRangeTombstonesConcurrent: readers walk RangeTombstones() with
// no lock while a writer keeps adding; every slice a reader loads is a
// complete, ordered prefix of what was added.
func TestMemTableRangeTombstonesConcurrent(t *testing.T) {
	const adds = 2000
	m := New()
	var wg sync.WaitGroup
	done := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for last := 0; ; {
				select {
				case <-done:
					return
				default:
				}
				rts := m.RangeTombstones()
				if len(rts) < last {
					t.Errorf("list shrank: %d after %d", len(rts), last)
					return
				}
				last = len(rts)
				for i, rt := range rts {
					if rt.Seq != base.SeqNum(i+1) {
						t.Errorf("entry %d of %d has seq %d", i, len(rts), rt.Seq)
						return
					}
				}
			}
		}()
	}
	for i := 0; i < adds; i++ {
		m.AddRangeTombstone(base.RangeTombstone{Lo: 0, Hi: base.DeleteKey(i + 1), Seq: base.SeqNum(i + 1), CreatedAt: 1})
	}
	close(done)
	wg.Wait()
	if m.NumRangeDeletes() != adds {
		t.Fatalf("NumRangeDeletes = %d, want %d", m.NumRangeDeletes(), adds)
	}
}

func TestIterOrderAndSeek(t *testing.T) {
	m := New()
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("k%04d", i*37%100)
		m.Add(base.MakeInternalKey([]byte(k), base.SeqNum(i+1), base.KindSet), []byte("v"))
	}
	it := m.NewIter()
	var prev base.InternalKey
	n := 0
	for ok := it.First(); ok; ok = it.Next() {
		if n > 0 && prev.Compare(it.Key()) >= 0 {
			t.Fatalf("out of order: %s then %s", prev, it.Key())
		}
		prev = it.Key().Clone()
		n++
	}
	if n != 100 {
		t.Fatalf("iterated %d", n)
	}
	if err := it.Error(); err != nil {
		t.Fatal(err)
	}
	if !it.SeekGE(base.MakeSearchKey([]byte("k0050"), base.MaxSeqNum)) {
		t.Fatal("seek failed")
	}
	if string(it.Key().UserKey) != "k0050" {
		t.Fatalf("seek landed on %q", it.Key().UserKey)
	}
}

func TestMultipleVersionsIterateNewestFirst(t *testing.T) {
	m := New()
	m.Add(base.MakeInternalKey([]byte("k"), 1, base.KindSet), []byte("old"))
	m.Add(base.MakeInternalKey([]byte("k"), 3, base.KindSet), []byte("new"))
	m.Add(base.MakeInternalKey([]byte("k"), 2, base.KindDelete), base.EncodeTombstoneValue(0))
	it := m.NewIter()
	var seqs []base.SeqNum
	for ok := it.First(); ok; ok = it.Next() {
		seqs = append(seqs, it.Key().SeqNum())
	}
	if len(seqs) != 3 || seqs[0] != 3 || seqs[1] != 2 || seqs[2] != 1 {
		t.Fatalf("version order = %v, want [3 2 1]", seqs)
	}
}

func TestApproximateBytesGrows(t *testing.T) {
	m := New()
	before := m.ApproximateBytes()
	m.Add(base.MakeInternalKey(make([]byte, 1000), 1, base.KindSet), make([]byte, 1000))
	if m.ApproximateBytes() < before+2000 {
		t.Fatalf("ApproximateBytes did not grow: %d", m.ApproximateBytes())
	}
}

func TestValueCopied(t *testing.T) {
	m := New()
	v := []byte("original")
	m.Add(base.MakeInternalKey([]byte("k"), 1, base.KindSet), v)
	v[0] = 'X'
	_, got, _, _ := m.Get([]byte("k"), base.MaxSeqNum)
	if string(got) != "original" {
		t.Fatalf("memtable aliased caller's value: %q", got)
	}
}

// TestConcurrentReadWrite exercises the memtable's concurrency contract:
// one serialized writer, many lock-free readers. Run under -race.
func TestConcurrentReadWrite(t *testing.T) {
	m := New()
	const (
		keys    = 64
		seqs    = 32
		readers = 4
	)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				key := []byte(fmt.Sprintf("k%03d", i%keys))
				kind, v, seq, ok := m.Get(key, base.MaxSeqNum)
				if ok {
					// Every visible entry must round-trip its own value.
					want := fmt.Sprintf("%s#%d", key, seq)
					if kind != base.KindSet || string(v) != want {
						t.Errorf("reader %d: got %v %q at seq %d, want %q", r, kind, v, seq, want)
						return
					}
				}
				if rts := m.RangeTombstones(); len(rts) > seqs {
					t.Errorf("reader %d: %d range tombstones, want <= %d", r, len(rts), seqs)
					return
				}
			}
		}(r)
	}
	var seq base.SeqNum
	for s := 0; s < seqs; s++ {
		for k := 0; k < keys; k++ {
			seq++
			key := fmt.Sprintf("k%03d", k)
			m.Add(base.MakeInternalKey([]byte(key), seq, base.KindSet),
				[]byte(fmt.Sprintf("%s#%d", key, seq)))
		}
		m.AddRangeTombstone(base.RangeTombstone{Lo: base.DeleteKey(s), Hi: base.DeleteKey(s + 1), Seq: seq})
	}
	close(done)
	wg.Wait()
	if kind, _, seq, ok := m.Get([]byte("k000"), base.MaxSeqNum); !ok || kind != base.KindSet || seq == 0 {
		t.Fatalf("final get = %v seq=%d ok=%v", kind, seq, ok)
	}
}

// TestReturnedSlicesCapped: the values Get and the iterator return have cap
// == len, so a caller's append copies instead of writing over the next
// entry, and they keep their bytes while 10^4 more entries roll the arena
// to further chunks. (A value copied with append, as before the arena, got
// the capacity of its size class.)
func TestReturnedSlicesCapped(t *testing.T) {
	m := New()
	m.Add(base.MakeInternalKey([]byte("a"), 1, base.KindSet), []byte("hello"))
	m.Add(base.MakeInternalKey([]byte("b"), 2, base.KindSet), []byte("world"))
	_, v, _, _ := m.Get([]byte("a"), base.MaxSeqNum)
	it := m.NewIter()
	it.First()
	iv := it.Value()
	for _, b := range [][]byte{v, iv} {
		if string(b) != "hello" || cap(b) != len(b) {
			t.Fatalf("value %q has len %d, cap %d", b, len(b), cap(b))
		}
	}
	_ = append(v, "!!!"...)
	if _, w, _, _ := m.Get([]byte("b"), base.MaxSeqNum); string(w) != "world" {
		t.Fatalf("next value reads %q after an append to the previous one", w)
	}
	for i := 0; i < 10_000; i++ {
		m.Add(base.MakeInternalKey([]byte(fmt.Sprintf("c%05d", i)), base.SeqNum(i+3), base.KindSet), make([]byte, 32))
	}
	if string(v) != "hello" || string(iv) != "hello" {
		t.Fatalf("values read %q, %q after more adds", v, iv)
	}
}

// TestLargeKeysAndValues adds user keys around the size Add encodes on its
// stack, and a value larger than the skiplist's largest chunk, and reads
// them back. (Nothing at the parent of the arena depended on these sizes,
// so it passes there too.)
func TestLargeKeysAndValues(t *testing.T) {
	m := New()
	want := map[string][]byte{}
	for i, n := range []int{0, 119, 120, 121, 5000} {
		k := bytes.Repeat([]byte{byte('a' + i)}, n)
		want[string(k)] = []byte(fmt.Sprintf("v%d", n))
	}
	want["big"] = bytes.Repeat([]byte("0123456789abcdef"), 1<<17) // 2 MiB
	seq := base.SeqNum(0)
	for k, v := range want {
		seq++
		m.Add(base.MakeInternalKey([]byte(k), seq, base.KindSet), v)
	}
	for k, v := range want {
		if _, got, _, ok := m.Get([]byte(k), base.MaxSeqNum); !ok || !bytes.Equal(got, v) {
			t.Fatalf("Get(%d-byte key) = %d bytes, ok=%v; want %d bytes", len(k), len(got), ok, len(v))
		}
	}
}

// raceEnabled reports whether the test binary runs under the race detector,
// whose instrumentation allocates, so allocation counts vary.
func raceEnabled() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}

// TestAddAndSeekAllocs pins the allocations of the write and scan paths: an
// Add allocates nothing of its own (the arena's chunks are amortized over
// thousands of entries), an iterator is one allocation and a seek none.
func TestAddAndSeekAllocs(t *testing.T) {
	if raceEnabled() {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	m := New()
	key, val := make([]byte, 24), make([]byte, 128)
	seq := base.SeqNum(0)
	if a := testing.AllocsPerRun(1000, func() {
		seq++
		m.Add(base.MakeInternalKey(key, seq, base.KindSet), val)
	}); a != 0 {
		t.Errorf("Add: %v allocs, want 0", a)
	}
	target := base.MakeSearchKey(key, base.MaxSeqNum)
	if a := testing.AllocsPerRun(100, func() {
		it := m.NewIter()
		it.SeekGE(target)
		it.SeekGE(target)
	}); a > 2 {
		t.Errorf("NewIter and two seeks: %v allocs, want <= 2 (the iterator and its seek buffer)", a)
	}
}

// TestPoolRecyclesArenas fills a memtable, retires it and makes the next
// one from the same pool, in a loop: after the first round every arena is
// built on the chunks the round before gave back, so a round allocates far
// less than the smallest chunk (16 KiB), and a memtable still referenced
// keeps its entries.
func TestPoolRecyclesArenas(t *testing.T) {
	if raceEnabled() {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	p := NewPool(512 << 10)
	key, val := make([]byte, 24), make([]byte, 128)
	var seq base.SeqNum
	round := func() {
		m := p.New()
		for m.ApproximateBytes() < 512<<10 {
			seq++
			binary.BigEndian.PutUint64(key, uint64(seq))
			m.Add(base.MakeInternalKey(key, seq, base.KindSet), val)
		}
		m.Unref()
	}
	round()
	var before, after runtime.MemStats
	const rounds = 20
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		round()
	}
	runtime.ReadMemStats(&after)
	if b := (after.TotalAlloc - before.TotalAlloc) / rounds; b >= 16<<10 {
		t.Errorf("a round allocates %d bytes after the first: an arena chunk was not recycled", b)
	}

	// A reference held across the retirement keeps the arena: its entry
	// reads back intact while the next memtable fills.
	m := p.New()
	m.Add(base.MakeInternalKey([]byte("held"), 1, base.KindSet), []byte("value"))
	it := m.NewIter()
	m.Unref()
	round()
	if !it.First() || string(it.Key().UserKey) != "held" || string(it.Value()) != "value" {
		t.Fatalf("iterator over a retired memtable reads %q=%q", it.Key().UserKey, it.Value())
	}
	it.Close()
	it.Close() // the second Close drops nothing
}

// TestRefAfterLastUnrefPanics: a memtable whose last reference went is gone,
// and a reference taken after that is a bug the memtable reports.
func TestRefAfterLastUnrefPanics(t *testing.T) {
	m := New()
	m.Unref()
	defer func() {
		if recover() == nil {
			t.Fatal("Ref after the last Unref did not panic")
		}
	}()
	m.Ref()
}

// benchMemTable returns benchEntries keys of 24 bytes in a fixed random
// order, a 128-byte value, and a memtable holding them: a 4 MiB memtable's
// worth.
func benchMemTable(b *testing.B) ([]base.InternalKey, []byte, *MemTable) {
	const benchEntries = 20_000
	keys := make([]base.InternalKey, benchEntries)
	for i, j := range rand.New(rand.NewSource(1)).Perm(benchEntries) {
		keys[i] = base.MakeInternalKey([]byte(fmt.Sprintf("user%020d", j*7919)), base.SeqNum(i+1), base.KindSet)
	}
	val := bytes.Repeat([]byte{'v'}, 128)
	m := New()
	for _, k := range keys {
		m.Add(k, val)
	}
	b.ReportAllocs()
	b.ResetTimer()
	return keys, val, m
}

// BenchmarkAdd times an Add to a memtable of up to benchEntries entries; a
// full one is retired and replaced by the next from a pool, as the engine
// rotates them, so ns/op does not grow with b.N.
func BenchmarkAdd(b *testing.B) {
	keys, val, m := benchMemTable(b)
	p := NewPool(4 << 20)
	for i := 0; i < b.N; i++ {
		j := i % len(keys)
		if j == 0 {
			m.Unref()
			m = p.New()
		}
		m.Add(keys[j], val)
	}
}

// BenchmarkGet times a Get of a present key of a benchEntries memtable.
func BenchmarkGet(b *testing.B) {
	keys, _, m := benchMemTable(b)
	for i := 0; i < b.N; i++ {
		if _, _, _, ok := m.Get(keys[i%len(keys)].UserKey, base.MaxSeqNum); !ok {
			b.Fatal("key missing")
		}
	}
}
