package cache

import (
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"sort"
	"sync"
	"testing"
)

func TestGetPut(t *testing.T) {
	c := New(1 << 20)
	if _, ok := c.Get(1, 0); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(1, 0, []byte("block-a"))
	got, ok := c.Get(1, 0)
	if !ok || string(got.Data()) != "block-a" {
		t.Fatalf("Get = %q, %v", got.Data(), ok)
	}
	got.Release()
	if c.Hits() != 1 || c.Misses() != 1 {
		t.Fatalf("hits=%d misses=%d", c.Hits(), c.Misses())
	}
}

func TestDistinctKeys(t *testing.T) {
	c := New(1 << 20)
	c.Put(1, 0, []byte("a"))
	c.Put(1, 100, []byte("b"))
	c.Put(2, 0, []byte("c"))
	for _, tc := range []struct {
		id, off uint64
		want    string
	}{{1, 0, "a"}, {1, 100, "b"}, {2, 0, "c"}} {
		got, ok := c.Get(tc.id, tc.off)
		if !ok || string(got.Data()) != tc.want {
			t.Fatalf("Get(%d,%d) = %q, %v", tc.id, tc.off, got.Data(), ok)
		}
		got.Release()
	}
}

func TestLRUEviction(t *testing.T) {
	// One shard's worth of capacity split over 16 shards: use blocks that
	// hash to pressure and check total byte bound holds.
	c := New(16 * 1024) // 1 KiB per shard
	blk := make([]byte, 256)
	for i := uint64(0); i < 1000; i++ {
		c.Put(i, 0, blk)
	}
	if c.Bytes() > 16*1024 {
		t.Fatalf("cache over capacity: %d bytes", c.Bytes())
	}
	// Recently used blocks survive; ancient ones were evicted.
	if _, ok := c.Get(999, 0); !ok {
		t.Fatal("most recent insert evicted")
	}
	evicted := 0
	for i := uint64(0); i < 100; i++ {
		if _, ok := c.Get(i, 0); !ok {
			evicted++
		}
	}
	if evicted == 0 {
		t.Fatal("nothing evicted despite capacity pressure")
	}
}

func TestUpdateExistingKey(t *testing.T) {
	c := New(1 << 20)
	c.Put(1, 0, []byte("old"))
	c.Put(1, 0, []byte("newer-data"))
	got, _ := c.Get(1, 0)
	if string(got.Data()) != "newer-data" {
		t.Fatalf("got %q", got.Data())
	}
	got.Release()
	if c.Bytes() != int64(len("newer-data")) {
		t.Fatalf("Bytes = %d after update", c.Bytes())
	}
}

func TestOversizedBlockNotCached(t *testing.T) {
	c := New(16 * 10) // 10 bytes per shard
	c.Put(1, 0, make([]byte, 1000))
	if _, ok := c.Get(1, 0); ok {
		t.Fatal("oversized block cached")
	}
}

func TestEvictFile(t *testing.T) {
	c := New(1 << 20)
	for off := uint64(0); off < 20; off++ {
		c.Put(7, off*4096, []byte("data"))
		c.Put(8, off*4096, []byte("data"))
	}
	c.EvictFile(7)
	for off := uint64(0); off < 20; off++ {
		if _, ok := c.Get(7, off*4096); ok {
			t.Fatal("file 7 block survived EvictFile")
		}
		if _, ok := c.Get(8, off*4096); !ok {
			t.Fatal("file 8 block wrongly evicted")
		}
	}
}

func TestZeroCapacity(t *testing.T) {
	c := New(0)
	c.Put(1, 0, []byte("x"))
	if _, ok := c.Get(1, 0); ok {
		t.Fatal("zero-capacity cache stored data")
	}
}

func TestConcurrent(t *testing.T) {
	c := New(1 << 20)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				id := uint64(g)
				off := uint64(i % 50 * 4096)
				if b, ok := c.Get(id, off); ok {
					if string(b.Data()) != fmt.Sprintf("g%d-%d", g, i%50) {
						t.Errorf("cross-goroutine corruption")
						return
					}
					b.Release()
				} else {
					c.Put(id, off, []byte(fmt.Sprintf("g%d-%d", g, i%50)))
				}
			}
		}(g)
	}
	wg.Wait()
}

func BenchmarkCacheGetHit(b *testing.B) {
	c := New(1 << 20)
	c.Put(1, 0, make([]byte, 4096))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk, _ := c.Get(1, 0)
		blk.Release()
	}
}

// TestSmallCacheHoldsBlocks: a cache too small for 16 shards of a block each
// still caches blocks, in fewer shards, within its capacity.
func TestSmallCacheHoldsBlocks(t *testing.T) {
	c := New(48 << 10)
	c.Put(1, 0, make([]byte, 4096))
	if _, ok := c.Get(1, 0); !ok {
		t.Fatal("a 48 KiB cache refused a 4 KiB block")
	}
	for i := uint64(1); i < 100; i++ {
		c.Put(1, i*4096, make([]byte, 4096))
	}
	if c.Bytes() > 48<<10 {
		t.Fatalf("cache over capacity: %d bytes", c.Bytes())
	}
}

// TestShardCount: a cache gets 16 shards where each can hold 256 KiB, and
// halves the count until each can, down to one.
func TestShardCount(t *testing.T) {
	for _, tc := range []struct {
		capacity int64
		shards   int
	}{{0, 1}, {48 << 10, 1}, {512 << 10, 2}, {1 << 20, 4}, {4 << 20, 16}, {8 << 20, 16}, {64 << 20, 16}} {
		if got := len(New(tc.capacity).shards); got != tc.shards {
			t.Errorf("New(%d) has %d shards, want %d", tc.capacity, got, tc.shards)
		}
	}
}

// TestHotSetSurvivesColdPass: blocks read between passes of never-read
// blocks stay resident, however many such blocks go through. A quarter of
// the capacity is hot; each round reads all of it, then puts a capacity's
// worth of blocks from another file that nobody reads.
func TestHotSetSurvivesColdPass(t *testing.T) {
	const capacity, block = 1 << 20, 4096
	c := New(capacity)
	blk := make([]byte, block)
	const hot = capacity / 4 / block
	for i := uint64(0); i < hot; i++ {
		c.Put(1, i*block, blk)
	}
	cold := uint64(0)
	missed := 0
	for round := 0; round < 20; round++ {
		for i := uint64(0); i < hot; i++ {
			if _, ok := c.Get(1, i*block); !ok {
				missed++
				c.Put(1, i*block, blk)
			}
		}
		for n := 0; n < capacity/block; n++ {
			c.Put(2, cold*block, blk)
			cold++
		}
	}
	if missed != 0 {
		t.Fatalf("%d of %d hot reads missed", missed, 20*hot)
	}
	if c.Bytes() > capacity {
		t.Fatalf("cache over capacity: %d bytes", c.Bytes())
	}
}

// TestPutGetAllocs: in a full cache, a Put that evicts a block, a miss that
// takes a recycled buffer, inserts it (evicting a block) and releases its
// pin, a Get hit and its release, and the release of a pin on a block
// evicted meanwhile, which recycles its buffer, allocate nothing.
func TestPutGetAllocs(t *testing.T) {
	if raceEnabled() {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	c := New(1 << 20)
	blk := make([]byte, 4096)
	off := uint64(0)
	for c.Evictions() == 0 {
		c.Put(1, off, blk)
		off += 4096
	}
	if a := testing.AllocsPerRun(1000, func() {
		c.Put(1, off, blk)
		off += 4096
	}); a != 0 {
		t.Errorf("a Put that evicts allocates %.2f times", a)
	}
	miss := func() {
		b := c.Alloc(1, off, 4096)
		c.Insert(1, off, &b)
		b.Release()
		off += 4096
	}
	if a := testing.AllocsPerRun(1000, miss); a != 0 {
		t.Errorf("a miss into a full cache allocates %.2f times", a)
	}
	last := off - 4096
	if a := testing.AllocsPerRun(1000, func() {
		b, ok := c.Get(1, last)
		if !ok {
			t.Fatal("the newest block is not resident")
		}
		b.Release()
	}); a != 0 {
		t.Errorf("a Get hit allocates %.2f times", a)
	}
	if a := testing.AllocsPerRun(1000, func() {
		b, _ := c.Get(1, last)
		c.EvictFile(1)
		b.Release() // the last reference: the buffer is recycled
		miss()
		last = off - 4096
	}); a != 0 {
		t.Errorf("releasing an evicted block allocates %.2f times", a)
	}
}

// TestPutKeepsCallersSlice: Put copies, so a slice put under two keys whose
// blocks are then evicted reaches no Alloc, and is never written.
func TestPutKeepsCallersSlice(t *testing.T) {
	c := New(48 << 10) // one shard
	page := make([]byte, 4096)
	c.Put(1, 0, page)
	c.Put(1, 4096, page)
	c.EvictFile(1)
	a, b := c.Alloc(2, 0, 4096), c.Alloc(2, 4096, 4096)
	defer a.Release()
	defer b.Release()
	if &a.Data()[0] == &b.Data()[0] {
		t.Fatal("two Allocs got the same buffer")
	}
	for _, blk := range []Block{a, b} {
		if &blk.Data()[0] == &page[0] {
			t.Fatal("an Alloc got the caller's slice")
		}
		for i := range blk.Data() {
			blk.Data()[i] = 0xff
		}
	}
	for _, v := range page {
		if v != 0 {
			t.Fatal("the slice passed to Put was written")
		}
	}
}

// TestPinOutlivesEviction: a block pinned when EvictFile and eviction by
// capacity drop it keeps its bytes until the pin's Release, and only then does
// its buffer go to the next Alloc of its shard.
func TestPinOutlivesEviction(t *testing.T) {
	c := New(48 << 10) // one shard
	fill := func(b *Block, v byte) {
		for i := range b.Data() {
			b.Data()[i] = v
		}
	}
	b := c.Alloc(1, 0, 4096)
	fill(&b, 7)
	c.Insert(1, 0, &b)
	held, _ := c.Get(1, 0)
	b.Release()
	c.EvictFile(1)
	for off := uint64(0); off < 40; off++ { // churn the shard by capacity too
		nb := c.Alloc(2, off*4096, 4096)
		fill(&nb, 9)
		c.Insert(2, off*4096, &nb)
		nb.Release()
	}
	for _, v := range held.Data() {
		if v != 7 {
			t.Fatal("a pinned block's bytes changed after its eviction")
		}
	}
	if _, ok := c.Get(1, 0); ok {
		t.Fatal("EvictFile left a pinned block resident")
	}
	var taken []Block // every spare buffer, so the list has room below
	for len(c.shards[0].spare) > 0 {
		taken = append(taken, c.Alloc(3, 0, 1))
	}
	buf := held.Data()[:1]
	held.Release()
	if poison && buf[0] == 7 {
		t.Fatal("the race build did not poison a released buffer")
	}
	got := c.Alloc(3, 0, 4000)
	defer got.Release()
	for i := range taken {
		taken[i].Release()
	}
	if &got.Data()[0] != &buf[0] {
		t.Fatal("the next Alloc did not take the buffer the last release freed")
	}
}

// TestSpareBoundedByCapacity: released buffers wait for an Alloc only while
// they fit beside the resident blocks in the shard's capacity, but the free
// list always keeps one; the rest go to the garbage collector. Resident
// blocks push spare buffers out as they grow.
func TestSpareBoundedByCapacity(t *testing.T) {
	c := New(48 << 10) // one shard
	s := &c.shards[0]
	var pins []Block
	for i := uint64(0); i < 40; i++ {
		pins = append(pins, c.Alloc(1, i*4096, 4096))
	}
	for i := range pins {
		pins[i].Release()
	}
	if s.spareBytes > s.capacity || s.spareBytes < s.capacity-4096 {
		t.Fatalf("%d bytes spare in an empty %d-byte shard after 40 releases of 4 KiB", s.spareBytes, s.capacity)
	}
	// Fill the shard with fresh blocks: each one pushes a spare buffer out.
	for i := uint64(0); i < 12; i++ {
		c.Insert(2, i*4096, &Block{data: make([]byte, 4096), s: s})
		if s.bytes+s.spareBytes > s.capacity && len(s.spare) > 1 {
			t.Fatalf("%d bytes resident and %d spare in a %d-byte shard", s.bytes, s.spareBytes, s.capacity)
		}
	}
	pins = pins[:0]
	for i := uint64(0); i < 40; i++ {
		pins = append(pins, c.Alloc(1, i*4096, 4096))
	}
	for i := range pins {
		pins[i].Release()
	}
	if len(s.spare) != 1 {
		t.Fatalf("%d spare buffers in a full shard after 40 releases, want 1", len(s.spare))
	}
}

// raceEnabled reports whether the test binary runs under the race detector,
// which adds allocations of its own.
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

// mixTrace is a block access stream in read_settled's shape: point reads of
// 4 KiB blocks drawn zipfian (θ 0.99) over five times the capacity, ranks
// scattered over the files, and one op in twenty a scan of 4 consecutive
// blocks from a uniform start. An op is a block number, or the negated
// first block of a scan minus one.
func mixTrace(capacity int64, ops int) []int64 {
	const theta = 0.99
	n := 5 * capacity / 4096
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), theta)
		cdf[i] = sum
	}
	rng := rand.New(rand.NewSource(1))
	trace := make([]int64, ops)
	for i := range trace {
		if rng.Intn(20) == 0 {
			trace[i] = -1 - rng.Int63n(n-3)
			continue
		}
		rank := int64(sort.SearchFloat64s(cdf, rng.Float64()*sum))
		trace[i] = rank * 7919 % n // a permutation: the prime 7919 does not divide n
	}
	return trace
}

// BenchmarkCacheMix replays mixTrace through an 8 MiB cache, reading
// through it as sstable.Reader does: a hit is pinned and released, a miss
// takes a recycled buffer, inserts it and releases it. An op is a point read
// or a 4-block scan; hit_ratio counts blocks after a warm-up pass over the
// whole trace.
func BenchmarkCacheMix(b *testing.B) {
	const capacity = 8 << 20
	trace := mixTrace(capacity, 1<<19)
	c := New(capacity)
	read := func(block int64) {
		id, off := uint64(block/256+1), uint64(block%256*4096)
		blk, ok := c.Get(id, off)
		if !ok {
			blk = c.Alloc(id, off, 4096)
			c.Insert(id, off, &blk)
		}
		blk.Release()
	}
	op := func(i int) {
		if t := trace[i%len(trace)]; t >= 0 {
			read(t)
		} else {
			for j := -1 - t; j < -1-t+4; j++ {
				read(j)
			}
		}
	}
	for i := range trace {
		op(i)
	}
	hits, misses := c.Hits(), c.Misses()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op(i)
	}
	b.StopTimer()
	hits, misses = c.Hits()-hits, c.Misses()-misses
	b.ReportMetric(float64(hits)/float64(hits+misses), "hit_ratio")
}

// BenchmarkCachePutEvict inserts never-seen 4 KiB blocks into a full 8 MiB
// cache as a read miss does, so every one takes the buffer of the block the
// previous one evicted.
func BenchmarkCachePutEvict(b *testing.B) {
	const capacity = 8 << 20
	c := New(capacity)
	off := uint64(0)
	miss := func() {
		blk := c.Alloc(1, off, 4096)
		c.Insert(1, off, &blk)
		blk.Release()
		off += 4096
	}
	for c.Evictions() == 0 {
		miss()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		miss()
	}
}
