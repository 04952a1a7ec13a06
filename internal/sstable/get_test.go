package sstable

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime/debug"
	"sort"
	"sync"
	"testing"

	"repro/internal/base"
	"repro/internal/cache"
	"repro/internal/vfs"
)

// raceEnabled reports whether the test binary runs under the race detector,
// whose sync.Pool drops items at random, so allocation counts vary.
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

// refGet is the reference point lookup: a table iterator sought to the search
// key.
func refGet(r *Reader, userKey []byte, seq base.SeqNum) (base.Kind, []byte, base.SeqNum, bool, error) {
	it := r.NewIter()
	if it.SeekGE(base.MakeSearchKey(userKey, seq)) {
		k := it.Key()
		if base.Compare(k.UserKey, userKey) == 0 {
			return k.Kind(), it.Value(), k.SeqNum(), true, it.Error()
		}
	}
	return 0, nil, 0, false, it.Error()
}

// TestGetMatchesIter: for every key, its odd neighbour (never written) and
// three read sequence numbers, Get answers what a table iterator sought to the
// search key answers — in both layouts, with no block cache, a cache too small
// to keep a tile's pages together, and a cache holding every block.
func TestGetMatchesIter(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const keys = 1500
	var entries []entry
	seqs := rng.Perm(3 * keys)
	for k := 0; k < keys; k++ {
		user := []byte(fmt.Sprintf("k%06d", 2*k))
		versions := seqs[3*k : 3*k+1+rng.Intn(3)]
		sort.Sort(sort.Reverse(sort.IntSlice(versions))) // newest first
		for _, s := range versions {
			kind, v := base.KindSet, mkValue(uint64(rng.Intn(50)), rng.Intn(48))
			if rng.Intn(5) == 0 {
				kind, v = base.KindDelete, base.EncodeTombstoneValue(base.Timestamp(s))
			}
			entries = append(entries, entry{base.MakeInternalKey(user, base.SeqNum(s+1), kind), v})
		}
	}
	readSeqs := []base.SeqNum{base.MaxSeqNum, 3 * keys / 2, 3 * keys / 10}
	for _, h := range []int{1, 4} {
		r, _ := buildTable(t, vfs.NewMemFS(), "t.sst",
			WriterOptions{BlockSize: 512, PagesPerTile: h, BloomBitsPerKey: 10, DeleteKeyFunc: dkExtract}, entries, nil)
		for _, c := range []struct {
			name  string
			cache *cache.Cache
		}{{"no cache", nil}, {"11 KiB cache", cache.New(16 * 700)}, {"full cache", cache.New(64 << 20)}} {
			r.SetCache(c.cache, 1)
			for k := -1; k <= 2*keys; k++ {
				user := []byte(fmt.Sprintf("k%06d", k))
				for _, seq := range readSeqs {
					kind, v, s, ok, err := r.Get(user, seq)
					wkind, wv, ws, wok, werr := refGet(r, user, seq)
					if kind != wkind || !bytes.Equal(v, wv) || s != ws || ok != wok || err != werr {
						t.Fatalf("h=%d %s: Get(%s, %d) = %v %q %d %v %v, iterator says %v %q %d %v %v",
							h, c.name, user, seq, kind, v, s, ok, err, wkind, wv, ws, wok, werr)
					}
				}
			}
		}
		r.SetCache(nil, 0)
	}
}

// shortKeyTable writes one tile by hand — a page holding "a"#1, and a page
// whose only key is the single byte "c", too short to be an internal key —
// with "d"#1 as the tile's separator. With h = 1 the two keys share one page.
func shortKeyTable(t *testing.T, h int) *Reader {
	t.Helper()
	fs := vfs.NewMemFS()
	f, err := fs.Create("bad.sst")
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriter(f, WriterOptions{PagesPerTile: h})
	a := base.MakeInternalKey([]byte("a"), 1, base.KindSet).Encode(nil)
	pages := [][][]byte{{a}, {[]byte("c")}}
	if h == 1 {
		pages = [][][]byte{{a, []byte("c")}}
	}
	w.lastEnc = base.MakeInternalKey([]byte("d"), 1, base.KindSet).Encode(nil)
	for _, keys := range pages {
		for _, k := range keys {
			w.dataBuf.Add(k, []byte("v"))
		}
		if err := w.writePage(nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	rf, err := fs.Open("bad.sst")
	if err != nil {
		t.Fatal(err)
	}
	r, err := Open(rf)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// TestGetShortDataKeyIsCorrupt: a lookup that lands on a data key shorter than
// an internal key's trailer reports ErrCorrupt, as the iterator does.
func TestGetShortDataKeyIsCorrupt(t *testing.T) {
	for _, h := range []int{1, 4} {
		r := shortKeyTable(t, h)
		if _, _, _, _, err := refGet(r, []byte("b"), base.MaxSeqNum); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("h=%d: the iterator reads the short key with error %v; the fixture is wrong", h, err)
		}
		if _, _, _, _, err := r.Get([]byte("b"), base.MaxSeqNum); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("h=%d: Get landing on a 1-byte data key returned %v, want ErrCorrupt", h, err)
		}
	}
}

// TestGetConcurrentWithEviction: lookups, scans and compaction iterators on
// one Reader run while another goroutine keeps evicting the file's blocks from
// a cache a few blocks big, so buffers are released, recycled and refilled all
// the time. Each reader checks every value while its pin holds: a lookup's
// until it releases the result, an iterator's until it leaves the tile. Under
// the race detector a released buffer is poisoned at once, so a pin dropped
// early reads garbage. The values Get returned must not change afterwards:
// they are checked again once the readers are done and the file is evicted.
func TestGetConcurrentWithEviction(t *testing.T) {
	for _, h := range []int{1, 4} {
		entries := sortedEntries(3000, true)
		r, _ := buildTable(t, vfs.NewMemFS(), "t.sst", WriterOptions{BlockSize: 512, PagesPerTile: h, DeleteKeyFunc: dkExtract}, entries, nil)
		c := cache.New(16 * 700)
		r.SetCache(c, 7)

		stop := make(chan struct{})
		var evictor sync.WaitGroup
		evictor.Add(1)
		go func() {
			defer evictor.Done()
			for {
				select {
				case <-stop:
					return
				default:
					c.EvictFile(7)
				}
			}
		}()
		// scan walks the table with it and checks every entry; a value is
		// checked again at the next entry if that is in the same tile,
		// which pins both.
		scan := func(it *Iter) error {
			defer it.Close()
			n := 0
			var prev []byte
			prevTile := -1
			for ok := it.First(); ok; ok = it.Next() {
				if it.Key().Compare(entries[n].key) != 0 || !bytes.Equal(it.Value(), entries[n].value) {
					return fmt.Errorf("entry %d reads %s, want %s", n, it.Key(), entries[n].key)
				}
				if it.gi == prevTile && !bytes.Equal(prev, entries[n-1].value) {
					return fmt.Errorf("entry %d changed while its tile was pinned", n-1)
				}
				prev, prevTile = it.Value(), it.gi
				n++
			}
			if err := it.Error(); err != nil || n != len(entries) {
				return fmt.Errorf("read %d of %d entries, err %v", n, len(entries), err)
			}
			return nil
		}
		const getters = 3
		got := make([][][]byte, getters)
		var wg sync.WaitGroup
		for g := 0; g < getters+2; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				switch g {
				case getters:
					if err := scan(r.NewIter()); err != nil {
						t.Errorf("h=%d scan: %v", h, err)
					}
					return
				case getters + 1:
					if err := scan(r.NewCompactionIter(nil)); err != nil {
						t.Errorf("h=%d compaction iterator: %v", h, err)
					}
					return
				}
				for i := g; i < len(entries); i += getters {
					e := entries[i]
					res, err := r.Lookup(e.key.UserKey, base.MaxSeqNum)
					if err != nil || !res.Found || !bytes.Equal(res.Value, e.value) {
						t.Errorf("h=%d: Lookup(%s) = %q, %v, %v", h, e.key, res.Value, res.Found, err)
						return
					}
					res.Release()
					_, v, _, ok, err := r.Get(e.key.UserKey, base.MaxSeqNum)
					if err != nil || !ok || !bytes.Equal(v, e.value) {
						t.Errorf("h=%d: Get(%s) = %q, %v, %v", h, e.key, v, ok, err)
						return
					}
					got[g] = append(got[g], v)
				}
			}(g)
		}
		wg.Wait()
		close(stop)
		evictor.Wait()
		c.EvictFile(7)
		for g := range got {
			for n, v := range got[g] {
				if i := g + n*getters; !bytes.Equal(v, entries[i].value) {
					t.Fatalf("h=%d: the value Get returned for %s changed after it returned", h, entries[i].key)
				}
			}
		}
	}
}

// TestGetAllocCeiling: a lookup served from cached blocks allocates at most
// once on average, in both layouts: the iterator state is pooled and the value
// aliases the block.
func TestGetAllocCeiling(t *testing.T) {
	if raceEnabled() {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	for _, h := range []int{1, 4} {
		entries := sortedEntries(3000, true)
		r, _ := buildTable(t, vfs.NewMemFS(), "t.sst", WriterOptions{BlockSize: 512, PagesPerTile: h, BloomBitsPerKey: 10, DeleteKeyFunc: dkExtract}, entries, nil)
		r.SetCache(cache.New(64<<20), 1)
		for _, e := range entries { // fill the cache
			if _, _, _, _, err := r.Get(e.key.UserKey, base.MaxSeqNum); err != nil {
				t.Fatal(err)
			}
		}
		i := 0
		allocs := testing.AllocsPerRun(1000, func() {
			if _, _, _, ok, err := r.Get(entries[i%len(entries)].key.UserKey, base.MaxSeqNum); !ok || err != nil {
				t.Fatalf("h=%d: Get(%s) = %v, %v", h, entries[i%len(entries)].key, ok, err)
			}
			i += 7
		})
		if allocs > 1 {
			t.Fatalf("h=%d: a cached Get allocates %.2f times, ceiling 1", h, allocs)
		}
	}
}

// missTable builds a table of 20 000 entries in layout h with 4 KiB pages and
// attaches a block cache a tenth its size, so most lookups miss.
func missTable(tb testing.TB, h int) (*Reader, []entry, *cache.Cache) {
	entries := sortedEntries(20000, false)
	fs := vfs.NewMemFS()
	f, err := fs.Create("miss.sst")
	if err != nil {
		tb.Fatal(err)
	}
	w := NewWriter(f, WriterOptions{BlockSize: 4096, PagesPerTile: h, BloomBitsPerKey: 10, DeleteKeyFunc: dkExtract})
	for _, e := range entries {
		if err := w.Add(e.key, e.value); err != nil {
			tb.Fatal(err)
		}
	}
	meta, err := w.Finish()
	if err != nil {
		tb.Fatal(err)
	}
	rf, err := fs.Open("miss.sst")
	if err != nil {
		tb.Fatal(err)
	}
	r, err := Open(rf)
	if err != nil {
		tb.Fatal(err)
	}
	c := cache.New(int64(meta.Size) / 10)
	r.SetCache(c, 1)
	return r, entries, c
}

// TestLookupMissAllocs: once warm, a Lookup that misses the block cache
// allocates nothing: its block comes from the free list the buffers of
// evicted blocks go to, and its result pins the block instead of copying the
// value out.
func TestLookupMissAllocs(t *testing.T) {
	if raceEnabled() {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	for _, h := range []int{1, 4} {
		r, entries, c := missTable(t, h)
		i := 0
		lookup := func() {
			e := entries[i*7919%len(entries)]
			i++
			res, err := r.Lookup(e.key.UserKey, base.MaxSeqNum)
			if err != nil || !res.Found || !bytes.Equal(res.Value, e.value) {
				t.Fatalf("h=%d: Lookup(%s) = %q, %v, %v", h, e.key, res.Value, res.Found, err)
			}
			res.Release()
		}
		for range entries { // warm up: fill the cache and its free list
			lookup()
		}
		misses := c.Misses()
		if a := testing.AllocsPerRun(1000, lookup); a != 0 {
			t.Errorf("h=%d: a Lookup that misses allocates %.2f times", h, a)
		}
		if got := c.Misses() - misses; got < 500 {
			t.Fatalf("h=%d: only %d of 1001 lookups missed the cache", h, got)
		}
	}
}

// BenchmarkLookupMiss prices a point lookup on a table ten times its block
// cache, where most lookups read their page from the file (reported as
// misses/op).
func BenchmarkLookupMiss(b *testing.B) {
	for _, h := range []int{1, 4} {
		b.Run(fmt.Sprintf("h=%d", h), func(b *testing.B) {
			r, entries, c := missTable(b, h)
			for i := range entries {
				res, _ := r.Lookup(entries[i*7919%len(entries)].key.UserKey, base.MaxSeqNum)
				res.Release()
			}
			misses := c.Misses()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := r.Lookup(entries[i*7919%len(entries)].key.UserKey, base.MaxSeqNum)
				if err != nil || !res.Found {
					b.Fatal(res.Found, err)
				}
				res.Release()
			}
			b.ReportMetric(float64(c.Misses()-misses)/float64(b.N), "misses/op")
		})
	}
}
