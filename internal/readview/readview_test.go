package readview

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/base"
	"repro/internal/iterator"
	"repro/internal/metrics"
)

// sliceIter is a reference iterator.Internal over a sorted key slice.
type sliceIter struct {
	keys []base.InternalKey
	vals [][]byte
	pos  int
	err  error
	// failSeekAfter injects an error on the nth positioning call when > 0.
	seeks         int
	failSeekAfter int
}

func (s *sliceIter) First() bool {
	return s.SeekGE(base.MakeSearchKey(nil, base.MaxSeqNum))
}

func (s *sliceIter) SeekGE(target base.InternalKey) bool {
	s.seeks++
	if s.failSeekAfter > 0 && s.seeks >= s.failSeekAfter {
		s.err = errors.New("injected seek failure")
		s.pos = len(s.keys)
		return false
	}
	s.pos = sort.Search(len(s.keys), func(i int) bool { return s.keys[i].Compare(target) >= 0 })
	return s.Valid()
}

func (s *sliceIter) Next() bool {
	if s.pos < len(s.keys) {
		s.pos++
	}
	return s.Valid()
}

func (s *sliceIter) Valid() bool           { return s.err == nil && s.pos >= 0 && s.pos < len(s.keys) }
func (s *sliceIter) Key() base.InternalKey { return s.keys[s.pos] }
func (s *sliceIter) Value() []byte         { return s.vals[s.pos] }
func (s *sliceIter) Error() error          { return s.err }
func (s *sliceIter) Close()                {}

// buildRuns materializes nRuns runs over a shared keyspace with unique
// seqnums, returning fresh cursors plus the globally sorted reference.
func buildRuns(rng *rand.Rand, nRuns, keySpace, perRun int) (func() []iterator.Internal, []base.InternalKey) {
	type entry struct {
		key base.InternalKey
		val []byte
	}
	var all []entry
	runEntries := make([][]entry, nRuns)
	seq := base.SeqNum(1)
	for r := 0; r < nRuns; r++ {
		seen := map[string]bool{}
		for i := 0; i < perRun; i++ {
			k := fmt.Sprintf("key%05d", rng.Intn(keySpace))
			if seen[k] {
				continue
			}
			seen[k] = true
			kind := base.KindSet
			if rng.Intn(8) == 0 {
				kind = base.KindDelete
			}
			e := entry{
				key: base.MakeInternalKey([]byte(k), seq, kind),
				val: []byte(fmt.Sprintf("r%d-%s", r, k)),
			}
			seq++
			runEntries[r] = append(runEntries[r], e)
			all = append(all, e)
		}
		sort.Slice(runEntries[r], func(i, j int) bool {
			return runEntries[r][i].key.Compare(runEntries[r][j].key) < 0
		})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].key.Compare(all[j].key) < 0 })
	ref := make([]base.InternalKey, len(all))
	for i, e := range all {
		ref[i] = e.key
	}
	cursors := func() []iterator.Internal {
		out := make([]iterator.Internal, nRuns)
		for r := 0; r < nRuns; r++ {
			it := &sliceIter{pos: -1}
			for _, e := range runEntries[r] {
				it.keys = append(it.keys, e.key)
				it.vals = append(it.vals, e.val)
			}
			out[r] = it
		}
		return out
	}
	return cursors, ref
}

func TestViewMatchesMergeOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		nRuns := 1 + rng.Intn(8)
		cursors, ref := buildRuns(rng, nRuns, 300, 60)
		interval := 1 + rng.Intn(40)
		v, err := Build(cursors(), interval)
		if err != nil {
			t.Fatal(err)
		}
		if v.NumEntries() != len(ref) {
			t.Fatalf("trial %d: view has %d entries, want %d", trial, v.NumEntries(), len(ref))
		}
		it := NewIter(v, cursors())
		i := 0
		for ok := it.First(); ok; ok = it.Next() {
			if it.Key().Compare(ref[i]) != 0 {
				t.Fatalf("trial %d entry %d: %s != %s", trial, i, it.Key(), ref[i])
			}
			i++
		}
		if err := it.Error(); err != nil {
			t.Fatal(err)
		}
		if i != len(ref) {
			t.Fatalf("trial %d: iterated %d of %d", trial, i, len(ref))
		}
	}
}

func TestViewSeekGE(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 10; trial++ {
		cursors, ref := buildRuns(rng, 2+rng.Intn(6), 400, 80)
		v, err := Build(cursors(), 1+rng.Intn(16))
		if err != nil {
			t.Fatal(err)
		}
		it := NewIter(v, cursors())
		for probe := 0; probe < 50; probe++ {
			target := base.MakeSearchKey([]byte(fmt.Sprintf("key%05d", rng.Intn(420))), base.MaxSeqNum)
			want := sort.Search(len(ref), func(i int) bool { return ref[i].Compare(target) >= 0 })
			ok := it.SeekGE(target)
			if want == len(ref) {
				if ok {
					t.Fatalf("seek past end should be invalid, landed on %s", it.Key())
				}
				continue
			}
			if !ok || it.Key().Compare(ref[want]) != 0 {
				t.Fatalf("trial %d: seek %s landed wrong (valid=%v)", trial, target, ok)
			}
			// Walk a little to confirm the invariant holds after a seek.
			for step := 0; step < 5 && want+step+1 < len(ref); step++ {
				if !it.Next() || it.Key().Compare(ref[want+step+1]) != 0 {
					t.Fatalf("trial %d: walk after seek diverged at step %d", trial, step)
				}
			}
		}
		if err := it.Error(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestViewEmptyAndSingleRun(t *testing.T) {
	v, err := Build(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	it := NewIter(v, nil)
	if it.First() || it.SeekGE(base.MakeSearchKey([]byte("a"), base.MaxSeqNum)) {
		t.Fatal("empty view should be invalid")
	}

	one := &sliceIter{pos: -1,
		keys: []base.InternalKey{base.MakeInternalKey([]byte("k"), 3, base.KindSet)},
		vals: [][]byte{[]byte("v")}}
	v, err = Build([]iterator.Internal{one}, 4)
	if err != nil {
		t.Fatal(err)
	}
	one.pos = -1
	it = NewIter(v, []iterator.Internal{one})
	if !it.First() || string(it.Key().UserKey) != "k" || string(it.Value()) != "v" {
		t.Fatal("single-entry view broken")
	}
	if it.Next() {
		t.Fatal("should exhaust")
	}
}

func TestViewDuplicateInternalKeysTieBreak(t *testing.T) {
	// Two runs carrying the same internal key (not expected from the
	// engine, but the tie-break contract — lower run wins — must hold and
	// iteration must not desync into an error or skip).
	k := base.MakeInternalKey([]byte("dup"), 5, base.KindSet)
	mk := func(val string) *sliceIter {
		return &sliceIter{pos: -1, keys: []base.InternalKey{k}, vals: [][]byte{[]byte(val)}}
	}
	v, err := Build([]iterator.Internal{mk("a"), mk("b")}, 2)
	if err != nil {
		t.Fatal(err)
	}
	it := NewIter(v, []iterator.Internal{mk("a"), mk("b")})
	var got []string
	for ok := it.First(); ok; ok = it.Next() {
		got = append(got, string(it.Value()))
	}
	if it.Error() != nil {
		t.Fatal(it.Error())
	}
	if fmt.Sprint(got) != fmt.Sprint([]string{"a", "b"}) {
		t.Fatalf("duplicate-key order = %v", got)
	}
}

func TestViewSeekErrorPropagates(t *testing.T) {
	cursors, _ := buildRuns(rand.New(rand.NewSource(3)), 3, 100, 40)
	v, err := Build(cursors(), 8)
	if err != nil {
		t.Fatal(err)
	}
	runs := cursors()
	runs[1].(*sliceIter).failSeekAfter = 2
	it := NewIter(v, runs)
	ok := it.SeekGE(base.MakeSearchKey([]byte("key00050"), base.MaxSeqNum))
	// First seek on run 1 happens during SeekGE cursor restore; by the
	// second positioning call the injected failure must surface.
	if !ok {
		if it.Error() == nil {
			t.Fatal("seek failure swallowed")
		}
		return
	}
	it.SeekGE(base.MakeSearchKey([]byte("key00060"), base.MaxSeqNum))
	if it.Error() == nil {
		t.Fatal("seek failure swallowed on reseek")
	}
}

// TestCacheAdmission: a view is built only once the steps credited to its
// key reach the build's cost; until then Get defers, and credit dies with
// Invalidate.
func TestCacheAdmission(t *testing.T) {
	var builds, hits, deferred metrics.Counter
	c := NewCache(2, CacheStats{Builds: &builds, Hits: &hits, Deferred: &deferred})
	key := &struct{ int }{}
	build := func() (*View, error) { return Build(nil, 0) }
	counts := func() [3]int64 { return [3]int64{deferred.Get(), builds.Get(), hits.Get()} }

	c.Credit(key, 1000) // untracked key: dropped, not banked
	for i := 0; i < 3; i++ {
		if v, err := c.Get(key, 100, build); v != nil || err != nil {
			t.Fatalf("unearned Get %d = (%v, %v), want (nil, nil)", i, v, err)
		}
		c.Credit(key, 33)
	}
	if got := counts(); got != [3]int64{3, 0, 0} {
		t.Fatalf("deferred/builds/hits = %v after 99 of 100 steps", got)
	}
	c.Credit(key, 1)
	for i := 0; i < 3; i++ {
		if v, err := c.Get(key, 100, build); v == nil || err != nil {
			t.Fatalf("earned Get %d = (%v, %v)", i, v, err)
		}
	}
	if got := counts(); got != [3]int64{3, 1, 2} {
		t.Fatalf("deferred/builds/hits = %v, want one build then hits", got)
	}

	c.Invalidate()
	if v, _ := c.Get(key, 100, build); v != nil {
		t.Fatal("credit survived Invalidate")
	}
}

func TestCacheSingleFlightConcurrent(t *testing.T) {
	var builds, hits, invals metrics.Counter
	c := NewCache(2, CacheStats{Builds: &builds, Hits: &hits, Invalidations: &invals})
	key := &struct{ int }{}

	built := 0
	var mu sync.Mutex
	build := func() (*View, error) {
		mu.Lock()
		built++
		mu.Unlock()
		return Build(nil, 0)
	}

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Get(key, 0, build); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if built != 1 {
		t.Fatalf("build ran %d times, want 1", built)
	}
	if builds.Get() != 1 {
		t.Fatalf("builds counter = %d", builds.Get())
	}
	if hits.Get() != 7 {
		t.Fatalf("hits counter = %d, want 7", hits.Get())
	}

	c.Invalidate()
	if invals.Get() != 1 {
		t.Fatalf("invalidations counter = %d", invals.Get())
	}
	if c.Len() != 0 {
		t.Fatalf("cache still holds %d entries", c.Len())
	}
	// Rebuild after invalidation.
	if _, err := c.Get(key, 0, build); err != nil {
		t.Fatal(err)
	}
	if built != 2 {
		t.Fatalf("build after invalidation ran %d times total, want 2", built)
	}
}

func TestCacheEvictsOldestAndRetriesFailedBuilds(t *testing.T) {
	c := NewCache(2, CacheStats{})
	ok := func() (*View, error) { return Build(nil, 0) }
	k1, k2, k3 := &struct{ int }{}, &struct{ int }{}, &struct{ int }{}
	if _, err := c.Get(k1, 0, ok); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(k2, 0, ok); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(k3, 0, ok); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 {
		t.Fatalf("cache len = %d, want 2 (capacity)", c.Len())
	}

	fail := errors.New("build failed")
	kf := &struct{ int }{}
	if v, err := c.Get(kf, 10, ok); v != nil || err != nil {
		t.Fatalf("unearned Get = (%v, %v)", v, err)
	}
	c.Credit(kf, 10)
	if _, err := c.Get(kf, 10, func() (*View, error) { return nil, fail }); !errors.Is(err, fail) {
		t.Fatalf("err = %v", err)
	}
	// The failure must not be pinned, nor cost the entry its credit: the
	// very next Get builds afresh.
	if v, err := c.Get(kf, 10, ok); err != nil || v == nil {
		t.Fatalf("retry after failed build: %v %v", v, err)
	}
}

// TestViewIterSharedConcurrent exercises one View with many concurrent
// iterators, each owning its own cursors (the engine's usage pattern).
func TestViewIterSharedConcurrent(t *testing.T) {
	cursors, ref := buildRuns(rand.New(rand.NewSource(99)), 5, 500, 120)
	v, err := Build(cursors(), DefaultAnchorInterval)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			it := NewIter(v, cursors())
			i := 0
			for ok := it.First(); ok; ok = it.Next() {
				if it.Key().Compare(ref[i]) != 0 {
					t.Errorf("goroutine %d diverged at %d", g, i)
					return
				}
				i++
			}
			if i != len(ref) {
				t.Errorf("goroutine %d: %d of %d", g, i, len(ref))
			}
		}(g)
	}
	wg.Wait()
}
