package iterator

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/base"
)

// sliceIter is a reference Internal implementation over a sorted slice.
type sliceIter struct {
	keys   []base.InternalKey
	vals   [][]byte
	pos    int
	closed int // Close calls
}

func newSliceIter(kvs map[string]string, seqStart int) *sliceIter {
	s := &sliceIter{pos: -1}
	keys := make([]string, 0, len(kvs))
	for k := range kvs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for i, k := range keys {
		s.keys = append(s.keys, base.MakeInternalKey([]byte(k), base.SeqNum(seqStart+i), base.KindSet))
		s.vals = append(s.vals, []byte(kvs[k]))
	}
	return s
}

func (s *sliceIter) First() bool {
	s.pos = 0
	return s.Valid()
}

func (s *sliceIter) SeekGE(target base.InternalKey) bool {
	s.pos = sort.Search(len(s.keys), func(i int) bool { return s.keys[i].Compare(target) >= 0 })
	return s.Valid()
}

func (s *sliceIter) Next() bool {
	if s.pos < len(s.keys) {
		s.pos++
	}
	return s.Valid()
}

func (s *sliceIter) Valid() bool { return s.pos >= 0 && s.pos < len(s.keys) }

func (s *sliceIter) Key() base.InternalKey { return s.keys[s.pos] }

func (s *sliceIter) Value() []byte { return s.vals[s.pos] }

func (s *sliceIter) Error() error { return nil }

func (s *sliceIter) Close() { s.closed++ }

// errIter fails on the nth positioning call.
type errIter struct {
	inner *sliceIter
	calls int
	n     int
	err   error
}

func (e *errIter) bump() bool {
	e.calls++
	return e.calls >= e.n
}

func (e *errIter) First() bool {
	if e.bump() {
		e.err = fmt.Errorf("injected")
		return false
	}
	return e.inner.First()
}

func (e *errIter) SeekGE(t base.InternalKey) bool {
	if e.bump() {
		e.err = fmt.Errorf("injected")
		return false
	}
	return e.inner.SeekGE(t)
}

func (e *errIter) Next() bool {
	if e.bump() {
		e.err = fmt.Errorf("injected")
		return false
	}
	return e.inner.Next()
}

func (e *errIter) Valid() bool           { return e.err == nil && e.inner.Valid() }
func (e *errIter) Key() base.InternalKey { return e.inner.Key() }
func (e *errIter) Value() []byte         { return e.inner.Value() }
func (e *errIter) Error() error          { return e.err }
func (e *errIter) Close()                { e.inner.Close() }

func TestMergeInterleavesSources(t *testing.T) {
	a := newSliceIter(map[string]string{"a": "1", "d": "2", "g": "3"}, 100)
	b := newSliceIter(map[string]string{"b": "4", "e": "5"}, 200)
	c := newSliceIter(map[string]string{"c": "6", "f": "7", "h": "8"}, 300)
	m := NewMerge(a, b, c)
	var got []string
	for ok := m.First(); ok; ok = m.Next() {
		got = append(got, string(m.Key().UserKey))
	}
	want := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("merge order = %v", got)
	}
	if m.Error() != nil {
		t.Fatal(m.Error())
	}
}

func TestMergeVersionOrderWithinKey(t *testing.T) {
	// Same user key in two sources with different seqnums: newer first.
	newer := &sliceIter{
		keys: []base.InternalKey{base.MakeInternalKey([]byte("k"), 9, base.KindDelete)},
		vals: [][]byte{nil},
		pos:  -1,
	}
	older := &sliceIter{
		keys: []base.InternalKey{base.MakeInternalKey([]byte("k"), 4, base.KindSet)},
		vals: [][]byte{[]byte("v")},
		pos:  -1,
	}
	m := NewMerge(newer, older)
	if !m.First() {
		t.Fatal("empty merge")
	}
	if m.Key().SeqNum() != 9 {
		t.Fatalf("first version seq = %d, want 9", m.Key().SeqNum())
	}
	if !m.Next() || m.Key().SeqNum() != 4 {
		t.Fatal("second version should be the older one")
	}
}

func TestMergeSeekGE(t *testing.T) {
	a := newSliceIter(map[string]string{"a": "", "c": "", "e": ""}, 10)
	b := newSliceIter(map[string]string{"b": "", "d": "", "f": ""}, 20)
	m := NewMerge(a, b)
	if !m.SeekGE(base.MakeSearchKey([]byte("c"), base.MaxSeqNum)) {
		t.Fatal("seek failed")
	}
	var got []string
	got = append(got, string(m.Key().UserKey))
	for m.Next() {
		got = append(got, string(m.Key().UserKey))
	}
	if fmt.Sprint(got) != fmt.Sprint([]string{"c", "d", "e", "f"}) {
		t.Fatalf("after seek: %v", got)
	}
}

func TestMergeEmptyAndSingleSources(t *testing.T) {
	empty := newSliceIter(nil, 0)
	m := NewMerge(empty)
	if m.First() {
		t.Fatal("empty merge should be invalid")
	}
	one := newSliceIter(map[string]string{"x": "1"}, 5)
	m = NewMerge(empty, one)
	if !m.First() || string(m.Key().UserKey) != "x" {
		t.Fatal("single entry lost")
	}
	if m.Next() {
		t.Fatal("should exhaust")
	}
}

func TestMergeErrorPropagation(t *testing.T) {
	bad := &errIter{inner: newSliceIter(map[string]string{"a": "", "b": ""}, 0), n: 2}
	good := newSliceIter(map[string]string{"c": ""}, 10)
	m := NewMerge(bad, good)
	for ok := m.First(); ok; ok = m.Next() {
	}
	if m.Error() == nil {
		t.Fatal("error not propagated")
	}
}

// TestMergeRandomizedAgainstReference merges K random sources and compares
// with a flat sort.
func TestMergeRandomizedAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		nSources := 1 + rng.Intn(6)
		var sources []Internal
		var all []base.InternalKey
		seq := 1
		for s := 0; s < nSources; s++ {
			kvs := map[string]string{}
			for i := 0; i < rng.Intn(200); i++ {
				kvs[fmt.Sprintf("k%04d", rng.Intn(500))] = "v"
			}
			it := newSliceIter(kvs, seq)
			seq += len(kvs) + 1
			sources = append(sources, it)
			all = append(all, it.keys...)
		}
		sort.Slice(all, func(i, j int) bool { return all[i].Compare(all[j]) < 0 })
		m := NewMerge(sources...)
		i := 0
		for ok := m.First(); ok; ok = m.Next() {
			if m.Key().Compare(all[i]) != 0 {
				t.Fatalf("trial %d at %d: %s != %s", trial, i, m.Key(), all[i])
			}
			i++
		}
		if i != len(all) {
			t.Fatalf("trial %d: merged %d of %d", trial, i, len(all))
		}

		// Random seeks against the reference.
		for probe := 0; probe < 20; probe++ {
			target := base.MakeSearchKey([]byte(fmt.Sprintf("k%04d", rng.Intn(500))), base.MaxSeqNum)
			want := sort.Search(len(all), func(i int) bool { return all[i].Compare(target) >= 0 })
			ok := m.SeekGE(target)
			if want == len(all) {
				if ok {
					t.Fatalf("seek should fail")
				}
			} else if !ok || m.Key().Compare(all[want]) != 0 {
				t.Fatalf("trial %d: seek %s got %v want %s", trial, target, m.Valid(), all[want])
			}
		}
	}
}

func TestConcatChainsChildren(t *testing.T) {
	children := []*sliceIter{
		newSliceIter(map[string]string{"a": "", "b": ""}, 1),
		newSliceIter(map[string]string{"c": "", "d": ""}, 10),
		newSliceIter(map[string]string{"e": ""}, 20),
	}
	opened := 0
	c := NewConcat(len(children),
		func(i int) (base.InternalKey, base.InternalKey) {
			return children[i].keys[0], children[i].keys[len(children[i].keys)-1]
		},
		func(i int) (Internal, error) {
			opened++
			return children[i], nil
		})
	var got []string
	for ok := c.First(); ok; ok = c.Next() {
		got = append(got, string(c.Key().UserKey))
		// A child is closed as the concat moves past it, and not before.
		for i, ch := range children {
			if want := ch.keys[len(ch.keys)-1].Compare(c.Key()) < 0; (ch.closed == 1) != want || ch.closed > 1 {
				t.Fatalf("at %s, child %d closed %d times", c.Key(), i, ch.closed)
			}
		}
	}
	if fmt.Sprint(got) != fmt.Sprint([]string{"a", "b", "c", "d", "e"}) {
		t.Fatalf("concat = %v", got)
	}
	if c.Error() != nil {
		t.Fatal(c.Error())
	}
	c.Close()
	for i, ch := range children {
		if ch.closed != 1 {
			t.Fatalf("child %d closed %d times after Close", i, ch.closed)
		}
	}
}

// TestMergeCloseClosesSources: Close reaches every source, exhausted or not,
// and leaves the merge unpositioned.
func TestMergeCloseClosesSources(t *testing.T) {
	a := newSliceIter(map[string]string{"a": "1"}, 100)
	b := newSliceIter(map[string]string{"b": "2", "c": "3"}, 200)
	m := NewMerge(a, b)
	if !m.First() || !m.Next() || !m.Next() {
		t.Fatal("merge did not reach its third entry")
	}
	m.Close()
	if m.Valid() || a.closed != 1 || b.closed != 1 {
		t.Fatalf("after Close: valid %v, sources closed %d and %d times", m.Valid(), a.closed, b.closed)
	}
}

func TestConcatSeekSkipsChildren(t *testing.T) {
	children := []*sliceIter{
		newSliceIter(map[string]string{"a": "", "b": ""}, 1),
		newSliceIter(map[string]string{"m": "", "n": ""}, 10),
		newSliceIter(map[string]string{"x": "", "y": ""}, 20),
	}
	opened := map[int]bool{}
	c := NewConcat(len(children),
		func(i int) (base.InternalKey, base.InternalKey) {
			return children[i].keys[0], children[i].keys[len(children[i].keys)-1]
		},
		func(i int) (Internal, error) {
			opened[i] = true
			return children[i], nil
		})
	if !c.SeekGE(base.MakeSearchKey([]byte("n"), base.MaxSeqNum)) {
		t.Fatal("seek failed")
	}
	if string(c.Key().UserKey) != "n" {
		t.Fatalf("seek landed on %q", c.Key().UserKey)
	}
	if opened[0] {
		t.Fatal("concat opened a child before the seek target")
	}
	// Roll into the next child.
	if !c.Next() || string(c.Key().UserKey) != "x" {
		t.Fatalf("rollover landed on %q", c.Key().UserKey)
	}
}

func TestConcatSeekPastEnd(t *testing.T) {
	children := []*sliceIter{newSliceIter(map[string]string{"a": ""}, 1)}
	c := NewConcat(1,
		func(i int) (base.InternalKey, base.InternalKey) {
			return children[i].keys[0], children[i].keys[len(children[i].keys)-1]
		},
		func(i int) (Internal, error) { return children[i], nil })
	if c.SeekGE(base.MakeSearchKey([]byte("z"), base.MaxSeqNum)) {
		t.Fatal("seek past end should fail")
	}
	if c.Valid() {
		t.Fatal("should be invalid")
	}
}

func TestConcatOpenError(t *testing.T) {
	c := NewConcat(1,
		func(i int) (base.InternalKey, base.InternalKey) {
			return base.MakeInternalKey([]byte("a"), 1, base.KindSet), base.MakeInternalKey([]byte("b"), 1, base.KindSet)
		},
		func(i int) (Internal, error) { return nil, fmt.Errorf("boom") })
	if c.First() {
		t.Fatal("First should fail")
	}
	if c.Error() == nil {
		t.Fatal("open error lost")
	}
}

func TestConcatSkipsEmptyChildren(t *testing.T) {
	children := []*sliceIter{
		newSliceIter(nil, 1),
		newSliceIter(map[string]string{"k": ""}, 5),
		newSliceIter(nil, 9),
	}
	c := NewConcat(len(children),
		func(i int) (base.InternalKey, base.InternalKey) {
			if len(children[i].keys) == 0 {
				k := base.MakeInternalKey([]byte(""), 0, base.KindSet)
				return k, k
			}
			return children[i].keys[0], children[i].keys[len(children[i].keys)-1]
		},
		func(i int) (Internal, error) { return children[i], nil })
	n := 0
	for ok := c.First(); ok; ok = c.Next() {
		n++
	}
	if n != 1 {
		t.Fatalf("iterated %d entries through empty children", n)
	}
}

func TestMergeSourceAttribution(t *testing.T) {
	a := newSliceIter(map[string]string{"a": "", "c": ""}, 10)
	b := newSliceIter(map[string]string{"b": "", "d": ""}, 20)
	m := NewMerge(a, b)
	want := []int{0, 1, 0, 1} // a, b, c, d
	i := 0
	for ok := m.First(); ok; ok = m.Next() {
		if m.Source() != want[i] {
			t.Fatalf("entry %d (%q): source = %d, want %d", i, m.Key().UserKey, m.Source(), want[i])
		}
		i++
	}
	// Ties resolve to the lower (newer) source index.
	newer := &sliceIter{
		keys: []base.InternalKey{base.MakeInternalKey([]byte("k"), 9, base.KindSet)},
		vals: [][]byte{nil}, pos: -1,
	}
	older := &sliceIter{
		keys: []base.InternalKey{base.MakeInternalKey([]byte("k"), 4, base.KindSet)},
		vals: [][]byte{nil}, pos: -1,
	}
	m = NewMerge(newer, older)
	if !m.First() || m.Source() != 0 {
		t.Fatalf("newest version should come from source 0, got %d", m.Source())
	}
	if !m.Next() || m.Source() != 1 {
		t.Fatalf("older version should come from source 1, got %d", m.Source())
	}
}

func TestConcatReseekReusesOpenChild(t *testing.T) {
	children := []*sliceIter{
		newSliceIter(map[string]string{"a": "", "b": ""}, 1),
		newSliceIter(map[string]string{"m": "", "n": "", "o": ""}, 10),
		newSliceIter(map[string]string{"x": "", "y": ""}, 20),
	}
	opens := 0
	c := NewConcat(len(children),
		func(i int) (base.InternalKey, base.InternalKey) {
			return children[i].keys[0], children[i].keys[len(children[i].keys)-1]
		},
		func(i int) (Internal, error) {
			opens++
			return children[i], nil
		})
	if !c.SeekGE(base.MakeSearchKey([]byte("m"), base.MaxSeqNum)) {
		t.Fatal("seek failed")
	}
	if opens != 1 {
		t.Fatalf("first seek opened %d children", opens)
	}
	// Repeated seeks landing in the same child must not reopen it —
	// forward, backward within the child, and exact-position reseeks alike.
	for _, k := range []string{"n", "o", "m", "n"} {
		if !c.SeekGE(base.MakeSearchKey([]byte(k), base.MaxSeqNum)) {
			t.Fatalf("reseek to %q failed", k)
		}
		if string(c.Key().UserKey) != k {
			t.Fatalf("reseek landed on %q, want %q", c.Key().UserKey, k)
		}
	}
	if opens != 1 {
		t.Fatalf("reseeks within one child opened %d children, want 1", opens)
	}
	// A seek into a different child opens it.
	if !c.SeekGE(base.MakeSearchKey([]byte("x"), base.MaxSeqNum)) {
		t.Fatal("seek to x failed")
	}
	if opens != 2 {
		t.Fatalf("cross-child seek opened %d children, want 2", opens)
	}
	// Reseek past the open child's keys rolls into the next one.
	if !c.SeekGE(base.MakeSearchKey([]byte("y"), base.MaxSeqNum)) || string(c.Key().UserKey) != "y" {
		t.Fatal("reseek within last child failed")
	}
	if opens != 2 {
		t.Fatalf("reseek reopened a child: %d opens", opens)
	}
}

func TestConcatReseekBackwardReopens(t *testing.T) {
	children := []*sliceIter{
		newSliceIter(map[string]string{"a": "", "b": ""}, 1),
		newSliceIter(map[string]string{"m": ""}, 10),
	}
	opens := 0
	c := NewConcat(len(children),
		func(i int) (base.InternalKey, base.InternalKey) {
			return children[i].keys[0], children[i].keys[len(children[i].keys)-1]
		},
		func(i int) (Internal, error) {
			opens++
			return children[i], nil
		})
	if !c.SeekGE(base.MakeSearchKey([]byte("m"), base.MaxSeqNum)) {
		t.Fatal("seek failed")
	}
	if !c.SeekGE(base.MakeSearchKey([]byte("a"), base.MaxSeqNum)) || string(c.Key().UserKey) != "a" {
		t.Fatal("backward reseek failed")
	}
	if opens != 2 {
		t.Fatalf("opens = %d, want 2", opens)
	}
}

// BenchmarkMergeNext measures the steady-state Next cost of a k-way merge.
// Run with -benchmem: the hand-rolled heap must not allocate per step.
func BenchmarkMergeNext(b *testing.B) {
	for _, k := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("sources=%d", k), func(b *testing.B) {
			var sources []Internal
			per := 4096
			for s := 0; s < k; s++ {
				it := &sliceIter{pos: -1}
				for i := 0; i < per; i++ {
					it.keys = append(it.keys,
						base.MakeInternalKey([]byte(fmt.Sprintf("k%08d", i*k+s)), base.SeqNum(i+1), base.KindSet))
					it.vals = append(it.vals, nil)
				}
				sources = append(sources, it)
			}
			m := NewMerge(sources...)
			if !m.First() {
				b.Fatal("empty merge")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !m.Next() {
					b.StopTimer()
					if !m.First() {
						b.Fatal("reset failed")
					}
					b.StartTimer()
				}
			}
		})
	}
}
