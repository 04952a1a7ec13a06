package block

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

func buildBlock(t *testing.T, restartInterval int, kvs [][2]string) []byte {
	t.Helper()
	w := NewWriter(restartInterval)
	for _, kv := range kvs {
		w.Add([]byte(kv[0]), []byte(kv[1]))
	}
	return append([]byte(nil), w.Finish()...)
}

func sortedKVs(n int) [][2]string {
	kvs := make([][2]string, n)
	for i := range kvs {
		kvs[i] = [2]string{fmt.Sprintf("key%06d", i), fmt.Sprintf("value-%d", i*3)}
	}
	return kvs
}

func TestBlockIterationRoundtrip(t *testing.T) {
	for _, ri := range []int{1, 2, 7, 16, 1000} {
		kvs := sortedKVs(500)
		data := buildBlock(t, ri, kvs)
		it, err := NewIter(data, bytes.Compare)
		if err != nil {
			t.Fatal(err)
		}
		i := 0
		for ok := it.First(); ok; ok = it.Next() {
			if string(it.Key()) != kvs[i][0] || string(it.Value()) != kvs[i][1] {
				t.Fatalf("ri=%d entry %d: got (%q,%q), want %v", ri, i, it.Key(), it.Value(), kvs[i])
			}
			i++
		}
		if err := it.Error(); err != nil {
			t.Fatal(err)
		}
		if i != len(kvs) {
			t.Fatalf("ri=%d iterated %d entries, want %d", ri, i, len(kvs))
		}
	}
}

// TestIterReset: one Iter re-targeted over blocks of different shapes walks
// each like a fresh one, references nothing of the block it left (the old
// buffer is scribbled over), and recovers from a Reset that was refused.
func TestIterReset(t *testing.T) {
	it, err := NewIter(buildBlock(t, 16, sortedKVs(3)), bytes.Compare)
	if err != nil {
		t.Fatal(err)
	}
	it.First()
	var prev []byte
	for _, shape := range []struct{ n, ri int }{{400, 16}, {5, 1}, {900, 7}, {1, 16}} {
		for i := range prev {
			prev[i] = 0xff
		}
		kvs := sortedKVs(shape.n)
		data := buildBlock(t, shape.ri, kvs)
		if err := it.Reset(data); err != nil {
			t.Fatal(err)
		}
		if it.Valid() {
			t.Fatal("Reset left the iterator positioned")
		}
		i := 0
		for ok := it.First(); ok; ok = it.Next() {
			if string(it.Key()) != kvs[i][0] || string(it.Value()) != kvs[i][1] {
				t.Fatalf("n=%d entry %d: got (%q,%q), want %v", shape.n, i, it.Key(), it.Value(), kvs[i])
			}
			i++
		}
		if err := it.Error(); err != nil || i != len(kvs) {
			t.Fatalf("n=%d: walked %d entries, err %v", shape.n, i, err)
		}
		mid := kvs[len(kvs)/2]
		if !it.SeekGE([]byte(mid[0])) || string(it.Value()) != mid[1] {
			t.Fatalf("n=%d: SeekGE(%q) landed on %q", shape.n, mid[0], it.Key())
		}
		prev = data
		if err := it.Reset([]byte{1, 2}); err == nil {
			t.Fatal("Reset accepted a two-byte block")
		}
	}
}

func TestBlockSeekGE(t *testing.T) {
	kvs := sortedKVs(300)
	data := buildBlock(t, 16, kvs)
	it, err := NewIter(data, bytes.Compare)
	if err != nil {
		t.Fatal(err)
	}
	// Exact hits.
	for i := 0; i < len(kvs); i += 17 {
		if !it.SeekGE([]byte(kvs[i][0])) {
			t.Fatalf("SeekGE(%q) invalid", kvs[i][0])
		}
		if string(it.Key()) != kvs[i][0] {
			t.Fatalf("SeekGE(%q) landed on %q", kvs[i][0], it.Key())
		}
	}
	// Between keys: target "key000100x" -> next key.
	if !it.SeekGE([]byte("key000100x")) || string(it.Key()) != "key000101" {
		t.Fatalf("between-keys seek landed on %q", it.Key())
	}
	// Before the first key.
	if !it.SeekGE([]byte("a")) || string(it.Key()) != kvs[0][0] {
		t.Fatalf("before-first seek landed on %q", it.Key())
	}
	// Past the last key.
	if it.SeekGE([]byte("z")) {
		t.Fatal("seek past end should be invalid")
	}
	if it.Valid() {
		t.Fatal("iterator should be invalid after failed seek")
	}
}

// TestBlockSeekGEExhaustive compares every possible seek against a
// reference implementation.
func TestBlockSeekGEExhaustive(t *testing.T) {
	kvs := sortedKVs(100)
	data := buildBlock(t, 4, kvs)
	it, err := NewIter(data, bytes.Compare)
	if err != nil {
		t.Fatal(err)
	}
	targets := []string{}
	for _, kv := range kvs {
		targets = append(targets, kv[0], kv[0]+"\x00", kv[0][:5])
	}
	for _, target := range targets {
		wantIdx := sort.Search(len(kvs), func(i int) bool { return kvs[i][0] >= target })
		got := it.SeekGE([]byte(target))
		if wantIdx == len(kvs) {
			if got {
				t.Fatalf("SeekGE(%q) should be invalid, got %q", target, it.Key())
			}
			continue
		}
		if !got || string(it.Key()) != kvs[wantIdx][0] {
			t.Fatalf("SeekGE(%q) = %q, want %q", target, it.Key(), kvs[wantIdx][0])
		}
	}
}

func TestBlockPrefixCompressionSaves(t *testing.T) {
	kvs := sortedKVs(1000) // heavily shared prefixes
	compressed := len(buildBlock(t, 16, kvs))
	uncompressed := len(buildBlock(t, 1, kvs)) // restart every entry = no sharing
	if compressed >= uncompressed {
		t.Fatalf("prefix compression saved nothing: %d vs %d", compressed, uncompressed)
	}
}

func TestBlockEmptyValuesAndKeys(t *testing.T) {
	w := NewWriter(16)
	w.Add([]byte("a"), nil)
	w.Add([]byte("b"), []byte{})
	w.Add([]byte("c"), []byte("v"))
	it, err := NewIter(w.Finish(), bytes.Compare)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for ok := it.First(); ok; ok = it.Next() {
		n++
	}
	if n != 3 {
		t.Fatalf("iterated %d", n)
	}
}

func TestBlockEmpty(t *testing.T) {
	w := NewWriter(16)
	it, err := NewIter(append([]byte(nil), w.Finish()...), bytes.Compare)
	if err != nil {
		t.Fatal(err)
	}
	if it.First() {
		t.Fatal("empty block should have no entries")
	}
	if it.SeekGE([]byte("x")) {
		t.Fatal("seek in empty block should be invalid")
	}
}

func TestBlockCorruptionDetected(t *testing.T) {
	if _, err := NewIter([]byte{1, 2}, bytes.Compare); err == nil {
		t.Fatal("short block should be rejected")
	}
	// A block whose restart count overruns the data.
	bad := []byte{0, 0, 0, 0, 255, 0, 0, 0}
	if _, err := NewIter(bad, bytes.Compare); err == nil {
		t.Fatal("bogus restart count should be rejected")
	}
}

func TestBlockWriterReset(t *testing.T) {
	w := NewWriter(16)
	w.Add([]byte("a"), []byte("1"))
	first := append([]byte(nil), w.Finish()...)
	w.Reset()
	if !w.Empty() || w.Count() != 0 {
		t.Fatal("reset did not clear state")
	}
	w.Add([]byte("a"), []byte("1"))
	second := w.Finish()
	if !bytes.Equal(first, second) {
		t.Fatal("writer is not deterministic after Reset")
	}
}

func TestBlockEstimatedSize(t *testing.T) {
	w := NewWriter(16)
	prev := w.EstimatedSize()
	for i := 0; i < 100; i++ {
		w.Add([]byte(fmt.Sprintf("key%06d", i)), []byte("value"))
		if est := w.EstimatedSize(); est <= prev-8 {
			t.Fatal("estimated size should grow monotonically")
		} else {
			prev = est
		}
	}
	if final := len(w.Finish()); final > prev+64 || final < prev-64 {
		t.Fatalf("estimate %d far from final %d", prev, final)
	}
}

// TestBlockRandomized drives random sorted key sets through build + full
// iteration + random seeks, comparing with a reference slice.
func TestBlockRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(400)
		seen := map[string]bool{}
		var keys []string
		for len(keys) < n {
			k := fmt.Sprintf("%x", rng.Int63n(1<<40))
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		w := NewWriter(1 + rng.Intn(20))
		for _, k := range keys {
			w.Add([]byte(k), []byte("v"+k))
		}
		it, err := NewIter(append([]byte(nil), w.Finish()...), bytes.Compare)
		if err != nil {
			t.Fatal(err)
		}
		for probe := 0; probe < 50; probe++ {
			target := fmt.Sprintf("%x", rng.Int63n(1<<40))
			want := sort.SearchStrings(keys, target)
			ok := it.SeekGE([]byte(target))
			if want == len(keys) {
				if ok {
					t.Fatalf("trial %d: SeekGE(%q) should fail", trial, target)
				}
			} else if !ok || string(it.Key()) != keys[want] {
				t.Fatalf("trial %d: SeekGE(%q) = %q want %q", trial, target, it.Key(), keys[want])
			}
		}
	}
}

func BenchmarkBlockWrite(b *testing.B) {
	kvs := sortedKVs(128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := NewWriter(16)
		for _, kv := range kvs {
			w.Add([]byte(kv[0]), []byte(kv[1]))
		}
		w.Finish()
	}
}

func BenchmarkBlockSeekGE(b *testing.B) {
	kvs := sortedKVs(128)
	w := NewWriter(16)
	for _, kv := range kvs {
		w.Add([]byte(kv[0]), []byte(kv[1]))
	}
	data := append([]byte(nil), w.Finish()...)
	it, _ := NewIter(data, bytes.Compare)
	target := []byte(kvs[64][0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it.SeekGE(target)
	}
}
