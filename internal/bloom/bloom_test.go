package bloom

import (
	"fmt"
	"testing"
	"testing/quick"
)

func keysN(n int, prefix string) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("%s%09d", prefix, i))
	}
	return keys
}

func hashAll(keys [][]byte) []uint64 {
	hs := make([]uint64, len(keys))
	for i, k := range keys {
		hs[i] = Hash(k)
	}
	return hs
}

// TestNoFalseNegatives is the filter's contract: every inserted key must be
// reported as possibly present.
func TestNoFalseNegatives(t *testing.T) {
	for _, bits := range []int{1, 5, 10, 15} {
		keys := keysN(10_000, "k")
		f := Build(hashAll(keys), bits)
		for _, k := range keys {
			if !f.MayContain(Hash(k)) {
				t.Fatalf("bits=%d: false negative for %q", bits, k)
			}
		}
	}
}

// TestFalsePositiveRate checks the filter is in the ballpark of the
// theoretical 0.6185^bitsPerKey rate.
func TestFalsePositiveRate(t *testing.T) {
	keys := keysN(20_000, "in")
	f := Build(hashAll(keys), 10)
	probes := keysN(20_000, "out")
	fp := 0
	for _, k := range probes {
		if f.MayContain(Hash(k)) {
			fp++
		}
	}
	rate := float64(fp) / float64(len(probes))
	if rate > 0.03 {
		t.Fatalf("false positive rate %.4f too high for 10 bits/key", rate)
	}
	if rate == 0 {
		t.Fatal("zero false positives over 20k probes is implausible; hash may be degenerate")
	}
}

func TestFewerBitsMoreFalsePositives(t *testing.T) {
	keys := keysN(10_000, "in")
	probes := keysN(10_000, "out")
	rate := func(bits int) float64 {
		f := Build(hashAll(keys), bits)
		fp := 0
		for _, k := range probes {
			if f.MayContain(Hash(k)) {
				fp++
			}
		}
		return float64(fp) / float64(len(probes))
	}
	if r2, r10 := rate(2), rate(10); r2 <= r10 {
		t.Fatalf("2 bits/key rate %.4f should exceed 10 bits/key rate %.4f", r2, r10)
	}
}

func TestEncodeDecodeRoundtrip(t *testing.T) {
	keys := keysN(1000, "k")
	hs := hashAll(keys)
	f := Build(hs, 10)
	enc := Append([]byte("head"), hs, 10)
	if string(enc[:4]) != "head" {
		t.Fatal("Append overwrote dst")
	}
	dec, ok := Decode(enc[4:])
	if !ok {
		t.Fatal("decode failed")
	}
	for _, k := range keys {
		if !dec.MayContain(Hash(k)) {
			t.Fatalf("false negative after roundtrip for %q", k)
		}
	}
	if dec.probes != f.probes || string(dec.bits) != string(f.bits) {
		t.Fatalf("wire form decodes to %d probes, %d bytes; Build made %d, %d", dec.probes, dec.SizeBytes(), f.probes, f.SizeBytes())
	}
	buf := make([]byte, 0, len(enc))
	if allocs := testing.AllocsPerRun(10, func() { Append(buf, hs, 10) }); allocs != 0 {
		t.Fatalf("Append into a large enough buffer allocated %.0f times", allocs)
	}
}

// TestAppendCompact: the compact form carries the filter Build makes, decodes
// back to it, appends after what dst held, and allocates nothing once dst has
// the room.
func TestAppendCompact(t *testing.T) {
	for _, n := range []int{0, 1, 7, 1000} {
		hs := hashAll(keysN(n, "k"))
		want := Build(hs, 10)
		enc := AppendCompact([]byte("head"), hs, 10)
		if string(enc[:4]) != "head" {
			t.Fatalf("n=%d: AppendCompact overwrote dst", n)
		}
		got, ok := DecodeCompact(enc[4:])
		if !ok || got.probes != want.probes || string(got.bits) != string(want.bits) {
			t.Fatalf("n=%d: compact form decodes to %d probes, %d bytes; Build made %d, %d", n, got.probes, got.SizeBytes(), want.probes, want.SizeBytes())
		}
		buf := make([]byte, 0, len(enc))
		if allocs := testing.AllocsPerRun(10, func() { AppendCompact(buf, hs, 10) }); allocs != 0 {
			t.Fatalf("n=%d: AppendCompact into a large enough buffer allocated %.0f times", n, allocs)
		}
	}
}

func TestDecodeCompactRejectsCorrupt(t *testing.T) {
	for _, b := range [][]byte{nil, {3}, {0, 0xff}, {31, 0xff}} {
		if _, ok := DecodeCompact(b); ok {
			t.Errorf("DecodeCompact(%v) accepted", b)
		}
	}
}

func TestDecodeRejectsCorrupt(t *testing.T) {
	if _, ok := Decode(nil); ok {
		t.Error("nil input should fail")
	}
	if _, ok := Decode([]byte{0, 0}); ok {
		t.Error("short input should fail")
	}
	if _, ok := Decode([]byte{0, 0, 0, 0, 1, 2}); ok {
		t.Error("zero probes should fail")
	}
	if _, ok := Decode([]byte{200, 0, 0, 0, 1, 2}); ok {
		t.Error("excess probes should fail")
	}
}

func TestEmptyFilterAlwaysMaybe(t *testing.T) {
	var f Filter
	if !f.MayContain(Hash([]byte("anything"))) {
		t.Fatal("zero-value filter must answer maybe")
	}
}

func TestBuildEmptyAndTiny(t *testing.T) {
	f := Build(nil, 10)
	// An empty build produces a minimal valid filter; it may answer
	// either way but must not panic.
	_ = f.MayContain(Hash([]byte("x")))

	one := Build([]uint64{Hash([]byte("solo"))}, 10)
	if !one.MayContain(Hash([]byte("solo"))) {
		t.Fatal("single-key filter lost its key")
	}
}

// TestHashAvalanche: flipping any single input byte should change the hash.
func TestHashAvalanche(t *testing.T) {
	f := func(key []byte) bool {
		if len(key) == 0 {
			return true
		}
		h := Hash(key)
		mod := append([]byte(nil), key...)
		mod[0] ^= 1
		return Hash(mod) != h
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBuild10k(b *testing.B) {
	hs := hashAll(keysN(10_000, "k"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(hs, 10)
	}
}

func BenchmarkMayContain(b *testing.B) {
	keys := keysN(100_000, "k")
	f := Build(hashAll(keys), 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.MayContain(Hash(keys[i%len(keys)]))
	}
}

func BenchmarkHash(b *testing.B) {
	key := []byte("user000000123456")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Hash(key)
	}
}
