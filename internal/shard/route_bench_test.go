package shard

import (
	"fmt"
	"runtime/debug"
	"testing"

	"repro/internal/base"
	"repro/internal/core"
	"repro/internal/vfs"
)

// routeBatchFixture opens a four-shard router and builds a 64-op batch of
// kiwi-shaped puts (24-byte keys, 100-byte values), one in eight a delete.
func routeBatchFixture(tb testing.TB) (*Router, *core.Batch) {
	tb.Helper()
	r, err := Open("db", testOptions(vfs.NewMemFS(), &base.LogicalClock{}, 4))
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { r.Close() })
	b := core.NewBatch()
	value := make([]byte, 100)
	for i := 0; i < 64; i++ {
		key := []byte(fmt.Sprintf("user%020d", i*7919))
		if i%8 == 7 {
			b.Delete(key)
		} else {
			b.Put(key, value)
		}
	}
	return r, b
}

// BenchmarkRouteBatch prices the router's split of a batch into per-shard
// sub-batches, the step Apply takes before it fans the commits out.
func BenchmarkRouteBatch(b *testing.B) {
	r, batch := routeBatchFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if subs := r.routeBatch(batch); len(subs) != r.NumShards() {
			b.Fatalf("%d sub-batches for %d shards", len(subs), r.NumShards())
		}
	}
}

// TestRouteBatchAllocs holds BenchmarkRouteBatch at its measured count,
// 14: the sub-batch slice and the per-shard sizes; per shard the batch, its
// op slice and its data buffer, each sized by the first pass.
func TestRouteBatchAllocs(t *testing.T) {
	if raceEnabled() {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	r, batch := routeBatchFixture(t)
	const ceiling = 14
	if a := testing.AllocsPerRun(100, func() { r.routeBatch(batch) }); a > ceiling {
		t.Errorf("routing a 64-op batch over 4 shards: %v allocs, ceiling %v", a, ceiling)
	}
}

// raceEnabled reports whether the test binary runs under the race detector,
// where slices.Grow allocates a temporary it otherwise does not, so
// allocation counts vary.
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
