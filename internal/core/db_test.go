package core

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/base"
	"repro/internal/compaction"
	"repro/internal/vfs"
)

func testDK(v []byte) base.DeleteKey {
	if len(v) < 8 {
		return 0
	}
	return binary.BigEndian.Uint64(v)
}

func testValue(dk uint64, tag int) []byte {
	v := make([]byte, 24)
	binary.BigEndian.PutUint64(v, dk)
	binary.BigEndian.PutUint64(v[8:], uint64(tag))
	return v
}

func testOptions(fs vfs.FS, clk base.Clock) Options {
	return Options{
		FS:                     fs,
		Clock:                  clk,
		MemTableBytes:          32 << 10,
		DeleteKeyFunc:          testDK,
		DisableAutoMaintenance: true,
		Compaction: compaction.Options{
			SizeRatio:       4,
			L0Threshold:     2,
			BaseLevelBytes:  64 << 10,
			TargetFileBytes: 16 << 10,
		},
	}
}

// model is the reference store the engine is compared against.
type model struct {
	data map[string][]byte
}

func newModel() *model { return &model{data: map[string][]byte{}} }

func (m *model) put(k string, v []byte) { m.data[k] = append([]byte(nil), v...) }
func (m *model) delete(k string)        { delete(m.data, k) }
func (m *model) rangeDelete(lo, hi base.DeleteKey) {
	for k, v := range m.data {
		if dk := testDK(v); dk >= lo && dk < hi {
			delete(m.data, k)
		}
	}
}

func (m *model) sortedKeys() []string {
	keys := make([]string, 0, len(m.data))
	for k := range m.data {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// checkEquivalence compares engine contents with the model via Get and a
// full iteration.
func checkEquivalence(t *testing.T, d *DB, m *model, probe int) {
	t.Helper()
	// Full scan equivalence.
	it, err := d.NewIter(IterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	keys := m.sortedKeys()
	i := 0
	for ok := it.First(); ok; ok = it.Next() {
		if i >= len(keys) {
			t.Fatalf("engine has extra key %q", it.Key())
		}
		if string(it.Key()) != keys[i] {
			t.Fatalf("scan divergence at %d: engine %q, model %q", i, it.Key(), keys[i])
		}
		if string(it.Value()) != string(m.data[keys[i]]) {
			t.Fatalf("value divergence at %q", keys[i])
		}
		i++
	}
	if err := it.Error(); err != nil {
		t.Fatal(err)
	}
	if i != len(keys) {
		t.Fatalf("engine scan has %d keys, model %d (first missing: %q)", i, len(keys), keys[i])
	}
	// Point-get spot checks, present and absent.
	rng := rand.New(rand.NewSource(int64(probe)))
	for j := 0; j < 50 && len(keys) > 0; j++ {
		k := keys[rng.Intn(len(keys))]
		v, err := d.Get([]byte(k))
		if err != nil {
			t.Fatalf("Get(%q): %v", k, err)
		}
		if string(v) != string(m.data[k]) {
			t.Fatalf("Get(%q) value divergence", k)
		}
	}
	for j := 0; j < 20; j++ {
		k := fmt.Sprintf("absent%010d", rng.Int63())
		if _, err := d.Get([]byte(k)); err != ErrNotFound {
			t.Fatalf("Get(absent %q) = %v", k, err)
		}
	}
}

// TestModelEquivalence drives random operations against the engine and a
// map model, checking full equivalence at checkpoints, across the key
// engine configurations.
func TestModelEquivalence(t *testing.T) {
	configs := []struct {
		name string
		mod  func(*Options)
	}{
		{"leveling-baseline", func(o *Options) {}},
		{"leveling-fade", func(o *Options) {
			o.Compaction.Picker = compaction.PickFADE
			o.Compaction.DPT = 2000
		}},
		{"tiering", func(o *Options) { o.Compaction.Policy = compaction.PolicySizeTiered }},
		{"tiering-fade", func(o *Options) {
			o.Compaction.Policy = compaction.PolicySizeTiered
			o.Compaction.Picker = compaction.PickFADE
			o.Compaction.DPT = 2000
		}},
		{"lazy-leveling", func(o *Options) {
			o.Compaction.Policy = compaction.PolicyLazyLeveling
		}},
		{"lazy-leveling-fade", func(o *Options) {
			o.Compaction.Policy = compaction.PolicyLazyLeveling
			o.Compaction.Picker = compaction.PickFADE
			o.Compaction.DPT = 2000
		}},
		{"kiwi-eager", func(o *Options) {
			o.PagesPerTile = 4
			o.EagerRangeDeletes = true
			o.Compaction.Picker = compaction.PickFADE
			o.Compaction.DPT = 2000
		}},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			clk := &base.LogicalClock{}
			opts := testOptions(vfs.NewMemFS(), clk)
			cfg.mod(&opts)
			d, err := Open("db", opts)
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			m := newModel()
			rng := rand.New(rand.NewSource(42))
			const ops = 6000
			var tick uint64
			for i := 0; i < ops; i++ {
				clk.Advance(1)
				switch r := rng.Float64(); {
				case r < 0.55: // put
					k := fmt.Sprintf("key%05d", rng.Intn(2000))
					tick++
					v := testValue(tick, i)
					if err := d.Put([]byte(k), v); err != nil {
						t.Fatal(err)
					}
					m.put(k, v)
				case r < 0.75: // delete
					k := fmt.Sprintf("key%05d", rng.Intn(2000))
					if err := d.Delete([]byte(k)); err != nil {
						t.Fatal(err)
					}
					m.delete(k)
				case r < 0.78 && opts.DeleteKeyFunc != nil: // secondary range delete
					if tick < 10 {
						continue
					}
					lo := uint64(rng.Intn(int(tick)))
					hi := lo + uint64(rng.Intn(int(tick/4)+1)) + 1
					if err := d.DeleteSecondaryRange(lo, hi); err != nil {
						t.Fatal(err)
					}
					m.rangeDelete(lo, hi)
				default: // get
					k := fmt.Sprintf("key%05d", rng.Intn(2000))
					v, err := d.Get([]byte(k))
					want, ok := m.data[k]
					if ok && (err != nil || string(v) != string(want)) {
						t.Fatalf("op %d: Get(%q) = %q, %v; want %q", i, k, v, err, want)
					}
					if !ok && err != ErrNotFound {
						t.Fatalf("op %d: Get(deleted %q) = %v", i, k, err)
					}
				}
				if i%64 == 0 {
					if err := d.WaitIdle(); err != nil {
						t.Fatal(err)
					}
				}
				if i%1500 == 1499 {
					checkEquivalence(t, d, m, i)
				}
			}
			if err := d.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := d.WaitIdle(); err != nil {
				t.Fatal(err)
			}
			checkEquivalence(t, d, m, ops)
			if err := d.CompactAll(); err != nil {
				t.Fatal(err)
			}
			checkEquivalence(t, d, m, ops+1)
		})
	}
}

// TestReopenPreservesModel reopens the store (including WAL replay) at
// random points and checks equivalence afterwards.
func TestReopenPreservesModel(t *testing.T) {
	fs := vfs.NewMemFS()
	clk := &base.LogicalClock{}
	opts := testOptions(fs, clk)
	d, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	m := newModel()
	rng := rand.New(rand.NewSource(9))
	var tick uint64
	for round := 0; round < 4; round++ {
		for i := 0; i < 1200; i++ {
			clk.Advance(1)
			k := fmt.Sprintf("key%05d", rng.Intn(800))
			if rng.Float64() < 0.25 {
				if err := d.Delete([]byte(k)); err != nil {
					t.Fatal(err)
				}
				m.delete(k)
			} else {
				tick++
				v := testValue(tick, i)
				if err := d.Put([]byte(k), v); err != nil {
					t.Fatal(err)
				}
				m.put(k, v)
			}
			if i%128 == 0 {
				if err := d.WaitIdle(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		d, err = Open("db", opts)
		if err != nil {
			t.Fatalf("round %d reopen: %v", round, err)
		}
		checkEquivalence(t, d, m, round)
	}
	d.Close()
}

// TestReopenReplaysRangeTombstones covers WAL replay of secondary range
// deletes issued just before a close.
func TestReopenReplaysRangeTombstones(t *testing.T) {
	fs := vfs.NewMemFS()
	clk := &base.LogicalClock{}
	opts := testOptions(fs, clk)
	d, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	m := newModel()
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("k%04d", i)
		v := testValue(uint64(i), i)
		if err := d.Put([]byte(k), v); err != nil {
			t.Fatal(err)
		}
		m.put(k, v)
	}
	if err := d.DeleteSecondaryRange(0, 100); err != nil {
		t.Fatal(err)
	}
	m.rangeDelete(0, 100)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d, err = Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	checkEquivalence(t, d, m, 0)
}
