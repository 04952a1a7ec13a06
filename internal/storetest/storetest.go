// Package storetest is the one differential suite of the store's tests: a
// reference model, a seeded op soup that drives a store and the model side
// by side, and the checks that compare them — full scans, point gets,
// snapshot views, scans across maintenance, and the tombstone ledger. The
// engine (core.DB), the shard router and the wire client each present
// themselves to it through a Target built by a small adapter in their own
// tests.
//
// Only tests import it. It imports nothing above internal/base, so the
// engine's own package tests can use it without an import cycle.
package storetest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/base"
)

// Value returns a 24-byte value whose first 8 bytes are the big-endian
// delete key dk and whose next 8 are tag, so values written with distinct
// tags differ. DeleteKey extracts dk again.
func Value(dk uint64, tag int) []byte {
	v := make([]byte, 24)
	binary.BigEndian.PutUint64(v, dk)
	binary.BigEndian.PutUint64(v[8:], uint64(tag))
	return v
}

// DeleteKey is the Options.DeleteKeyFunc for values written by Value.
func DeleteKey(v []byte) base.DeleteKey {
	if len(v) < 8 {
		return 0
	}
	return binary.BigEndian.Uint64(v)
}

// Model is the reference store: a map from key to value, oblivious to
// levels, shards and the wire.
type Model struct {
	Data map[string][]byte
}

// NewModel returns an empty model.
func NewModel() *Model { return &Model{Data: map[string][]byte{}} }

// Put sets k to a copy of v.
func (m *Model) Put(k string, v []byte) { m.Data[k] = append([]byte(nil), v...) }

// Delete removes k.
func (m *Model) Delete(k string) { delete(m.Data, k) }

// DeleteRange removes every key whose value's delete key is in [lo, hi).
func (m *Model) DeleteRange(lo, hi base.DeleteKey) {
	for k, v := range m.Data {
		if dk := DeleteKey(v); dk >= lo && dk < hi {
			delete(m.Data, k)
		}
	}
}

// Keys returns the model's keys in ascending order.
func (m *Model) Keys() []string {
	keys := make([]string, 0, len(m.Data))
	for k := range m.Data {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Clone returns a deep copy, the model frozen at one instant.
func (m *Model) Clone() *Model {
	c := NewModel()
	for k, v := range m.Data {
		c.Put(k, v)
	}
	return c
}

// Store is the point surface every implementation shares; *core.DB and
// *shard.Router satisfy it as they are.
type Store interface {
	Put(key, value []byte) error
	Get(key []byte) ([]byte, error)
	Delete(key []byte) error
	DeleteSecondaryRange(lo, hi base.DeleteKey) error
}

// Op is one write of a batch.
type Op struct {
	Key, Value []byte
	Delete     bool
}

// Bounds selects the keys a scan reads: those starting with Prefix when it
// is set, else those in [Lower, Upper), a nil bound being open.
type Bounds struct {
	Lower, Upper, Prefix []byte
}

func (b Bounds) contains(k string) bool {
	if b.Prefix != nil {
		return strings.HasPrefix(k, string(b.Prefix))
	}
	return (b.Lower == nil || k >= string(b.Lower)) && (b.Upper == nil || k < string(b.Upper))
}

// Iter is the iterator surface core.Iter and shard.Iter share.
type Iter interface {
	First() bool
	Next() bool
	Key() []byte
	Value() []byte
	Error() error
	Close() error
}

// Ledger is one engine's tombstone ledger read at quiescence, beside the
// tree it describes.
type Ledger struct {
	Resident   int64 // tombstones held in the engine's memtables and files
	Live       int64 // the LiveTombstones gauge
	Persisted  int64 // point plus range tombstones booked as persisted
	Samples    int64 // persistence-latency samples
	Late       int64 // samples over the DPT
	MaxLatency int64
	DPT        int64 // 0: no deadline
}

// CheckLedgers asserts that each ledger agrees with its tree and not merely
// with itself: the live gauge is the resident tombstones, every persisted
// tombstone has exactly one latency sample, and the late count is on the
// side of the DPT the recorded maximum says it is.
func CheckLedgers(t testing.TB, ls []Ledger) {
	t.Helper()
	for i, l := range ls {
		if l.Live != l.Resident || l.Live < 0 {
			t.Fatalf("ledger %d: LiveTombstones = %d, the tree holds %d", i, l.Live, l.Resident)
		}
		if l.Samples != l.Persisted {
			t.Fatalf("ledger %d: %d latency samples for %d persisted tombstones", i, l.Samples, l.Persisted)
		}
		if l.Late > l.Samples || (l.DPT > 0 && (l.Late == 0) != (l.MaxLatency <= l.DPT)) {
			t.Fatalf("ledger %d: %d late of %d persisted, max latency %d against DPT %d",
				i, l.Late, l.Samples, l.MaxLatency, l.DPT)
		}
	}
}

// Target is a store under test as its package's adapter presents it. The
// hooks after Scan may be nil: the soup then skips the ops that need them,
// but a Config that schedules idling, reopens or settling needs theirs.
type Target struct {
	Store
	// NotFound is what Get returns for an absent key, matched by errors.Is.
	NotFound error
	// Apply commits ops as one batch.
	Apply func(ops []Op) error
	// Scan opens an iterator over b at the store's latest state.
	Scan func(b Bounds) (Iter, error)

	// Snapshot pins the current state; scan reads at it until release.
	Snapshot func() (scan func(Bounds) (Iter, error), release func())
	// Flush, MaintenanceStep, WaitIdle and CompactAll shift the tree by hand.
	Flush           func() error
	MaintenanceStep func() error
	WaitIdle        func() error
	CompactAll      func() error
	// Reopen closes the store, or abandons it when crash is set, and opens
	// it again, returning the reopened target; leg is the index of the
	// reopen in Config.Reopens.
	Reopen func(leg int, crash bool) (*Target, error)
	// Ledgers quiesces the store and reads each engine's tombstone ledger.
	Ledgers func() ([]Ledger, error)
	// FlushesToL1 reads how many flushes, summed over the store's engines,
	// merged their memtable straight into level 1 since it was opened.
	FlushesToL1 func() int64
}

// Check compares the store with the model: a full scan, then point gets of
// present keys and of absent ones, drawn from probe.
func Check(t testing.TB, tg *Target, m *Model, probe int) {
	t.Helper()
	if d := Diff(tg, m); d != "" {
		t.Fatalf("probe %d full scan: %s", probe, d)
	}
	keys := m.Keys()
	rng := rand.New(rand.NewSource(int64(probe)))
	for j := 0; j < 50 && len(keys) > 0; j++ {
		checkGet(t, tg, m, keys[rng.Intn(len(keys))], probe)
	}
	for j := 0; j < 20; j++ {
		checkGet(t, tg, m, fmt.Sprintf("absent%010d", rng.Int63()), probe)
	}
}

func checkGet(t testing.TB, tg *Target, m *Model, k string, op int) {
	t.Helper()
	v, err := tg.Get([]byte(k))
	want, present := m.Data[k]
	switch {
	case present && (err != nil || string(v) != string(want)):
		t.Fatalf("op %d: Get(%q) = %x, %v; model has %x", op, k, v, err, want)
	case !present && !errors.Is(err, tg.NotFound):
		t.Fatalf("op %d: Get(%q) = %x, %v; model has no such key", op, k, v, err)
	}
}

// Diff scans the whole store and describes where it first departs from the
// model, or returns "" when the two agree.
func Diff(tg *Target, m *Model) string { return diffScan(tg.Scan, Bounds{}, m, nil, 0) }

// diffScan opens scan over b and diffs it, keys and values, against the
// model's keys in b. A non-nil mid runs once pct percent of the walk is done,
// while the iterator is open: the rest must still read the state it was
// opened on.
func diffScan(scan func(Bounds) (Iter, error), b Bounds, m *Model, mid func() error, pct int) string {
	var want []string
	for _, k := range m.Keys() {
		if b.contains(k) {
			want = append(want, k)
		}
	}
	it, err := scan(b)
	if err != nil {
		return fmt.Sprintf("open: %v", err)
	}
	defer it.Close()
	n := 0
	for ok := it.First(); ok; ok = it.Next() {
		if mid != nil && n == len(want)*pct/100 {
			if err := mid(); err != nil {
				return fmt.Sprintf("mid-scan: %v", err)
			}
			mid = nil
		}
		if n >= len(want) {
			return fmt.Sprintf("extra key %q after the model's %d", it.Key(), len(want))
		}
		if string(it.Key()) != want[n] || string(it.Value()) != string(m.Data[want[n]]) {
			return fmt.Sprintf("entry %d is %q=%x, model has %q=%x", n, it.Key(), it.Value(), want[n], m.Data[want[n]])
		}
		n++
	}
	if err := it.Error(); err != nil {
		return err.Error()
	}
	if n != len(want) {
		return fmt.Sprintf("%d keys, model has %d (first missing %q)", n, len(want), want[n])
	}
	return ""
}

// Mix weighs the op kinds of the soup; an op is drawn with probability
// weight/sum.
type Mix struct {
	Put, Delete, Batch, RangeDelete, Get int
	// Scan checks a full, bounded or prefix scan, shifting the tree with a
	// flush or a maintenance step partway through when the target can.
	Scan int
	// Flush and Step run Flush and MaintenanceStep.
	Flush, Step int
	// Pin pins a snapshot with a frozen model (at most three at once);
	// Unpin checks the oldest against its model and releases it.
	Pin, Unpin int
}

// Stress is the mix of the differential stress tests: every op kind.
var Stress = Mix{Put: 45, Delete: 15, Batch: 10, RangeDelete: 5, Get: 7, Scan: 3, Flush: 3, Step: 6, Pin: 3, Unpin: 3}

// Reopen schedules a close and reopen after op After, with CompactAll first
// when Compacted is set. Crash abandons the store instead of closing it,
// which flushes its memtables: the reopen then sees only what was synced,
// so the target must sync every write, and recovers it by WAL replay.
// Pinned snapshots are checked and released first, and the store is checked
// against the model after.
type Reopen struct {
	After            int
	Compacted, Crash bool
}

// Config is one seeded run of the soup.
type Config struct {
	Seed int64
	Ops  int
	Mix  Mix
	// Keys is the key space: keys are "key%05d" below Keys.
	Keys int
	// DeleteKeys bounds the delete keys of written values; 0 numbers the
	// writes in order instead, as timestamps would.
	DeleteKeys int
	// Clock, when set, advances by 1 to Tick each op.
	Clock Clock
	Tick  int
	// FADE marks a run of the FADE configuration: the engines run the FADE
	// picker with DPT FADEDPT on Clock, with Tick 1000. Run then fails
	// unless some flush, over all reopens, merged its memtable straight into
	// level 1 (Target.FlushesToL1).
	FADE bool
	// CheckEvery runs Check every so many ops; IdleEvery runs WaitIdle.
	CheckEvery, IdleEvery int
	Reopens               []Reopen
	// Settle ends the run with Flush and WaitIdle, a Check, then CompactAll
	// and another Check, before the ledger check.
	Settle bool
}

// Clock is the soup's logical clock: a *base.LogicalClock, or a clock of
// the test's own that the store's background goroutines may read as the
// soup advances it.
type Clock interface {
	Advance(base.Duration) base.Timestamp
}

// FADEDPT is the delete persistence threshold, in clock ticks, of the FADE
// configuration. At Tick 1000 a tombstone ages by 500 ticks an op on
// average, so it is past level 0's share of this DPT tens of ops after the
// delete, sooner than most memtables are flushed: most flushes that find
// level 0 empty merge their memtable straight into level 1, the path a DPT
// of many memtables' worth never takes.
const FADEDPT base.Duration = 20_000

type pin struct {
	scan    func(Bounds) (Iter, error)
	release func()
	frozen  *Model
}

// Run drives tg and a model with cfg's op stream, checking the store against
// the model as it goes and once more at the end, then checks the tombstone
// ledgers.
func Run(t testing.TB, tg *Target, cfg Config) {
	t.Helper()
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := NewModel()
	var pins []pin
	var flushesToL1 int64
	tag := 0
	key := func() string { return fmt.Sprintf("key%05d", rng.Intn(cfg.Keys)) }
	value := func() []byte {
		tag++
		if cfg.DeleteKeys == 0 {
			return Value(uint64(tag), tag)
		}
		return Value(uint64(rng.Intn(cfg.DeleteKeys)), tag)
	}
	must := func(i int, what string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("op %d %s: %v", i, what, err)
		}
	}
	releasePins := func(n int) {
		t.Helper()
		for _, p := range pins[:n] {
			if d := diffScan(p.scan, Bounds{}, p.frozen, nil, 0); d != "" {
				t.Fatalf("snapshot: %s", d)
			}
			p.release()
		}
		pins = pins[n:]
	}
	mx := cfg.Mix
	weights := []int{mx.Put, mx.Delete, mx.Batch, mx.RangeDelete, mx.Get, mx.Scan, mx.Flush, mx.Step, mx.Pin, mx.Unpin}
	total := 0
	for _, w := range weights {
		total += w
	}

	for i := 0; i < cfg.Ops; i++ {
		if cfg.Clock != nil {
			cfg.Clock.Advance(base.Duration(1 + rng.Intn(cfg.Tick)))
		}
		kind, p := 0, rng.Intn(total)
		for ; p >= weights[kind]; kind++ {
			p -= weights[kind]
		}
		switch kind {
		case 0: // put
			k, v := key(), value()
			must(i, "Put", tg.Put([]byte(k), v))
			m.Put(k, v)
		case 1: // delete
			k := key()
			must(i, "Delete", tg.Delete([]byte(k)))
			m.Delete(k)
		case 2: // batch
			ops := make([]Op, 1+rng.Intn(8))
			for j := range ops {
				ops[j] = Op{Key: []byte(key()), Delete: rng.Intn(4) == 0}
				if !ops[j].Delete {
					ops[j].Value = value()
				}
			}
			must(i, "Apply", tg.Apply(ops))
			for _, o := range ops {
				if o.Delete {
					m.Delete(string(o.Key))
				} else {
					m.Put(string(o.Key), o.Value)
				}
			}
		case 3: // secondary range delete
			span := cfg.DeleteKeys
			if span == 0 {
				span = tag + 1
			}
			lo := base.DeleteKey(rng.Intn(span))
			hi := lo + 1 + base.DeleteKey(rng.Intn(span/8+1))
			must(i, "DeleteSecondaryRange", tg.DeleteSecondaryRange(lo, hi))
			m.DeleteRange(lo, hi)
		case 4: // get
			checkGet(t, tg, m, key(), i)
		case 5: // scan
			var b Bounds
			switch rng.Intn(3) {
			case 0: // bounded
				lo, hi := key(), key()
				if lo > hi {
					lo, hi = hi, lo
				}
				b.Lower, b.Upper = []byte(lo), []byte(hi)
			case 1: // a prefix of about a hundred keys; otherwise a full scan
				b.Prefix = []byte(fmt.Sprintf("key%03d", rng.Intn(cfg.Keys/100+1)))
			}
			mid := tg.MaintenanceStep
			if rng.Intn(2) == 0 {
				mid = tg.Flush
			}
			if d := diffScan(tg.Scan, b, m, mid, rng.Intn(101)); d != "" {
				t.Fatalf("op %d scan [%q, %q) prefix %q: %s", i, b.Lower, b.Upper, b.Prefix, d)
			}
		case 6: // flush
			if tg.Flush != nil {
				must(i, "Flush", tg.Flush())
			}
		case 7: // maintenance step
			if tg.MaintenanceStep != nil {
				must(i, "MaintenanceStep", tg.MaintenanceStep())
			}
		case 8: // pin
			if tg.Snapshot != nil && len(pins) < 3 {
				scan, release := tg.Snapshot()
				pins = append(pins, pin{scan, release, m.Clone()})
			}
		case 9: // unpin
			releasePins(min(1, len(pins)))
		}

		if cfg.IdleEvery > 0 && i%cfg.IdleEvery == 0 {
			must(i, "WaitIdle", tg.WaitIdle())
		}
		if cfg.CheckEvery > 0 && i%cfg.CheckEvery == cfg.CheckEvery-1 {
			Check(t, tg, m, int(cfg.Seed)*1000+i)
		}
		for leg, r := range cfg.Reopens {
			if r.After != i {
				continue
			}
			releasePins(len(pins))
			if r.Compacted {
				must(i, "CompactAll", tg.CompactAll())
			}
			if cfg.FADE {
				flushesToL1 += tg.FlushesToL1()
			}
			next, err := tg.Reopen(leg, r.Crash)
			must(i, fmt.Sprintf("reopen %d", leg), err)
			tg = next
			Check(t, tg, m, int(cfg.Seed)*1000+i)
		}
	}
	releasePins(len(pins))
	Check(t, tg, m, cfg.Ops)
	if cfg.Settle {
		must(cfg.Ops, "Flush", tg.Flush())
		must(cfg.Ops, "WaitIdle", tg.WaitIdle())
		Check(t, tg, m, cfg.Ops+1)
		must(cfg.Ops, "CompactAll", tg.CompactAll())
		Check(t, tg, m, cfg.Ops+2)
	}
	if tg.Ledgers != nil {
		ls, err := tg.Ledgers()
		must(cfg.Ops, "Ledgers", err)
		CheckLedgers(t, ls)
	}
	if cfg.FADE {
		if flushesToL1 += tg.FlushesToL1(); flushesToL1 == 0 {
			t.Fatalf("FADE configuration: no flush merged its memtable straight into level 1")
		}
		t.Logf("%d flushes merged their memtable straight into level 1", flushesToL1)
	}
}
