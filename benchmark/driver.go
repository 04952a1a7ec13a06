package main

import (
	"fmt"
	"sync/atomic"

	"repro/internal/base"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/shard"
)

// store is the op surface the three altitudes share: core.DB, shard.Router
// and client.Client all have these methods; scan is adapted below.
type store interface {
	Put(key, value []byte) error
	Get(key []byte) ([]byte, error)
	Delete(key []byte) error
	DeleteSecondaryRange(lo, hi uint64) error
	// scan is open + seek + limit×next + close; stepped is the iterator's
	// count of internal entries examined, where the altitude exposes it.
	scan(start []byte, limit int, into *scanBuf) (stepped int64, err error)
}

// liveIter is what core.Iter and shard.Iter share.
type liveIter interface {
	SeekGE(key []byte) bool
	Next() bool
	Key() []byte
	Value() []byte
	Stepped() int64
	Error() error
	Close() error
}

// drain is the scan both embedded altitudes time: seek, limit×next, close.
func drain(it liveIter, start []byte, limit int, into *scanBuf) (int64, error) {
	n := 0
	for ok := it.SeekGE(start); ok && n < limit; ok = it.Next() {
		into.add(it.Key(), it.Value())
		n++
	}
	stepped, err := it.Stepped(), it.Error()
	if cerr := it.Close(); err == nil {
		err = cerr
	}
	return stepped, err
}

type dbStore struct{ *core.DB }

func (s dbStore) scan(start []byte, limit int, into *scanBuf) (int64, error) {
	it, err := s.NewIter(core.IterOptions{})
	if err != nil {
		return 0, err
	}
	return drain(it, start, limit, into)
}

type routerStore struct{ *shard.Router }

func (s routerStore) scan(start []byte, limit int, into *scanBuf) (int64, error) {
	it, err := s.NewIter(shard.IterOptions{})
	if err != nil {
		return 0, err
	}
	return drain(it, start, limit, into)
}

type clientStore struct{ *client.Client }

func (s clientStore) scan(start []byte, limit int, into *scanBuf) (int64, error) {
	kvs, err := s.Scan(start, nil, limit)
	for _, kv := range kvs {
		into.add(kv.Key, kv.Value)
	}
	return 0, err
}

// Probe inputs are sampled from the op stream itself.
const (
	sampleWrites = 50_000 // the run's last writes
	sampleGets   = 10_000 // the measured phase's first lookups
)

// driver issues one generated op stream against one store from one
// goroutine, closed loop: time around the single public call, the oracle
// check after it.
type driver struct {
	st    store
	g     *gen
	o     *oracle
	clock *base.LogicalClock // nil when the store runs on the wall clock
	tr    *tracer            // nil in the untraced run
	conn  uint32

	// maintain, when set, is called every maintainEvery ops (the manually
	// maintained workloads call WaitIdle every 64).
	maintain      func() error
	maintainEvery uint32

	// tick counts the ops of the write stream: it is the logical clock's
	// reading and the version stamp of every write. holdClock stops both
	// for a read-back slice, whose reads must not age tombstones that
	// maintenance gets no chance to act on. seq numbers every op issued.
	tick      uint32
	holdClock bool
	seq       uint32
	lastEnd   int64

	// ref is the benchmark's yardstick for the machine's speed (speedref.go):
	// a burst of it runs every refEvery ops, outside every timer.
	ref *speedRef

	// The op stream is cut into stretches of stretchOps ops, over each of
	// which the machine's speed is taken as one number, and into rounds of
	// roundOps ops, at whose ends space is sampled and the hooks run.
	stretches            []stretch
	sStart, sRefNs, sOps int64 // the open stretch: its start, ref.ns then, its ops so far
	roundOps             int
	rounds               []round
	// sampleSpace, when set, reads the store's size and the oracle's live
	// bytes at a round's end; betweenRounds, when set, runs after it.
	sampleSpace   func() (diskBytes, liveBytes float64)
	betweenRounds func()
	measuredOps   int64
	measuredNs    int64
	live          atomic.Int64 // keys this driver's writes left live (served_mixed)

	// lat holds the three timed classes; put and delete share one.
	put, get, scan, rangeDel *latRec

	attempted, failed int64
	firstFailure      string
	userBytes         int64 // keys + values handed to Put, keys handed to Delete
	ops               [numOpKinds]int64
	scanEntries       int64
	scanStepped       int64

	writes  []uint64 // ring of idx<<32|tick
	nWrites int
	gets    []op

	key, val, scratch []byte
	sb                scanBuf
}

func newDriver(st store, g *gen, o *oracle, latCap int) *driver {
	return &driver{
		st: st, g: g, o: o, ref: newSpeedRef(g.r.s),
		put: newLatRec(latCap), get: newLatRec(latCap), scan: newLatRec(latCap / 4), rangeDel: newLatRec(1024),
		writes: make([]uint64, sampleWrites), gets: make([]op, 0, sampleGets),
		key: make([]byte, keyLen), val: make([]byte, o.valLen), scratch: make([]byte, o.valLen),
		roundOps: 1 << 30, rounds: make([]round, 0, 256), stretches: make([]stretch, 0, 4096),
	}
}

// stretchOps is a stretch's length: 40 to 200 ms of any workload, short
// enough to follow the host's mood, long enough for 128 bursts of the
// yardstick and a hundred samples of the rarest timed op.
const stretchOps = 8192

// stretch is one closed stretch of run's op stream: its wall time without
// the yardstick's, and the machine's speed during it as a multiple of the
// reference speed.
type stretch struct {
	ops, wallNs int64
	speed       float64
}

// round is the store's size and the oracle's live bytes at a round's end.
type round struct{ diskBytes, liveBytes float64 }

// resetMeasurement drops what set-up recorded, so the measured phase starts
// clean. keepPuts keeps the preload's put timings (read_settled issues no
// writes of its own).
func (d *driver) resetMeasurement(keepPuts bool) {
	if !keepPuts {
		d.put.reset()
	}
	d.get.reset()
	d.scan.reset()
	d.rangeDel.reset()
	d.gets = d.gets[:0]
	d.attempted, d.failed = 0, 0
	d.ops = [numOpKinds]int64{}
	d.scanEntries, d.scanStepped = 0, 0
	d.rounds, d.stretches = d.rounds[:0], d.stretches[:0]
	d.measuredOps, d.measuredNs = 0, 0
}

func (d *driver) opID() uint32 { return d.conn<<30 | d.seq&(1<<30-1) }

func (d *driver) fail(p op, err error) {
	d.failed++
	if d.firstFailure == "" {
		d.firstFailure = fmt.Sprintf("op %d kind %d idx %d absent %v: err=%v", d.tick, p.kind, p.idx, p.absent, err)
	}
}

// run issues whole rounds until the given time has passed, or exactly nOps
// ops when nOps > 0. The hooks run between rounds, outside the measured
// time: measuredOps and measuredNs cover the rounds only, and neither holds
// the yardstick's time.
func (d *driver) run(seconds float64, nOps int) {
	start := nowNs()
	d.lastEnd = start
	deadline := start + int64(seconds*1e9)
	d.endStretch(false) // what came before run is not run's
	roundBegin, n := 0, 0
	for {
		if nOps > 0 {
			if n >= nOps {
				break
			}
		} else if d.lastEnd >= deadline && n == roundBegin {
			break
		}
		d.step()
		n++
		if d.sOps++; d.sOps == stretchOps {
			d.endStretch(true)
		}
		if n-roundBegin < d.roundOps {
			continue
		}
		d.endStretch(true)
		var r round
		if d.sampleSpace != nil {
			r.diskBytes, r.liveBytes = d.sampleSpace()
		}
		d.rounds = append(d.rounds, r)
		if d.betweenRounds != nil {
			d.betweenRounds()
		}
		d.lastEnd = nowNs()
		d.endStretch(false) // the hooks' samples, at the hooks' speed
		roundBegin = n
	}
	d.endStretch(true)
}

// endStretch closes the stretch of the op stream since the previous call:
// it takes the machine's speed over it, marks the latency samples taken
// meanwhile with that speed and, when the stretch is run's own, counts its
// ops and wall time as measured.
func (d *driver) endStretch(measured bool) {
	speed := d.ref.speed()
	d.put.mark(speed)
	d.get.mark(speed)
	d.scan.mark(speed)
	d.rangeDel.mark(speed)
	if measured && d.sOps > 0 {
		st := stretch{ops: d.sOps, wallNs: d.lastEnd - d.sStart - (d.ref.ns - d.sRefNs), speed: speed}
		d.stretches = append(d.stretches, st)
		d.measuredOps += st.ops
		d.measuredNs += st.wallNs
	}
	d.sStart, d.sRefNs, d.sOps = d.lastEnd, d.ref.ns, 0
}

// rate is ops per second at the reference speed: every stretch's wall time
// is scaled by the machine's speed during that stretch, and the ops of all
// stretches are divided by the sum.
func (d *driver) rate() float64 {
	var ops, ns float64
	for _, st := range d.stretches {
		ops += float64(st.ops)
		ns += float64(st.wallNs) * st.speed
	}
	return ratio(ops, ns/1e9)
}

// speed is the machine's speed over the driver's stretches: their median.
func (d *driver) speed() float64 {
	speeds := make([]float64, len(d.stretches))
	for i, st := range d.stretches {
		speeds[i] = st.speed
	}
	return median(speeds)
}

// step generates, issues, times and checks one op.
func (d *driver) step() {
	d.seq++
	if !d.holdClock {
		d.tick++
		if d.clock != nil {
			d.clock.Advance(1)
		}
	}
	p := d.g.next(d.tick)
	d.attempted++
	d.ops[p.kind]++
	putKey(d.key, p.idx, p.absent)
	var err error
	switch p.kind {
	case opPut:
		fillValue(d.val, p.idx, d.tick)
		t0, id := d.begin(spPut)
		err = d.st.Put(d.key, d.val)
		d.put.add(d.end(spPut, id, t0))
		d.userBytes += int64(keyLen + len(d.val))
		d.noteWrite(p.idx)
		if err == nil {
			if !d.o.live(p.idx) {
				d.live.Add(1)
			}
			d.o.notePut(p.idx, d.tick)
		}
	case opDelete:
		t0, id := d.begin(spDelete)
		err = d.st.Delete(d.key)
		d.put.add(d.end(spDelete, id, t0))
		d.userBytes += keyLen
		d.noteWrite(p.idx)
		if err == nil {
			if d.o.live(p.idx) {
				d.live.Add(-1)
			}
			d.o.noteDelete(p.idx, d.tick)
		}
	case opGet:
		if len(d.gets) < cap(d.gets) {
			d.gets = append(d.gets, p)
		}
		t0, id := d.begin(spGet)
		v, gerr := d.st.Get(d.key)
		d.get.add(d.end(spGet, id, t0))
		if !d.o.checkGet(p, v, gerr, d.scratch) {
			d.fail(p, gerr)
		}
	case opScan:
		d.sb.reset()
		t0, id := d.begin(spScan)
		stepped, serr := d.st.scan(d.key, p.n, &d.sb)
		d.scan.add(d.end(spScan, id, t0))
		d.scanStepped += stepped
		d.scanEntries += int64(d.sb.len())
		err = serr
		if err == nil && !d.o.checkScan(p.idx, p.n, &d.sb, d.g.mod, d.g.res, d.scratch) {
			d.fail(p, nil)
		}
	case opRangeDelete:
		t0, id := d.begin(spRangeDelete)
		err = d.st.DeleteSecondaryRange(p.lo, p.hi)
		d.rangeDel.add(d.end(spRangeDelete, id, t0))
		if err == nil && uint32(p.hi) > d.o.watermark {
			d.o.watermark = uint32(p.hi)
		}
	}
	if err != nil {
		d.fail(p, err)
	}
	if d.seq%refEvery == 0 {
		d.ref.burst()
		d.lastEnd = nowNs()
	}
	if d.maintainEvery > 0 && d.tick%d.maintainEvery == 0 {
		t0, id := d.begin(spMaintenance)
		if err := d.maintain(); err != nil {
			d.fail(op{}, err)
		}
		d.end(spMaintenance, id, t0)
	}
}

// begin reads the clock and, in the traced run, opens the call's span.
func (d *driver) begin(name spanName) (t0 int64, id int32) {
	t0 = nowNs()
	if d.tr == nil || d.tr.concurrent {
		return t0, -1
	}
	return t0, d.tr.begin(name, d.opID(), d.loadgenNs(name, t0), t0)
}

// loadgenNs is the generator's and oracle's time since the previous call
// ended; a maintenance call follows its op at once.
func (d *driver) loadgenNs(name spanName, t0 int64) int64 {
	if name == spMaintenance {
		return 0
	}
	return t0 - d.lastEnd
}

// end reads the clock, closes the span and returns the call's duration.
func (d *driver) end(name spanName, id int32, t0 int64) int64 {
	t1 := nowNs()
	if d.tr != nil {
		if d.tr.concurrent {
			d.tr.add(name, -1, d.opID(), d.loadgenNs(name, t0), t0, t1)
		} else {
			d.tr.end(id, t1)
		}
	}
	d.lastEnd = t1
	return t1 - t0
}

func (d *driver) noteWrite(idx uint32) {
	d.writes[d.nWrites%len(d.writes)] = uint64(idx)<<32 | uint64(d.tick)
	d.nWrites++
}

// sampledWrites returns the ring's contents, oldest first.
func (d *driver) sampledWrites() []uint64 {
	if d.nWrites <= len(d.writes) {
		return d.writes[:d.nWrites]
	}
	at := d.nWrites % len(d.writes)
	return append(append([]uint64(nil), d.writes[at:]...), d.writes[:at]...)
}
