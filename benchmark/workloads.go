package main

import (
	"fmt"
	"math"
	"runtime"

	"repro/internal/base"
	"repro/internal/compaction"
	"repro/internal/core"
	"repro/internal/vfs"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64 // length of the measured phase ...
	ops      int     // ... or, when positive, its exact op count
	// scale shrinks key spaces, preloads and deadlines and setups is the
	// number of set-up repetitions (setup_s is their median). Neither is a
	// flag: main fixes them at 1 and 3, the smoke test runs at 1/200 and 1.
	scale    float64
	trace    bool
	traceOut string
	setups   int
}

// spec fixes a workload: sizes, engine configuration and op mixes. Names are
// cited by later issues and never change.
type spec struct {
	name   string
	keys   int
	valLen int
	// dpt is the delete persistence threshold in logical ticks (one tick
	// per op); served_mixed uses the wall clock instead.
	dpt  int64
	kiwi bool

	preloadOps int
	preloadMix mix
	settle     bool // flush and age every tombstone out before measuring
	warmOps    int  // measured-mix ops issued before measuring (caches, lazy views)

	mix     mix
	scanLen int
	// kiwi_retention: retained window and range-delete period, in ticks.
	window, rangeEvery uint32
	// A write-only workload reads its tree back between rounds, outside the
	// measured time: readbackOps timed lookups and scans after every round.
	// It is how the writes are verified and where the workload's get and
	// scan latencies come from, sampled across the tree states of the run.
	readbackOps int
	readbackMix mix
	manual      bool // WaitIdle every 64 ops during the measured phase
	roundOps    int  // ops per round of the measured phase (per connection)

	// Tree geometry: the engine's defaults at scale 1 (kiwi_retention
	// excepted), shrunk with the data so a scaled-down run keeps its levels
	// and its cache-to-data ratio.
	memTableBytes, baseLevelBytes, targetFileBytes, blockCacheBytes int
}

var workloadNames = []string{"ingest_delete", "read_settled", "kiwi_retention", "served_mixed"}

func specFor(name string, scale float64) (spec, error) {
	n := func(v int) int { return int(math.Max(1, math.Round(float64(v)*scale))) }
	sp, err := workloadSpec(name, scale, n)
	if err != nil {
		return sp, err
	}
	sp.memTableBytes, sp.baseLevelBytes, sp.targetFileBytes = n(4<<20), n(8<<20), n(2<<20)
	sp.blockCacheBytes = n(8 << 20)
	if sp.kiwi {
		// The retained window must span several levels for range
		// tombstones to reach tables and page drops to matter, so memtable
		// and L1 are sized to the window, not to the defaults. Files keep
		// the default size: with many small files in the last level a range
		// tombstone outlives tens of DPTs, the live count (and with it the
		// cost of every Get) saws over periods longer than a run, and no
		// two seeds measure the same thing.
		sp.memTableBytes, sp.baseLevelBytes = n(128<<10), n(512<<10)
	}
	return sp, nil
}

func workloadSpec(name string, scale float64, n func(int) int) (spec, error) {
	switch name {
	case "ingest_delete":
		m := mix{insert: 600, update: 300, del: 100}
		return spec{
			name: name, keys: n(200_000), valLen: 128, dpt: int64(n(100_000)),
			// Preloading 1.5 ops per key with the measured mix brings the
			// key space to the live share the mix settles at (6/7).
			preloadOps: n(300_000), preloadMix: m,
			mix: m, scanLen: 100, roundOps: n(50_000),
			readbackOps: n(5_000), readbackMix: mix{getHit: 560, getAbsent: 140, scan: 300},
			manual: true,
		}, nil
	case "read_settled":
		return spec{
			name: name, keys: n(300_000), valLen: 128, dpt: int64(n(250_000)),
			preloadOps: n(450_000), preloadMix: mix{insert: 700, update: 200, del: 100},
			settle: true, warmOps: n(50_000),
			mix: mix{getHit: 760, getAbsent: 190, scan: 50}, scanLen: 100, roundOps: n(100_000),
		}, nil
	case "kiwi_retention":
		window := uint32(n(50_000))
		m := mix{insert: 600, del: 80, getHit: 300, scan: 20}
		return spec{
			name: name, keys: n(100_000), valLen: 64, dpt: int64(window / 2), kiwi: true,
			preloadOps: 3 * int(window), preloadMix: m,
			mix: m, scanLen: 50, roundOps: n(25_000),
			window: window, rangeEvery: uint32(math.Max(10, 200*scale)),
			manual: true,
		}, nil
	case "served_mixed":
		return spec{
			name: name, keys: n(100_000), valLen: 128,
			// 10 % scans: a version install costs the next scan on each shard
			// a view rebuild (milliseconds), about one scan in 300 at this
			// rate. At 5 % scans that share sat right at 1 % and scan_p99_us
			// flipped between the two regimes from run to run.
			mix:     mix{insert: 100, update: 300, del: 50, getHit: 400, getAbsent: 50, scan: 100},
			scanLen: 20, warmOps: n(20_000), roundOps: n(16_000),
		}, nil
	}
	return spec{}, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// engineOptions is the embedded workloads' engine configuration: leveled +
// FADE on a logical clock, manual maintenance, WAL on with sync on rotation.
func (sp spec) engineOptions(fs vfs.FS, clock base.Clock) core.Options {
	opts := core.Options{
		FS: fs, Clock: clock,
		DisableAutoMaintenance: true,
		DeleteKeyFunc:          deleteKeyOf,
		Compaction: compaction.Options{
			Policy: compaction.PolicyLeveled,
			Picker: compaction.PickFADE,
			DPT:    base.Duration(sp.dpt),
		},
	}
	sp.applyGeometry(&opts)
	if sp.kiwi {
		opts.PagesPerTile = 4
	}
	return opts
}

func (sp spec) applyGeometry(opts *core.Options) {
	opts.MemTableBytes = int64(sp.memTableBytes)
	opts.BlockCacheBytes = int64(sp.blockCacheBytes)
	opts.Compaction.BaseLevelBytes = uint64(sp.baseLevelBytes)
	opts.Compaction.TargetFileBytes = uint64(sp.targetFileBytes)
}

// embedded is one open store of an embedded workload with its driver.
type embedded struct {
	sp  spec
	mem *vfs.MemFS
	db  *core.DB
	d   *driver
}

// latCapacity sizes the latency slices before the measured phase.
func latCapacity(cfg config, sp spec) int {
	if cfg.ops > 0 {
		return cfg.ops + sp.preloadOps + sp.warmOps
	}
	return int(cfg.seconds*500_000) + sp.preloadOps + sp.warmOps
}

// openEmbedded is the set-up every run repeats and reports as setup_s: open,
// preload, settle, warm.
func openEmbedded(sp spec, cfg config, tr *tracer) (*embedded, error) {
	mem := vfs.NewMemFS()
	var fs vfs.FS = mem
	if tr != nil {
		fs = traceFS{FS: mem, t: tr}
	}
	clock := &base.LogicalClock{}
	db, err := core.Open("bench-db", sp.engineOptions(fs, clock))
	if err != nil {
		return nil, err
	}
	g := newGen(cfg.seed, sp.keys, sp.preloadMix, sp.scanLen)
	if sp.window > 0 {
		g.recent = make([]uint32, 32768)
		g.window, g.rangeEvery = sp.window, sp.rangeEvery
	}
	d := newDriver(dbStore{db}, g, newOracle(sp.keys, sp.valLen), latCapacity(cfg, sp))
	d.clock, d.tr = clock, tr
	d.maintain, d.maintainEvery = db.WaitIdle, 64
	e := &embedded{sp: sp, mem: mem, db: db, d: d}

	d.run(0, sp.preloadOps)
	if err := db.WaitIdle(); err != nil {
		return nil, e.closeWith(err)
	}
	if sp.settle {
		if err := db.Flush(); err != nil {
			return nil, e.closeWith(err)
		}
		// Small steps: a tombstone is disposed of at most one step late.
		for i := 0; i < 200; i++ {
			clock.Advance(base.Duration(sp.dpt/100 + 1))
			if err := db.WaitIdle(); err != nil {
				return nil, e.closeWith(err)
			}
		}
	}
	g.mix = sp.mix
	if !sp.manual {
		d.maintainEvery = 0
	}
	if sp.warmOps > 0 {
		d.run(0, sp.warmOps)
	}
	if d.failed > 0 {
		return nil, e.closeWith(fmt.Errorf("set-up: %d of %d ops failed: %s", d.failed, d.attempted, d.firstFailure))
	}
	return e, nil
}

func (e *embedded) closeWith(err error) error {
	if cerr := e.db.Close(); err == nil {
		err = cerr
	}
	return err
}

// measurement is what one measured phase leaves behind.
type measurement struct {
	ops, wallNs    int64
	before, after  snapshot // cumulative engine counters at its edges
	userBytes      int64    // handed to the store during the phase
	mem            memUse   // allocator and collector, over the rounds only
	userBytesTotal int64    // since the store was opened
	rate           float64  // ops per second at the reference speed
	speed          float64  // the machine's speed as a multiple of the reference speed
	spaceAmp       float64
}

// memUse is the allocator's and the collector's cumulative work.
type memUse struct {
	allocBytes uint64
	gcCycles   uint32
	gcPauseNs  uint64
}

func readMemUse() memUse {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memUse{ms.TotalAlloc, ms.NumGC, ms.PauseTotalNs}
}

func (a memUse) sub(b memUse) memUse {
	return memUse{a.allocBytes - b.allocBytes, a.gcCycles - b.gcCycles, a.gcPauseNs - b.gcPauseNs}
}

func (a memUse) add(b memUse) memUse {
	return memUse{a.allocBytes + b.allocBytes, a.gcCycles + b.gcCycles, a.gcPauseNs + b.gcPauseNs}
}

// measure runs a phase between two counter and allocator snapshots.
// betweenRounds is what the hooks between the rounds allocated and collected
// by the time run returns: it is not the measured ops' and is taken out.
func measure(dbs []*core.DB, mem *vfs.MemFS, drivers []*driver, betweenRounds *memUse, run func() (ops, wallNs int64)) measurement {
	var m measurement
	var ub0 int64
	for _, d := range drivers {
		ub0 += d.userBytes
	}
	m.before = takeSnapshot(dbs, mem)
	ms0 := readMemUse()
	m.ops, m.wallNs = run()
	m.mem = readMemUse().sub(ms0).sub(*betweenRounds)
	m.after = takeSnapshot(dbs, mem)
	for _, d := range drivers {
		m.userBytesTotal += d.userBytes
	}
	m.userBytes = m.userBytesTotal - ub0
	// Throughput is the sum over connections of each one's rate. Space is
	// the mean over round ends of disk bytes per live byte: disk size moves
	// in whole files, so its samples are few-valued and a median would flip
	// between them.
	var amps, speeds []float64
	for _, d := range drivers {
		m.rate += d.rate()
		speeds = append(speeds, d.speed())
		for _, r := range d.rounds {
			if r.liveBytes > 0 {
				amps = append(amps, r.diskBytes/r.liveBytes)
			}
		}
	}
	if len(amps) == 0 { // shorter than one round: the end state
		var disk uint64
		for _, db := range dbs {
			disk += db.DiskSize()
		}
		amps = append(amps, ratio(float64(disk), float64(drivers[0].o.liveBytes())))
	}
	m.spaceAmp = mean(amps)
	m.speed = mean(speeds)
	return m
}

// readOnly reports whether the measured mix issues no writes: the workload's
// put timings are then its preloads'.
func (sp spec) readOnly() bool { return sp.mix.insert+sp.mix.update+sp.mix.del == 0 }

func (e *embedded) measure(seconds float64, ops int) measurement {
	e.d.resetMeasurement(e.sp.readOnly())
	e.d.tr.setPhase(phaseMeasured)
	e.d.roundOps = e.sp.roundOps
	e.d.sampleSpace = func() (float64, float64) { return float64(e.db.DiskSize()), float64(e.d.o.liveBytes()) }
	var readbackMem memUse
	if e.sp.readbackOps > 0 {
		e.d.betweenRounds = func() {
			m0 := readMemUse()
			e.readback()
			readbackMem = readbackMem.add(readMemUse().sub(m0))
		}
	}
	defer func() { e.d.roundOps, e.d.sampleSpace, e.d.betweenRounds = 1<<30, nil, nil }()
	return measure([]*core.DB{e.db}, e.mem, []*driver{e.d}, &readbackMem, func() (int64, int64) {
		e.d.run(seconds, ops)
		return e.d.measuredOps, e.d.measuredNs
	})
}

// readback is a write-only workload's slice of reads between two rounds.
func (e *embedded) readback() {
	d := e.d
	mix, every := d.g.mix, d.maintainEvery
	d.g.mix, d.maintainEvery, d.holdClock = e.sp.readbackMix, 0, true
	d.tr.setPhase(phaseReadback)
	for i := 0; i < e.sp.readbackOps; i++ {
		d.step()
	}
	d.tr.setPhase(phaseMeasured)
	d.g.mix, d.maintainEvery, d.holdClock = mix, every, false
}

// verifyAll pages through the whole store and checks it against the oracle:
// every live key present with its exact value, nothing else. Each page
// counts as one attempted check.
func verifyAll(st store, d *driver) {
	const page = 2048
	start := uint32(0)
	for {
		d.sb.reset()
		putKey(d.key, start, false)
		d.attempted++
		_, err := st.scan(d.key, page, &d.sb)
		if err != nil || !d.o.checkScan(start, page, &d.sb, 1, 0, d.scratch) {
			d.fail(op{kind: opScan, idx: start}, err)
			return
		}
		if d.sb.len() < page {
			return
		}
		last, _ := d.sb.entry(d.sb.len() - 1)
		idx, _ := parseKey(last)
		start = idx + 1
	}
}

// endToEnd assembles the end-to-end metrics every workload reports. Times
// are at the reference speed (speedref.go); the same numbers as the clock
// read them go into res.AsMeasured. The 99th percentiles are printed with
// them and belong to the per-layer list (names.go says why). The
// amplification and deadline numbers cover the store's whole life, set-up
// included, so they are defined on the read-only workload too.
func endToEnd(res *result, m measurement, setups []setupTime, put, get, scan *latRec, persistMaxOverDPT float64) {
	atRef, asMeasured := make([]float64, len(setups)), make([]float64, len(setups))
	for i, s := range setups {
		atRef[i], asMeasured[i] = s.seconds*s.speed, s.seconds
	}
	res.Metrics["setup_s"] = median(atRef)
	res.Metrics["ops_per_s"] = m.rate
	res.Metrics["put_p50_us"], res.Unbounded["put_p99_us"] = put.summary()
	res.Metrics["get_p50_us"], res.Unbounded["get_p99_us"] = get.summary()
	res.Metrics["scan_p50_us"], res.Unbounded["scan_p99_us"] = scan.summary()
	res.Metrics["write_amp"] = ratio(m.after[cFlushed]+m.after[cCompactWritten], float64(m.userBytesTotal))
	res.Metrics["space_amp"] = m.spaceAmp
	res.Metrics["persist_max_over_dpt"] = persistMaxOverDPT
	res.Metrics["alloc_bytes_per_op"] = ratio(float64(m.mem.allocBytes), float64(m.ops))

	res.Speed = m.speed
	res.AsMeasured["setup_s"] = median(asMeasured)
	res.AsMeasured["ops_per_s"] = ratio(float64(m.ops), float64(m.wallNs)/1e9)
	res.AsMeasured["put_p50_us"], res.AsMeasured["put_p99_us"] = put.exact()
	res.AsMeasured["get_p50_us"], res.AsMeasured["get_p99_us"] = get.exact()
	res.AsMeasured["scan_p50_us"], res.AsMeasured["scan_p99_us"] = scan.exact()
	res.Samples["put"], res.Samples["get"], res.Samples["scan"] = len(put.ns), len(get.ns), len(scan.ns)
}

// setupTime is one set-up: its wall time without the yardstick's, and the
// machine's speed while it ran.
type setupTime struct{ seconds, speed float64 }

// timedSetups opens the store n times, closing every one but the last. open
// returns the time the set-up spent in the yardstick and the speed it read.
func timedSetups(n int, open func() (refNs int64, speed float64, err error), closeStore func() error) ([]setupTime, error) {
	var setups []setupTime
	for i := 0; i < n; i++ {
		if i > 0 {
			if err := closeStore(); err != nil {
				return nil, err
			}
		}
		runtime.GC() // every repetition starts from the same heap
		t0 := nowNs()
		refNs, speed, err := open()
		if err != nil {
			return nil, err
		}
		setups = append(setups, setupTime{float64(nowNs()-t0-refNs) / 1e9, speed})
	}
	return setups, nil
}

// runEmbedded runs one of the three single-goroutine workloads.
func runEmbedded(sp spec, cfg config) (*result, error) {
	res := newResult(cfg)
	if cfg.trace {
		return res, runEmbeddedTraced(sp, cfg, res)
	}
	var e *embedded
	var preloadPuts latRec // of every set-up, when they are the workload's put timings
	setups, err := timedSetups(cfg.setups, func() (int64, float64, error) {
		var err error
		if e, err = openEmbedded(sp, cfg, nil); err != nil {
			return 0, 0, err
		}
		return e.d.ref.ns, e.d.speed(), nil
	}, func() error {
		if sp.readOnly() {
			preloadPuts.appendRec(e.d.put)
		}
		return e.db.Close()
	})
	if err != nil {
		return nil, err
	}
	if sp.readOnly() {
		preloadPuts.appendRec(e.d.put)
		e.d.put = &preloadPuts
	}
	m := e.measure(cfg.seconds, cfg.ops)
	pmax := persistMax([]*core.DB{e.db}) / float64(sp.dpt)
	verifyAll(e.d.st, e.d)
	endToEnd(res, m, setups, e.d.put, e.d.get, e.d.scan, pmax)
	res.finish(e.d)
	return res, e.db.Close()
}
