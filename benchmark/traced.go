package main

import (
	"path/filepath"

	"repro/internal/core"
	"repro/internal/sstable"
)

// The traced run produces the per-layer metrics, from outside the program:
// spans around each public call plus the span-recording vfs.FS wrapper,
// counter deltas read through public accessors, and layer probes. It first
// runs the same workload untraced for half the time, so the tracing overhead
// is a measured number.

// overheadPct compares the untraced reference's throughput with the traced
// run's.
func overheadPct(ref, traced measurement) float64 {
	return (ratio(ref.rate, traced.rate) - 1) * 100
}

// tailLatencies reads the 99th percentiles, at the reference speed, off the
// untraced reference phase.
func tailLatencies(L map[string]float64, put, get, scan *latRec) {
	_, L["put_p99_us"] = put.summary()
	_, L["get_p99_us"] = get.summary()
	_, L["scan_p99_us"] = scan.summary()
}

// rangeDeleteFloor times a few range deletes that cover nothing ([0, 1):
// ticks start at 1) on a workload that issued none, so that
// core.range_delete_p50_us reads the commit path's floor instead of nothing.
func rangeDeleteFloor(d *driver) error {
	if len(d.rangeDel.ns) > 0 {
		return nil
	}
	for i := 0; i < 5; i++ {
		t0, id := d.begin(spRangeDelete)
		err := d.st.DeleteSecondaryRange(0, 1)
		d.rangeDel.add(d.end(spRangeDelete, id, t0))
		if err != nil {
			return err
		}
	}
	return nil
}

// liveRangeTombstones counts the distinct range tombstones in the live
// tables.
func liveRangeTombstones(readers []*sstable.Reader) float64 {
	seen := map[uint64]bool{}
	for _, r := range readers {
		for _, rt := range r.RangeTombstones() {
			seen[uint64(rt.Seq)] = true
		}
	}
	return float64(len(seen))
}

// traceTail is everything the traced run does after its measured phase; the
// embedded workloads and served_mixed share it.
type traceTail struct {
	sp      spec
	cfg     config
	tr      *tracer
	m, ref  measurement
	totals  runTotals // the drivers' counts over the measured phase
	drivers []*driver
	dbs     []*core.DB
	dirs    []string // engine directories holding the live tables
	dptNs   float64
	probe   probeInput
	// nowTick (the measured phase's last tick, when maintenance last ran)
	// and dptTicks date deletes for the erasure audit; zero skips it
	// (served_mixed dates its deletes on the wall clock).
	nowTick  uint32
	dptTicks int64
}

func (t traceTail) run(L map[string]float64) error {
	t.drivers[0].lastEnd = nowNs()
	counterLayers(L, t.m, t.totals, t.dbs, t.dptNs)
	if err := rangeDeleteFloor(t.drivers[0]); err != nil {
		return err
	}
	t.tr.freeze()
	spanLayers(L, t.tr, t.m, t.totals)
	p50, _ := t.drivers[0].rangeDel.exact()
	L["core.range_delete_p50_us"] = p50
	L["trace.overhead_pct"] = overheadPct(t.ref, t.m)
	L["machine.speed"] = t.m.speed

	readers, err := openTables(t.probe.mem, t.dirs)
	if err != nil {
		return err
	}
	defer closeTables(readers)
	L["core.range_tombstones_live_end"] = liveRangeTombstones(readers)
	if t.dptTicks > 0 {
		auditErasure(L, readers, t.drivers[0].o, t.nowTick, t.dptTicks)
	}
	if err := runProbes(L, t.probe, readers); err != nil {
		return err
	}
	if err := altitudeReplay(L, t.sp, t.cfg); err != nil {
		return err
	}
	if t.cfg.traceOut != "" {
		counters := map[string]float64{}
		for c, name := range counterNames {
			counters["before."+name] = t.m.before[c]
			counters["after."+name] = t.m.after[c]
		}
		return writeTrace(t.cfg.traceOut, t.tr.spans, counters)
	}
	return nil
}

func runEmbeddedTraced(sp spec, cfg config, res *result) error {
	ref, err := openEmbedded(sp, cfg, nil)
	if err != nil {
		return err
	}
	refM := ref.measure(cfg.seconds/2, (cfg.ops+1)/2)
	tailLatencies(res.Metrics, ref.d.put, ref.d.get, ref.d.scan)
	if err := ref.db.Close(); err != nil {
		return err
	}

	tr := newTracer(false, min(1<<22, 8*latCapacity(cfg, sp)))
	e, err := openEmbedded(sp, cfg, tr)
	if err != nil {
		return err
	}
	m := e.measure(cfg.seconds, cfg.ops)
	tr.setPhase(phaseReadback) // what follows is not the measured phase's
	d := e.d
	measuredEnd := d.tick
	totals := totalsOf([]*driver{d})
	verifyAll(d.st, d)
	tail := traceTail{
		sp: sp, cfg: cfg, tr: tr, m: m, ref: refM,
		drivers: []*driver{d}, dbs: []*core.DB{e.db}, dirs: []string{"bench-db"},
		totals:  totals,
		dptNs:   float64(sp.dpt), // logical clock: one tick per op
		nowTick: measuredEnd, dptTicks: sp.dpt,
		probe: probeInput{mem: e.mem, writes: d.sampledWrites(), gets: d.gets, valLen: sp.valLen, kiwi: sp.kiwi, engine: d.st},
	}
	err = tail.run(res.Metrics)
	res.finish(d)
	if cerr := e.db.Close(); err == nil {
		err = cerr
	}
	return err
}

func runServedTraced(sp spec, cfg config, res *result) error {
	halved := cfg
	halved.seconds, halved.ops = cfg.seconds/2, (cfg.ops+1)/2
	ref, err := openServed(sp, cfg, nil)
	if err != nil {
		return err
	}
	refM := ref.measure(halved, nil)
	tailLatencies(res.Metrics,
		ref.merged(func(d *driver) *latRec { return d.put }),
		ref.merged(func(d *driver) *latRec { return d.get }),
		ref.merged(func(d *driver) *latRec { return d.scan }))
	if err := ref.close(); err != nil {
		return err
	}

	tr := newTracer(true, min(1<<22, 8*latCapacity(cfg, sp)))
	s, err := openServed(sp, cfg, tr)
	if err != nil {
		return err
	}
	m := s.measure(cfg, tr)
	tr.setPhase(phaseReadback) // what follows is not the measured phase's
	totals := totalsOf(s.drivers[:])
	d := s.drivers[0]
	verifyAll(d.st, d)
	var writes []uint64
	var gets []op
	for _, sd := range s.drivers {
		writes = append(writes, sd.sampledWrites()...)
		gets = append(gets, sd.gets...)
	}
	var dirs []string
	for i := 0; i < s.r.NumShards(); i++ {
		dirs = append(dirs, filepath.Join("bench-db", shardDir(i)))
	}
	tail := traceTail{
		sp: sp, cfg: cfg, tr: tr, m: m, ref: refM,
		drivers: s.drivers[:], dbs: s.dbs(), dirs: dirs,
		totals: totals,
		dptNs:  float64(servedDPT),
		probe:  probeInput{mem: s.mem, writes: writes, gets: gets, valLen: sp.valLen, engine: routerStore{s.r}},
	}
	err = tail.run(res.Metrics)
	res.finish(s.drivers[:]...)
	if cerr := s.close(); err == nil {
		err = cerr
	}
	return err
}
