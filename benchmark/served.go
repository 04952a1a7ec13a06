package main

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/base"
	"repro/internal/client"
	"repro/internal/compaction"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/vfs"
)

const (
	servedConns  = 2
	servedShards = 2
	servedDPT    = 2 * time.Second
	opTimeout    = 2 * time.Second
)

// servedOptions is acherond's configuration (-shards 2 -sync -dpt 2s
// -op-timeout 2s): wall clock, auto maintenance, admission off.
func servedOptions(sp spec, fs vfs.FS, shards int) core.Options {
	opts := core.Options{
		FS: fs, Shards: shards,
		SyncWrites:    true,
		DeleteKeyFunc: deleteKeyOf,
		Compaction:    compaction.Options{Picker: compaction.PickFADE, DPT: base.Duration(servedDPT)},
	}
	sp.applyGeometry(&opts)
	return opts
}

// served is acherond in-process with two client connections. Each
// connection owns the key indices of one residue class, so its oracle is
// exact although the store is shared.
type served struct {
	sp      spec
	mem     *vfs.MemFS
	r       *shard.Router
	srv     *server.Server
	clients [servedConns]*client.Client
	drivers [servedConns]*driver
	// preloadRef is the yardstick of the preload, which no driver issues.
	preloadRef   *speedRef
	preloadSpeed float64
}

// refNs is the wall time the yardstick took: the preload's, then the
// connections' side by side.
func (s *served) refNs() int64 {
	ns := s.preloadRef.ns
	for _, d := range s.drivers {
		ns += d.ref.ns / servedConns
	}
	return ns
}

// setupSpeed is the machine's speed over the set-up: the median of what the
// preload and each connection's warm-up read.
func (s *served) setupSpeed() float64 {
	speeds := []float64{s.preloadSpeed}
	for _, d := range s.drivers {
		speeds = append(speeds, d.speed())
	}
	return median(speeds)
}

func (s *served) dbs() []*core.DB {
	out := make([]*core.DB, s.r.NumShards())
	for i := range out {
		out[i] = s.r.Shard(i)
	}
	return out
}

func (s *served) close() error {
	var errs []error
	for _, c := range s.clients {
		if c != nil {
			errs = append(errs, c.Close())
		}
	}
	if s.srv != nil {
		errs = append(errs, s.srv.Close())
	}
	errs = append(errs, s.r.Close())
	return errors.Join(errs...)
}

func openServed(sp spec, cfg config, tr *tracer) (_ *served, err error) {
	mem := vfs.NewMemFS()
	var fs vfs.FS = mem
	if tr != nil {
		fs = traceFS{FS: mem, t: tr}
	}
	r, err := shard.Open("bench-db", servedOptions(sp, fs, servedShards))
	if err != nil {
		return nil, err
	}
	s := &served{sp: sp, mem: mem, r: r, preloadRef: newSpeedRef(cfg.seed)}
	defer func() {
		if err != nil {
			err = errors.Join(err, s.close())
		}
	}()

	// Preload two thirds of the keys, the live share the mix settles at
	// (inserts 10 %, deletes 5 %, both uniform), through Router.Apply.
	o := newOracle(sp.keys, sp.valLen)
	pick := rng{s: cfg.seed ^ 0x5e4ed}
	key, val := make([]byte, keyLen), make([]byte, sp.valLen)
	b := core.NewBatch()
	var preloaded int64
	for idx := uint32(0); int(idx) < sp.keys; idx++ {
		if pick.intn(3) < 2 {
			putKey(key, idx, false)
			fillValue(val, idx, 1)
			b.Put(key, val)
			o.notePut(idx, 1)
			preloaded++
		}
		if b.Len() == 256 || int(idx) == sp.keys-1 {
			if err := r.Apply(b); err != nil {
				return nil, err
			}
			b.Reset()
			s.preloadRef.burst()
		}
	}
	s.preloadSpeed = s.preloadRef.speed()

	s.srv = server.New(r, server.Config{OpTimeout: opTimeout})
	addr, err := s.srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	for c := range s.clients {
		if s.clients[c], err = client.Dial(addr); err != nil {
			return nil, err
		}
		g := newGen(cfg.seed*servedConns+uint64(c), sp.keys/servedConns, sp.mix, sp.scanLen)
		g.mod, g.res = servedConns, uint32(c)
		d := newDriver(clientStore{s.clients[c]}, g, o, latCapacity(cfg, sp)/servedConns)
		d.tr, d.conn = tr, uint32(c)
		s.drivers[c] = d
	}
	s.drivers[0].userBytes = preloaded * int64(keyLen+sp.valLen)
	s.drivers[0].live.Store(preloaded)
	s.each(func(d *driver) { d.run(0, sp.warmOps/servedConns) })
	for _, d := range s.drivers {
		if d.failed > 0 {
			return nil, fmt.Errorf("set-up: %d of %d ops failed: %s", d.failed, d.attempted, d.firstFailure)
		}
	}
	return s, nil
}

// each runs fn once per connection, concurrently, and waits.
func (s *served) each(fn func(d *driver)) {
	var wg sync.WaitGroup
	for _, d := range s.drivers {
		wg.Add(1)
		go func(d *driver) {
			defer wg.Done()
			fn(d)
		}(d)
	}
	wg.Wait()
}

func (s *served) measure(cfg config, tr *tracer) measurement {
	for _, d := range s.drivers {
		d.resetMeasurement(false)
		d.roundOps = s.sp.roundOps
	}
	// Connection 0 samples space for both: the live-key counts are the
	// drivers' own, kept as their writes succeed.
	s.drivers[0].sampleSpace = func() (float64, float64) {
		var live int64
		for _, d := range s.drivers {
			live += d.live.Load()
		}
		return float64(s.r.DiskSize()), float64(live * int64(keyLen+s.sp.valLen))
	}
	tr.setPhase(phaseMeasured)
	return measure(s.dbs(), s.mem, s.drivers[:], &memUse{}, func() (int64, int64) {
		start, ref0 := nowNs(), s.refNs()
		if tr != nil {
			tr.openBackground(start)
		}
		s.each(func(d *driver) { d.run(cfg.seconds, cfg.ops/servedConns) })
		end := nowNs()
		if tr != nil {
			tr.closeBackground(end)
		}
		var ops int64
		for _, d := range s.drivers {
			ops += d.measuredOps
		}
		return ops, end - start - (s.refNs() - ref0)
	})
}

// merged concatenates the connections' samples of one timed class.
func (s *served) merged(class func(d *driver) *latRec) *latRec {
	out := &latRec{}
	for _, d := range s.drivers {
		out.appendRec(class(d))
	}
	return out
}

func runServed(sp spec, cfg config) (*result, error) {
	res := newResult(cfg)
	if cfg.trace {
		return res, runServedTraced(sp, cfg, res)
	}
	var s *served
	setups, err := timedSetups(cfg.setups, func() (int64, float64, error) {
		var err error
		if s, err = openServed(sp, cfg, nil); err != nil {
			return 0, 0, err
		}
		return s.refNs(), s.setupSpeed(), nil
	}, func() error { return s.close() })
	if err != nil {
		return nil, err
	}
	m := s.measure(cfg, nil)
	pmax := persistMax(s.dbs()) / float64(servedDPT)
	verifyAll(s.drivers[0].st, s.drivers[0])
	endToEnd(res, m, setups,
		s.merged(func(d *driver) *latRec { return d.put }),
		s.merged(func(d *driver) *latRec { return d.get }),
		s.merged(func(d *driver) *latRec { return d.scan }), pmax)
	res.finish(s.drivers[:]...)
	return res, s.close()
}
