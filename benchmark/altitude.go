package main

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/vfs"
)

// The altitude replay prices the wrappers around the engine by subtraction:
// the workload's own seeded op stream is issued three more times, each
// against a fresh store in acherond's configuration, through a client
// connection, through the shard.Router directly and through a 1-shard
// core.DB directly. server_wire.overhead_us_per_op is client − router,
// shard.overhead_us_per_op is router − core, and client.Ping is the floor of
// an empty request.

const (
	altitudePreloadOps = 15_000
	altitudeOps        = 30_000
	altitudePings      = 2_000
)

// shardDir is where shard i of a sharded store keeps its engine.
func shardDir(i int) string { return fmt.Sprintf("shard-%03d", i) }

// replayMeanUs preloads a fresh store through st and returns the mean
// latency of the workload's mix on it, in microseconds.
func replayMeanUs(sp spec, cfg config, st store) (float64, error) {
	preload := max(1, int(float64(altitudePreloadOps)*cfg.scale))
	ops := max(1, int(float64(altitudeOps)*cfg.scale))
	g := newGen(cfg.seed, sp.keys, mix{insert: 1000}, sp.scanLen)
	d := newDriver(st, g, newOracle(sp.keys, sp.valLen), preload+ops)
	d.run(0, preload)
	d.resetMeasurement(false)
	g.mix = sp.mix
	d.run(0, ops)
	if d.failed > 0 {
		return 0, fmt.Errorf("altitude replay: %d of %d ops failed: %s", d.failed, d.attempted, d.firstFailure)
	}
	var ns float64
	for _, rec := range []*latRec{d.put, d.get, d.scan} {
		for _, v := range rec.ns {
			ns += float64(v)
		}
	}
	return ns / float64(ops) / 1e3, nil
}

func altitudeReplay(L map[string]float64, sp spec, cfg config) (err error) {
	// core.DB directly, one shard.
	db, err := core.Open("core-db", servedOptions(sp, vfs.NewMemFS(), 0))
	if err != nil {
		return err
	}
	coreUs, err := replayMeanUs(sp, cfg, dbStore{db})
	if cerr := db.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}

	// shard.Router directly.
	r, err := shard.Open("router-db", servedOptions(sp, vfs.NewMemFS(), servedShards))
	if err != nil {
		return err
	}
	routerUs, err := replayMeanUs(sp, cfg, routerStore{r})
	if err == nil {
		key := make([]byte, keyLen)
		const routes = 200_000
		L["shard.route_ns"] = timePer(routes, func() {
			for i := uint32(0); i < routes; i++ {
				putKey(key, i, false)
				r.ShardFor(key)
			}
		})
	}
	if cerr := r.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}

	// A client connection to a server in front of a fresh router.
	r, err = shard.Open("served-db", servedOptions(sp, vfs.NewMemFS(), servedShards))
	if err != nil {
		return err
	}
	srv := server.New(r, server.Config{OpTimeout: opTimeout})
	defer func() { err = errors.Join(err, srv.Close(), r.Close()) }()
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return err
	}
	c, err := client.Dial(addr)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, c.Close()) }()
	clientUs, err := replayMeanUs(sp, cfg, clientStore{c})
	if err != nil {
		return err
	}
	pings := make([]uint32, 0, altitudePings)
	for i := 0; i < altitudePings; i++ {
		t0 := nowNs()
		if err := c.Ping(); err != nil {
			return err
		}
		pings = append(pings, uint32(nowNs()-t0))
	}
	slices.Sort(pings)
	L["client.ping_p50_us"] = float64(percentile(pings, 0.5)) / 1e3
	L["server_wire.overhead_us_per_op"] = clientUs - routerUs
	L["shard.overhead_us_per_op"] = routerUs - coreUs
	return nil
}
