// Command acherond serves an Acheron store over TCP: a sharded engine
// behind the length-prefixed binary protocol of internal/wire, one
// goroutine per connection, every request bounded by an op deadline. The
// interactive shell (cmd/acheron -connect) and the benchmark's served_mixed
// workload speak to it through internal/client.
//
// Usage:
//
//	acherond -dir /var/lib/acheron -shards 4 [-addr 127.0.0.1:4600]
//	         [-dpt 1h] [-policy leveled|size-tiered|lazy-leveling] [-kiwi]
//	         [-op-timeout 2s] [-write-rate 100000] [-metrics-addr 127.0.0.1:0]
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/admission"
	"repro/internal/base"
	"repro/internal/compaction"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/shard"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:4600", "listen address")
	dir := flag.String("dir", "acheron-data", "store directory")
	shards := flag.Int("shards", 0, "shard count for a new store (0: adopt existing, else 1)")
	dpt := flag.Duration("dpt", 0, "delete persistence threshold (0 disables FADE)")
	policyName := flag.String("policy", "", "compaction policy: leveled, size-tiered, or lazy-leveling")
	kiwi := flag.Bool("kiwi", false, "use the KiWi key-weaving layout (4 pages/tile)")
	eager := flag.Bool("eager", false, "apply secondary range deletes eagerly")
	opTimeout := flag.Duration("op-timeout", 0, "per-request deadline; stalled or queued ops fail instead of blocking (0 disables)")
	writeRate := flag.Float64("write-rate", 0, "admitted write rate in ops/s PER SHARD via token-bucket admission control (0 disables)")
	syncWrites := flag.Bool("sync", false, "fsync the WAL before acknowledging every commit")
	metricsAddr := flag.String("metrics-addr", "", "HTTP address for shard-labeled /metrics and /vars (empty disables)")
	flag.Parse()

	opts := core.Options{
		Shards:     *shards,
		SyncWrites: *syncWrites,
		// A shard that goes read-only must say so somewhere an operator
		// reads, not only on the read_only gauge.
		Logger: log.Printf,
		DeleteKeyFunc: func(v []byte) base.DeleteKey {
			if len(v) < 8 {
				return 0
			}
			return binary.BigEndian.Uint64(v)
		},
		EagerRangeDeletes: *eager,
		Compaction: compaction.Options{
			Picker: compaction.PickMinOverlap,
			DPT:    base.Duration(*dpt),
		},
	}
	if *dpt > 0 {
		opts.Compaction.Picker = compaction.PickFADE
	}
	if *policyName != "" {
		kind, ok := compaction.ParsePolicyKind(*policyName)
		if !ok {
			fmt.Fprintf(os.Stderr, "-policy: unknown policy %q (want leveled, size-tiered, or lazy-leveling)\n", *policyName)
			os.Exit(1)
		}
		opts.Compaction.Policy = kind
	}
	if *kiwi {
		opts.PagesPerTile = 4
	}
	if *writeRate > 0 {
		opts.Admission = admission.Config{WriteRate: *writeRate}
	}

	r, err := shard.Open(*dir, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "open: %v\n", err)
		os.Exit(1)
	}

	srv := server.New(r, server.Config{OpTimeout: *opTimeout})
	bound, err := srv.Start(*addr)
	if err != nil {
		_ = r.Close()
		fmt.Fprintf(os.Stderr, "listen: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("acherond serving %q on %s — %d shards, dpt=%v, policy=%s\n",
		*dir, bound, r.NumShards(), *dpt, r.PolicyName())

	if *metricsAddr != "" {
		mbound, _, err := metrics.Serve(*metricsAddr, metrics.NewServeMux(r.Registry()))
		if err != nil {
			fmt.Fprintf(os.Stderr, "metrics: %v\n", err)
		} else {
			fmt.Printf("metrics on http://%s/{metrics,vars}\n", mbound)
		}
	}

	// Graceful shutdown: stop accepting and drain connections, then close
	// the store (flushing memtables and syncing the WAL on every shard).
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down")
	if err := srv.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "server close: %v\n", err)
	}
	if err := r.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "store close: %v\n", err)
		os.Exit(1)
	}
}
