GO ?= go

# Race-sensitive packages: everything with shared mutable state under
# concurrent access. The -run filter matches the dedicated concurrency
# tests so the race target stays fast enough for CI.
RACE_PKGS = ./internal/core/... ./internal/cache/... ./internal/memtable/... \
            ./internal/skiplist/... ./internal/vfs/... ./internal/metrics/... \
            ./internal/manifest/... ./internal/compaction/... ./internal/event/... \
            ./internal/admission/... ./internal/shard/... ./internal/server/... ./internal/readview/... \
            ./internal/wire/...
RACE_RUN  = 'Concurrent|Parallel|Stress|Scheduler|InFlight|BackgroundError|FailingFlush'

# Decode-hardening fuzz targets and their per-target CI time budget.
FUZZTIME ?= 20s

.PHONY: all build test bench-check race faults fuzz-smoke observe lint lint-strict vet acheronlint bench bench-policy overload bench-overload bench-scan serve bench-serve clean

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# bench-check builds, vets and smoke-tests the benchmark/ module, which root
# `go test ./...` never reaches (it is its own module, replacing repro with
# the parent directory). It pins every engine identifier the benchmark
# imports: an engine change that renames or re-signs one fails here, before
# the benchmark pipeline does.
bench-check:
	$(GO) -C benchmark vet ./...
	$(GO) -C benchmark test ./...

# race runs the concurrency-focused tests under the race detector. This is
# the CI gate for data races in the commit pipeline, table cache, memtable,
# and skiplist.
race:
	$(GO) test -race -run $(RACE_RUN) $(RACE_PKGS)

# faults runs the fault-injection and crash-recovery suites: the randomized
# crash torture matrix (fixed seeds, deterministic) plus the background-error
# state-machine tests. -count=1 defeats the test cache so the errorfs rules
# actually execute on every run.
faults:
	$(GO) test -count=1 -run 'TestCrashRecoveryTorture|TestStalledWriter|TestTransient|TestCloseDuring|TestBackoffDelay|TestWALCorruptionLocated|TestManifestCorruptionLocated' ./internal/core
	$(GO) test -count=1 ./internal/vfs/...

# lint = stock go vet + the engine-specific acheronlint suite
# (rawkeycompare, lockheld, closecheck, seqnumlit, lockorder, atomicmix,
# condloop, errsentinel).
lint: vet acheronlint

vet:
	$(GO) vet ./...

acheronlint:
	$(GO) run ./tools/acheronlint ./...

# lint-strict runs acheronlint through `go vet -vettool`, which analyzes the
# full build graph — test files included — and carries cross-package facts
# (lock-order summaries, atomic-field discipline, cond-mutex bindings)
# through the go command's .vetx plumbing.
lint-strict:
	$(GO) build -o bin/acheronlint ./tools/acheronlint
	$(GO) vet -vettool=$(CURDIR)/bin/acheronlint ./...

# fuzz-smoke gives each decode fuzzer a short budget on top of the checked-in
# corpus under testdata/fuzz/. Catches format-decoder panics (block entries,
# WAL frames, sstable footers/properties) before they reach a release.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzBlockIter -fuzztime $(FUZZTIME) ./internal/block/
	$(GO) test -run '^$$' -fuzz FuzzWALReplay -fuzztime $(FUZZTIME) ./internal/wal/
	$(GO) test -run '^$$' -fuzz FuzzSSTableFooterProps -fuzztime $(FUZZTIME) ./internal/sstable/
	$(GO) test -run '^$$' -fuzz FuzzPrefixBloom -fuzztime $(FUZZTIME) ./internal/sstable/
	$(GO) test -run '^$$' -fuzz FuzzWireDecode -fuzztime $(FUZZTIME) ./internal/wire/

# observe runs the observability gates: registry/tracer unit tests, the
# exposition golden files, and the metrics-accounting tests (cache, bloom,
# model-based differential).
observe:
	$(GO) test ./internal/metrics/ ./internal/event/
	$(GO) test -run 'TestModelDifferentialStress|TestCacheAccountingConcurrent|TestBloomAccountingGroundTruth' ./internal/core/

bench:
	$(GO) test -bench=. -benchtime=1x -run '^$$' ./...

# bench-policy regenerates the compaction policy x workload sweep (C5) and
# records the result tables + write-path metrics in BENCH_policy.json so the
# policy trade-off table's trajectory is tracked across PRs. The wa/sa and
# delete-persistence columns are deterministic; reads_s is wall clock.
bench-policy:
	$(GO) run ./cmd/acheron-bench -exp C5 -json BENCH_policy.json

# overload is the overload-resilience gate: the deadline/cancellation and
# admission-control suites under the race detector (random cancels, bounded
# Close, cancelled-commit atomicity under fault injection), then a small-scale
# C6 smoke proving goodput holds as offered load passes the admitted rate.
overload:
	$(GO) test -race -count=1 -run 'TestOverloadStress|TestStallDeadline|TestMaintenanceBarrier|TestCancelledCommit' ./internal/core
	$(GO) test -race -count=1 ./internal/admission/
	$(GO) run ./cmd/acheron-bench -exp C6 -scale small

# serve is the network-service gate: sharded differential + DPT-sweep and
# server chaos tests under the race detector, wire decode units plus a short
# FuzzWireDecode budget, then a small-scale C7 smoke driving a live acherond
# through real TCP clients.
serve:
	$(GO) test -race -count=1 -run 'TestShardedModelDifferentialStress|TestDPTShardSweepStress|TestServerStressChaosClients' ./internal/shard/ ./internal/server/
	$(GO) test -count=1 ./internal/wire/ ./internal/server/
	$(GO) test -run '^$$' -fuzz FuzzWireDecode -fuzztime $(FUZZTIME) ./internal/wire/
	$(GO) run ./cmd/acheron-bench -exp C7 -scale small

# bench-serve regenerates the C7 served-saturation experiment (aggregate
# sync-put kops/s vs shard count x connection count through a live acherond)
# and records the tables + per-shard WAL metrics in BENCH_serve.json.
# Wall-clock numbers vary run to run; the shape (kops_s rising monotonically
# with shards at 8+ connections) should not.
bench-serve:
	$(GO) run ./cmd/acheron-bench -exp C7 -json BENCH_serve.json

# bench-overload regenerates the C6 overload experiment (goodput + rejection
# latency vs offered load at 1x/2x/4x the admitted write rate) and records
# the tables + admission metrics in BENCH_overload.json. Wall-clock numbers
# vary run to run; the shape (flat goodput, microsecond rej_p50) should not.
bench-overload:
	$(GO) run ./cmd/acheron-bench -exp C6 -json BENCH_overload.json

# bench-scan regenerates the iterator-throughput experiment (C4): cached
# sorted views vs the heap merge on scan/delete-heavy trees, and prefix
# bloom table skipping, recorded in BENCH_scan.json.
bench-scan:
	$(GO) run ./cmd/acheron-bench -exp C4 -json BENCH_scan.json

clean:
	$(GO) clean ./...
