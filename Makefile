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

.PHONY: all build test bench-check race faults fuzz-smoke observe lint lint-strict vet acheronlint bench overload serve clean

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

# overload is the overload-resilience gate: the deadline/cancellation and
# admission-control suites under the race detector (random cancels, bounded
# Close, cancelled-commit atomicity under fault injection), then the
# small-scale C6 experiment, which fails unless goodput at 4x the admitted
# write rate stays within 0.75x of the 1x row and reads keep being served.
overload:
	$(GO) test -race -count=1 -run 'TestOverloadStress|TestStallDeadline|TestMaintenanceBarrier|TestCancelledCommit' ./internal/core
	$(GO) test -race -count=1 ./internal/admission/
	$(GO) run ./cmd/acheron-bench -exp C6 -scale small

# serve is the network-service gate: sharded differential + DPT-sweep and
# server chaos tests (a live acherond driven by real TCP clients) under the
# race detector, then wire decode units plus a short FuzzWireDecode budget.
serve:
	$(GO) test -race -count=1 -run 'TestShardedModelDifferentialStress|TestDPTShardSweepStress|TestServerStressChaosClients' ./internal/shard/ ./internal/server/
	$(GO) test -count=1 ./internal/wire/ ./internal/server/
	$(GO) test -run '^$$' -fuzz FuzzWireDecode -fuzztime $(FUZZTIME) ./internal/wire/

clean:
	$(GO) clean ./...
