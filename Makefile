GO ?= go

# Decode-hardening fuzz targets and their per-target CI time budget.
FUZZTIME ?= 20s

.PHONY: all build test cpu1 bench-check race fuzz-smoke lint vet acheronlint bench overload clean

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# cpu1 runs the packages whose goroutines hand work to one another — a
# compaction's merge and its writer goroutine, the commit pipeline, the
# maintenance executors, the shard router's fan-out of batches, range
# deletes, flushes and closes to one goroutine per shard, the server's
# request deadlines, armed only when a request parks and closed from the
# runtime's timer to wake a handler parked in the engine, and the memtable
# and skiplist, whose one writer races lock-free readers across chunk rolls —
# with a single P (GOMAXPROCS=1), so a handoff that only makes progress with
# a second one fails here rather than in production.
cpu1:
	$(GO) test -count=1 -cpu 1 ./internal/compaction/ ./internal/core/ ./internal/shard/ ./internal/server/ ./internal/client/ ./internal/skiplist/ ./internal/memtable/

# bench-check builds, vets and smoke-tests the benchmark/ module, which root
# `go test ./...` never reaches (it is its own module, replacing repro with
# the parent directory). It pins every engine identifier the benchmark
# imports: an engine change that renames or re-signs one fails here, before
# the benchmark pipeline does.
bench-check:
	$(GO) -C benchmark vet ./...
	$(GO) -C benchmark test ./...

# race is the whole test suite under the race detector — one gate, no name
# filter: most engine tests run against live background executors, and a new
# concurrency test is covered whatever it is called. That takes in the
# fixed-seed crash-torture matrix and background-error state machine over
# errorfs, the deadline/cancellation and admission suites, the sharded
# differential + DPT sweep, the server chaos clients and the metrics
# accounting tests. -count=1 defeats the test cache so the errorfs rules
# execute on every run.
race:
	$(GO) test -race -count=1 ./...

# lint = stock go vet + the engine-specific acheronlint suite
# (rawkeycompare, lockheld, condloop).
lint: vet acheronlint

vet:
	$(GO) vet ./...

# acheronlint runs as a `go vet -vettool`, its only driver: the go command
# hands it every package of the build graph, test files included, and each
# is analyzed on its own. It vets the root module and then benchmark/, which
# `./...` from the root does not reach, so the //lint:ignore directives there
# are checked too.
acheronlint:
	$(GO) build -o bin/acheronlint ./tools/acheronlint
	$(GO) vet -vettool=$(CURDIR)/bin/acheronlint ./...
	$(GO) -C benchmark vet -vettool=$(CURDIR)/bin/acheronlint ./...

# fuzz-smoke gives each decode fuzzer a short budget on top of the checked-in
# corpus under testdata/fuzz/. Catches format-decoder panics (block entries,
# WAL frames, sstable footers/properties/index entries), false negatives
# of the KiWi page Bloom filters, a range-tombstone skyline that answers
# other than the tombstone walk it replaced, a memtable skiplist whose
# arena loses or garbles an entry of any size up to past its largest chunk,
# a block cache that serves a block other than the last one put for its
# key or loses count of its bytes, and an in-memory filesystem whose recycled
# pages lose, garble or share a file's bytes, before they reach a release.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzBlockIter -fuzztime $(FUZZTIME) ./internal/block/
	$(GO) test -run '^$$' -fuzz FuzzWALReplay -fuzztime $(FUZZTIME) ./internal/wal/
	$(GO) test -run '^$$' -fuzz FuzzSSTableFooterProps -fuzztime $(FUZZTIME) ./internal/sstable/
	$(GO) test -run '^$$' -fuzz FuzzPageFilter -fuzztime $(FUZZTIME) ./internal/sstable/
	$(GO) test -run '^$$' -fuzz FuzzSkyline -fuzztime $(FUZZTIME) ./internal/compaction/
	$(GO) test -run '^$$' -fuzz FuzzWireDecode -fuzztime $(FUZZTIME) ./internal/wire/
	$(GO) test -run '^$$' -fuzz FuzzSkiplist -fuzztime $(FUZZTIME) ./internal/skiplist/
	$(GO) test -run '^$$' -fuzz FuzzCache -fuzztime $(FUZZTIME) ./internal/cache/
	$(GO) test -run '^$$' -fuzz FuzzMemFS -fuzztime $(FUZZTIME) ./internal/vfs/

bench:
	$(GO) test -bench=. -benchtime=1x -run '^$$' ./...

# overload is the overload-resilience gate: the small-scale C6 experiment,
# which fails unless goodput at 4x the admitted write rate stays within 0.75x
# of the 1x row and reads keep being served. (The deadline, cancellation and
# admission test suites run under `make race`.)
overload:
	$(GO) run ./cmd/acheron-bench -exp C6 -scale small

clean:
	$(GO) clean ./...
