// Command acheronlint is the Acheron engine's static-analysis gate: a
// multichecker bundling eight engine-specific analyzers.
//
//	rawkeycompare  bytes.Compare/Equal where the base comparator must be used
//	lockheld       I/O or blocking channel sends under a held mutex
//	closecheck     discarded Close/Sync/Flush errors on durability paths
//	seqnumlit      integer literals where base.SeqNum/Kind constants belong
//	lockorder      acquisitions inverting the declared lock order, or cycles
//	atomicmix      plain access to atomic fields; copies of atomic-bearing values
//	condloop       Cond.Wait outside a predicate loop; wakeups without the mutex
//	errsentinel    sentinel errors matched with == instead of errors.Is/As
//
// It runs one way, as a vet tool (`make acheronlint`): the go command hands
// it the full build graph, test files included, and carries cross-package
// facts (lock-order summaries, atomic-field discipline, cond-mutex bindings)
// through its .vetx plumbing:
//
//	go build -o bin/acheronlint ./tools/acheronlint
//	go vet -vettool=$(pwd)/bin/acheronlint ./...
//
// Suppress an individual finding with a staticcheck-style annotation on, or
// immediately above, the flagged line:
//
//	//lint:ignore <analyzer> <reason>
//
// A directive that names an analyzer and suppresses nothing is reported
// (`unused //lint:ignore <analyzer> directive`).
//
// Declare concurrency invariants for lockorder with:
//
//	// acheron:locks order core.commitPipeline.commitMu < core.DB.mu
//	// acheron:locks acquires manifest.VersionSet.commitMu
package main

import (
	"repro/tools/acheronlint/analyzers/atomicmix"
	"repro/tools/acheronlint/analyzers/closecheck"
	"repro/tools/acheronlint/analyzers/condloop"
	"repro/tools/acheronlint/analyzers/errsentinel"
	"repro/tools/acheronlint/analyzers/lockheld"
	"repro/tools/acheronlint/analyzers/lockorder"
	"repro/tools/acheronlint/analyzers/rawkeycompare"
	"repro/tools/acheronlint/analyzers/seqnumlit"
	"repro/tools/acheronlint/lintframe"
)

func main() {
	lintframe.Main(
		rawkeycompare.Analyzer,
		lockheld.Analyzer,
		closecheck.Analyzer,
		seqnumlit.Analyzer,
		lockorder.Analyzer,
		atomicmix.Analyzer,
		condloop.Analyzer,
		errsentinel.Analyzer,
	)
}
