// Command acheronlint is the Acheron engine's static-analysis gate: a
// multichecker bundling three engine-specific analyzers.
//
//	rawkeycompare  bytes.Compare/Equal where the base comparator must be used
//	lockheld       I/O or blocking channel sends under a held mutex
//	condloop       Cond.Wait outside a predicate loop; wakeups without the mutex
//
// It runs one way, as a vet tool (`make acheronlint`): the go command hands
// it the full build graph, test files included, one package at a time. Each
// analyzer sees only the package under analysis, so the dependency-only
// units the go command also sends are answered without being loaded:
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
package main

import (
	"repro/tools/acheronlint/analyzers/condloop"
	"repro/tools/acheronlint/analyzers/lockheld"
	"repro/tools/acheronlint/analyzers/rawkeycompare"
	"repro/tools/acheronlint/lintframe"
)

func main() {
	lintframe.Main(
		rawkeycompare.Analyzer,
		lockheld.Analyzer,
		condloop.Analyzer,
	)
}
