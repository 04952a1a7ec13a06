package lintframe

import (
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"strings"
)

// Main is the entry point of the acheronlint binary, which runs one way: as
// a `go vet -vettool`. It answers the -V=full and -flags probes the go
// command sends first, then analyzes the one vet unit named by a *.cfg
// argument; anything else prints usage and exits 1.
//
// Exit codes follow vet conventions: 0 clean, 1 usage/load failure,
// 2 diagnostics reported.
func Main(analyzers ...*Analyzer) {
	args := os.Args[1:]

	// go vet protocol probes.
	for _, a := range args {
		switch {
		case a == "-V=full" || a == "--V=full":
			id, err := buildID()
			if err != nil {
				fmt.Fprintf(os.Stderr, "acheronlint: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("acheronlint version 1 buildID=%s\n", id)
			return
		case a == "-flags" || a == "--flags":
			// No analyzer-selection flags are exposed: the suite always
			// runs whole. An empty list tells the go command to pass none.
			fmt.Println("[]")
			return
		}
	}

	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(unitcheckerMain(args[0], analyzers))
	}

	usage(analyzers)
	if len(args) == 1 && (args[0] == "-h" || args[0] == "-help" || args[0] == "--help") {
		return
	}
	os.Exit(1)
}

func usage(analyzers []*Analyzer) {
	fmt.Println("usage: go vet -vettool=<path to acheronlint> [packages]")
	fmt.Println()
	fmt.Println("Runs the Acheron engine-specific analyzers over the build graph of the")
	fmt.Println("given packages, test files included (`make acheronlint` builds the")
	fmt.Println("binary and does this for ./...).")
	fmt.Println()
	fmt.Println("Suppress a finding with a //lint:ignore <analyzer> <reason> comment")
	fmt.Println("on, or on the line above, the flagged line; a directive that")
	fmt.Println("suppresses nothing is itself reported.")
	fmt.Println()
	fmt.Println("Analyzers:")
	for _, a := range analyzers {
		doc := a.Doc
		if i := strings.IndexByte(doc, '\n'); i >= 0 {
			doc = doc[:i]
		}
		fmt.Printf("  %-14s %s\n", a.Name, doc)
	}
}

// buildID hashes the running executable. The go command keys its cached vet
// results on the -V=full line, so the id must change whenever analyzer logic
// does, not only when an analyzer is added or renamed; otherwise a rebuilt
// linter would replay the old binary's findings for unchanged packages.
func buildID() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", fmt.Errorf("hashing %s: %w", exe, err)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8]), nil
}
