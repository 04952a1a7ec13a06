package lintframe

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
)

// vetConfig mirrors the JSON configuration file the go command hands a
// -vettool binary for each package unit (see x/tools unitchecker for the
// canonical schema; only the fields used here are declared).
type vetConfig struct {
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// unitcheckerMain runs the analyzers over one vet unit described by cfgPath
// and returns the process exit code.
//
// The go command also sends a VetxOnly unit for every dependency of the
// packages it was asked to vet, standard library included, wanting only that
// package's facts file. No analyzer exports facts, so every unit gets an
// empty VetxOutput first, and a VetxOnly one is never parsed or type-checked.
func unitcheckerMain(cfgPath string, analyzers []*Analyzer) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "acheronlint: reading vet config: %v\n", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "acheronlint: parsing vet config %s: %v\n", cfgPath, err)
		return 1
	}
	if code := writeVetx(cfg.VetxOutput); code != 0 || cfg.VetxOnly {
		return code
	}

	pkg, code := loadVetUnit(&cfg)
	if pkg == nil {
		return code
	}
	diags, err := RunAnalyzers(pkg, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "acheronlint: %s: %v\n", cfg.ImportPath, err)
		return 1
	}
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: [%s] %s\n", pkg.Fset.Position(d.Pos), d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}

// writeVetx writes the empty facts file the go command requires of every
// unit that names one.
func writeVetx(path string) int {
	if path == "" {
		return 0
	}
	if err := os.WriteFile(path, nil, 0o666); err != nil {
		fmt.Fprintf(os.Stderr, "acheronlint: writing vetx output: %v\n", err)
		return 1
	}
	return 0
}

// loadVetUnit parses and type-checks one vet unit. A nil package means the
// caller should exit with the returned code.
func loadVetUnit(cfg *vetConfig) (*Package, int) {
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		if !filepath.IsAbs(name) {
			name = filepath.Join(cfg.Dir, name)
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			fmt.Fprintf(os.Stderr, "acheronlint: %v\n", err)
			return nil, 1
		}
		files = append(files, f)
	}

	// Resolve imports through the export-data files the go command built.
	lookup := func(path string) (io.ReadCloser, error) {
		if actual, ok := cfg.ImportMap[path]; ok {
			path = actual
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	compiler := cfg.Compiler
	if compiler == "" {
		compiler = "gc"
	}
	info := NewTypesInfo()
	conf := types.Config{Importer: importer.ForCompiler(fset, compiler, lookup)}
	if _, err := conf.Check(cfg.ImportPath, fset, files, info); err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return nil, 0
		}
		fmt.Fprintf(os.Stderr, "acheronlint: type-checking %s: %v\n", cfg.ImportPath, err)
		return nil, 1
	}

	return &Package{
		ImportPath: cfg.ImportPath,
		Dir:        cfg.Dir,
		Fset:       fset,
		Files:      files,
		Info:       info,
	}, 0
}
