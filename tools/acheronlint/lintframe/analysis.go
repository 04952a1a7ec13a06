// Package lintframe is a minimal, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis vocabulary (Analyzer, Pass, Diagnostic)
// plus what runs analyzers over this module: a `go vet -vettool` unitchecker
// and an analysistest-style harness for testdata packages. Analysis is
// per package: no analyzer reads another package's results, so there are no
// facts, and a dependency-only vet unit is answered without being loaded.
//
// The x/tools module is deliberately not vendored: the framework surface the
// acheronlint analyzers need is tiny, and keeping it in-tree means the lint
// gate builds with nothing but the standard library.
package lintframe

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// Analyzer describes one static check. It mirrors analysis.Analyzer minus
// facts and requires-graph plumbing, which the acheronlint suite does not
// need.
type Analyzer struct {
	// Name is the analyzer's command-line and //lint:ignore name.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Run inspects a package and reports diagnostics through the pass.
	Run func(*Pass) error
}

// Pass carries one analyzed package to an Analyzer's Run function.
type Pass struct {
	Fset      *token.FileSet
	Files     []*ast.File
	TypesInfo *types.Info

	report func(Diagnostic)
}

// Diagnostic is one reported problem.
type Diagnostic struct {
	Pos     token.Pos
	Message string
	// Analyzer is the reporting analyzer's name, set by RunAnalyzers.
	Analyzer string
}

// Reportf reports a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// IsTestFile reports whether pos falls inside a _test.go file. The
// acheronlint analyzers gate production code; tests intentionally exercise
// raw patterns (e.g. bytes.Compare as a comparator under test) and are
// skipped by the analyzers that would otherwise drown in them.
func (p *Pass) IsTestFile(pos token.Pos) bool {
	f := p.Fset.File(pos)
	return f != nil && strings.HasSuffix(f.Name(), "_test.go")
}

// ignoreDirective is one parsed //lint:ignore comment.
//
// The suppression contract matches staticcheck's: the directive names the
// analyzer (or "*") and must carry a reason. It silences diagnostics of that
// analyzer on the directive's own line (trailing-comment form) and on the
// line immediately below (own-line form). A directive that names a running
// analyzer and silences nothing is itself reported: it reads as "the linter
// checked this and was overruled" where nothing was checked.
type ignoreDirective struct {
	pos      token.Pos
	file     string
	line     int
	analyzer string
	used     bool
}

var ignoreRE = regexp.MustCompile(`^//lint:ignore\s+(\S+)\s+\S`)

// parseIgnores extracts //lint:ignore directives from the files' comments.
func parseIgnores(fset *token.FileSet, files []*ast.File) []ignoreDirective {
	var out []ignoreDirective
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := ignoreRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				out = append(out, ignoreDirective{pos: c.Pos(), file: pos.Filename, line: pos.Line, analyzer: m[1]})
			}
		}
	}
	return out
}

// suppressed reports whether a diagnostic from the named analyzer at pos is
// covered by one of the directives, and marks every directive covering it
// as used.
func suppressed(dirs []ignoreDirective, name string, pos token.Position) bool {
	hit := false
	for i := range dirs {
		d := &dirs[i]
		if d.file != pos.Filename {
			continue
		}
		if d.analyzer != name && d.analyzer != "*" {
			continue
		}
		if pos.Line == d.line || pos.Line == d.line+1 {
			d.used, hit = true, true
		}
	}
	return hit
}

// RunAnalyzers applies each analyzer to the package and returns the
// surviving (non-suppressed) diagnostics plus one for each //lint:ignore
// directive that names one of the analyzers and suppressed nothing, sorted
// by position.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	dirs := parseIgnores(pkg.Fset, pkg.Files)
	var out []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			TypesInfo: pkg.Info,
		}
		name := a.Name
		pass.report = func(d Diagnostic) {
			if suppressed(dirs, name, pkg.Fset.Position(d.Pos)) {
				return
			}
			d.Analyzer = name
			out = append(out, d)
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	for _, d := range dirs {
		if d.used {
			continue
		}
		for _, a := range analyzers {
			if d.analyzer == a.Name {
				out = append(out, Diagnostic{Pos: d.pos, Analyzer: a.Name,
					Message: "unused //lint:ignore " + a.Name + " directive"})
			}
		}
	}
	sortDiagnostics(pkg.Fset, out)
	return out, nil
}

func sortDiagnostics(fset *token.FileSet, ds []Diagnostic) {
	key := func(d Diagnostic) string {
		p := fset.Position(d.Pos)
		return fmt.Sprintf("%s:%09d:%06d:%s:%s", p.Filename, p.Line, p.Column, d.Analyzer, d.Message)
	}
	for i := 1; i < len(ds); i++ {
		for j := i; j > 0 && key(ds[j]) < key(ds[j-1]); j-- {
			ds[j], ds[j-1] = ds[j-1], ds[j]
		}
	}
}
