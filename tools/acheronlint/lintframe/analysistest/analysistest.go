// Package analysistest runs a lintframe.Analyzer over a testdata package and
// checks its diagnostics against `// want` expectations, in the style of
// golang.org/x/tools/go/analysis/analysistest.
//
// Each flagged line carries a trailing comment of the form
//
//	// want "regexp" ["regexp" ...]
//
// with one quoted regular expression per expected diagnostic on that line.
// Lines without a want comment must produce no diagnostics, which is how the
// "allowed" examples in each analyzer's testdata are asserted.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/tools/acheronlint/lintframe"
)

// Run analyzes testdata/src/<pkgname> beneath dir with the analyzer and
// reports mismatches between diagnostics and want comments as test errors.
func Run(t *testing.T, dir string, a *lintframe.Analyzer, pkgname string) {
	t.Helper()
	pkgdir := filepath.Join(dir, "src", pkgname)
	entries, err := os.ReadDir(pkgdir)
	if err != nil {
		t.Fatalf("reading testdata dir: %v", err)
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(pkgdir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parsing %s: %v", e.Name(), err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		t.Fatalf("no Go files in %s", pkgdir)
	}

	info := lintframe.NewTypesInfo()
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	if _, err := conf.Check(pkgname, fset, files, info); err != nil {
		t.Fatalf("type-checking testdata: %v", err)
	}

	pkg := &lintframe.Package{
		ImportPath: pkgname,
		Dir:        pkgdir,
		Fset:       fset,
		Files:      files,
		Info:       info,
	}
	diags, err := lintframe.RunAnalyzers(pkg, []*lintframe.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}

	wants := collectWants(t, fset, files)
	got := make(map[string][]string) // "file:line" -> messages
	for _, d := range diags {
		p := fset.Position(d.Pos)
		key := fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
		got[key] = append(got[key], "["+d.Analyzer+"] "+d.Message)
	}

	for key, patterns := range wants {
		msgs := got[key]
		if len(msgs) != len(patterns) {
			t.Errorf("%s: want %d diagnostic(s) %v, got %d: %v", key, len(patterns), patterns, len(msgs), msgs)
			continue
		}
		remaining := append([]string(nil), msgs...)
		for _, pat := range patterns {
			re, err := regexp.Compile(pat)
			if err != nil {
				t.Fatalf("%s: bad want pattern %q: %v", key, pat, err)
			}
			idx := -1
			for i, m := range remaining {
				if re.MatchString(m) {
					idx = i
					break
				}
			}
			if idx < 0 {
				t.Errorf("%s: no diagnostic matching %q among %v", key, pat, remaining)
				continue
			}
			remaining = append(remaining[:idx], remaining[idx+1:]...)
		}
	}
	for key, msgs := range got {
		if _, ok := wants[key]; !ok {
			t.Errorf("%s: unexpected diagnostic(s): %v", key, msgs)
		}
	}
}

var wantRE = regexp.MustCompile(`//\s*want\s+(.*)`)

// collectWants maps "file:line" to the expected diagnostic patterns
// declared on that line.
func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) map[string][]string {
	t.Helper()
	wants := make(map[string][]string)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				patterns, err := parseWantPatterns(m[1])
				if err != nil {
					p := fset.Position(c.Pos())
					t.Fatalf("%s:%d: %v", p.Filename, p.Line, err)
				}
				p := fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
				wants[key] = append(wants[key], patterns...)
			}
		}
	}
	for _, ps := range wants {
		sort.Strings(ps)
	}
	return wants
}

// parseWantPatterns splits a want payload into its quoted regexp strings.
// Both "double-quoted" and `backquoted` Go string syntax are accepted.
func parseWantPatterns(s string) ([]string, error) {
	var out []string
	s = strings.TrimSpace(s)
	for len(s) > 0 {
		var quote byte = s[0]
		if quote != '"' && quote != '`' {
			return nil, fmt.Errorf("want pattern must be a quoted string, got %q", s)
		}
		end := strings.IndexByte(s[1:], quote)
		if end < 0 {
			return nil, fmt.Errorf("unterminated want pattern in %q", s)
		}
		raw := s[:end+2]
		unq, err := strconv.Unquote(raw)
		if err != nil {
			return nil, fmt.Errorf("bad want pattern %s: %v", raw, err)
		}
		out = append(out, unq)
		s = strings.TrimSpace(s[end+2:])
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty want comment")
	}
	return out, nil
}
