package acheron

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// settingStructs are the configuration types a caller of the engine fills
// in, keyed by the directory of the package that declares them.
var settingStructs = map[string][]string{
	"internal/core":       {"Options"},
	"internal/compaction": {"Options"},
	"internal/admission":  {"Config"},
	"internal/server":     {"Config"},
	"internal/sstable":    {"WriterOptions"},
}

// settingsWithoutCaller are the fields no non-test code outside their own
// package sets, each with the reason it stays a setting.
var settingsWithoutCaller = map[string]string{
	"core.Options.DisableReadViews":   "the fate of the cached read views is still open",
	"core.Options.EventListener":      "the only event feed not bounded by the 1 024-event ring",
	"sstable.WriterOptions.BlockSize": "the compaction and sstable goldens pin 512-byte pages",
	"server.Config.MaxScanEntries":    "the client differential test pages through the server's cap",
	"admission.Config.ReadRate":       "benchmark/probes.go pins Admit's class parameter",
	"admission.Config.ReadBurst":      "benchmark/probes.go pins Admit's class parameter",
	"compaction.Options.L0Threshold":  "tests use it to shape their trees",
}

// TestEverySettingHasACaller holds the rule that a setting nothing outside
// the tests sets becomes a constant: every exported field of the
// configuration types must be named — as a composite-literal key or on the
// left of an assignment — by a non-test file of another package (cmd/,
// examples/, internal/harness and benchmark/ included; internal/storetest,
// a test suite, not), or carry an entry in settingsWithoutCaller. An entry
// whose field gains a caller fails too, so the list stays exact. Matching
// is by field name: it parses, it does not type-check.
func TestEverySettingHasACaller(t *testing.T) {
	fset := token.NewFileSet()
	// setters maps a field name to the package directories naming it.
	setters := map[string]map[string]bool{}
	note := func(name, dir string) {
		if setters[name] == nil {
			setters[name] = map[string]bool{}
		}
		setters[name][dir] = true
	}
	fields := map[string]string{} // "pkg.Type.Field" -> declaring directory
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			switch {
			case path != "." && strings.HasPrefix(e.Name(), "."),
				e.Name() == "testdata",
				path == filepath.Join("internal", "storetest"):
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		for _, typ := range settingStructs[dir] {
			for name := range exportedFields(f, typ) {
				fields[filepath.Base(dir)+"."+typ+"."+name] = dir
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				for _, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							note(id.Name, dir)
						}
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						note(sel.Sel.Name, dir)
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(fields) == 0 {
		t.Fatal("found none of the configuration types")
	}

	var problems []string
	for key, dir := range fields {
		name := key[strings.LastIndexByte(key, '.')+1:]
		var callers []string
		for d := range setters[name] {
			if d != dir {
				callers = append(callers, d)
			}
		}
		sort.Strings(callers)
		reason, listed := settingsWithoutCaller[key]
		switch {
		case len(callers) == 0 && !listed:
			problems = append(problems, key+" has no caller outside the tests: make it a constant, or list it with a reason")
		case len(callers) > 0 && listed:
			problems = append(problems, key+" is listed as having no caller ("+reason+") but "+strings.Join(callers, ", ")+" sets it: drop the entry")
		}
	}
	for key := range settingsWithoutCaller {
		if _, ok := fields[key]; !ok {
			problems = append(problems, key+" is listed but is not a field of a configuration type")
		}
	}
	sort.Strings(problems)
	for _, p := range problems {
		t.Error(p)
	}
}

// exportedFields returns the exported named fields of struct type typ
// declared in f.
func exportedFields(f *ast.File, typ string) map[string]bool {
	out := map[string]bool{}
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.TYPE {
			continue
		}
		for _, spec := range gd.Specs {
			ts := spec.(*ast.TypeSpec)
			st, ok := ts.Type.(*ast.StructType)
			if !ok || ts.Name.Name != typ {
				continue
			}
			for _, fld := range st.Fields.List {
				for _, id := range fld.Names {
					if id.IsExported() {
						out[id.Name] = true
					}
				}
			}
		}
	}
	return out
}
