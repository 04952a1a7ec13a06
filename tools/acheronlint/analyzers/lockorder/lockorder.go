// Package lockorder machine-checks the engine's lock-acquisition order.
//
// The commit pipeline's correctness rests on a documented partial order —
// commitMu before d.mu, pickMu before d.mu — that until now lived in
// comments (internal/core/commit.go). This analyzer turns it into a vet
// gate: it builds the package's acquire graph from Lock/RLock call sites
// (an edge A→B for every site that acquires B while holding A, including
// through same-package calls, resolved to a fixed point) and reports
//
//   - any acquisition that inverts a declared order, and
//   - any two locks acquired in both orders (a cycle), declared or not.
//
// The declared order comes from annotations anywhere in the package:
//
//	// acheron:locks order core.commitPipeline.commitMu < core.DB.mu
//
// with canonical lock names (<pkg>.<Type>.<field> for struct fields,
// <pkg>.<var> for package vars; read and write locks share a name). A chain
// `A < B < C` declares A<B and B<C; the order is closed transitively.
//
// Functions whose acquisitions the walk cannot see (callbacks, calls into
// packages outside the analyzed pattern) declare them on their doc comment:
//
//	// acheron:locks acquires manifest.VersionSet.commitMu
//
// Cross-package call sites are covered by facts: every package exports the
// may-acquire summary of its functions and its declared order edges, and
// importing packages fold them into their own graphs — so core calling
// manifest's VersionSet.Commit is checked against manifest's locks without
// re-reading manifest's source.
package lockorder

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/tools/acheronlint/analyzers/internal/lockflow"
	"repro/tools/acheronlint/lintframe"
)

// Analyzer is the lockorder analyzer.
var Analyzer = &lintframe.Analyzer{
	Name: "lockorder",
	Doc:  "flags lock acquisitions that invert the declared partial order or form cycles in the acquire graph",
	Run:  run,
}

// acquireEvent is one Lock call site with the locks held when it ran.
type acquireEvent struct {
	name string
	pos  token.Pos
	held lockflow.Held
}

// callEvent is one call site with the locks held around it.
type callEvent struct {
	callee *types.Func
	pos    token.Pos
	held   lockflow.Held
}

// funcInfo is the per-function harvest of one walk.
type funcInfo struct {
	fn       *types.Func
	acquires []acquireEvent
	calls    []callEvent
	// annotated holds locks declared via `// acheron:locks acquires`.
	annotated []string
}

type edge struct{ from, to string }

func run(pass *lintframe.Pass) error {
	declared, annotated := parseAnnotations(pass)

	// Fold in dependency facts: declared orders and function summaries.
	factAcquires := make(map[string][]string)
	for _, f := range pass.ImportedFacts("acquires") {
		factAcquires[f.Object] = strings.Split(f.Data, ",")
	}
	for _, f := range pass.ImportedFacts("order") {
		if from, to, ok := strings.Cut(f.Data, "<"); ok {
			declared = append(declared, edge{from, to})
		}
	}

	// Walk every function, including those in test files: test goroutines
	// take the same engine locks, and an inversion there deadlocks CI just
	// as surely. (//lint:ignore remains the escape for deliberate abuse.)
	var infos []*funcInfo
	byFunc := make(map[*types.Func]*funcInfo)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			info := &funcInfo{fn: fn, annotated: annotated[fn]}
			w := &lockflow.Walker{
				Info: pass.TypesInfo,
				OnAcquire: func(name string, pos token.Pos, held lockflow.Held) {
					info.acquires = append(info.acquires, acquireEvent{name, pos, held.Clone()})
				},
				OnCall: func(call *ast.CallExpr, held lockflow.Held) {
					callee := lockflow.Callee(pass.TypesInfo, call)
					if callee == nil {
						return
					}
					info.calls = append(info.calls, callEvent{callee, call.Pos(), held.Clone()})
				},
			}
			w.WalkFunc(fd.Body)
			infos = append(infos, info)
			byFunc[fn] = info
		}
	}

	mayAcquire := solveMayAcquire(infos, byFunc, factAcquires)

	// Build the observed acquire graph: first position wins per edge, with
	// non-test positions preferred — reports at test positions are
	// suppressed, so a test-file edge must not shadow a production one.
	edges := make(map[edge]token.Pos)
	record := func(from, to string, pos token.Pos) {
		if from == to {
			return
		}
		e := edge{from, to}
		old, ok := edges[e]
		switch {
		case !ok:
			edges[e] = pos
		case pass.IsTestFile(old) != pass.IsTestFile(pos):
			if pass.IsTestFile(old) {
				edges[e] = pos
			}
		case pos < old:
			edges[e] = pos
		}
	}
	for _, info := range infos {
		for _, a := range info.acquires {
			for held := range a.held {
				record(held, a.name, a.pos)
			}
		}
		for _, c := range info.calls {
			if len(c.held) == 0 {
				continue
			}
			var acquired map[string]bool
			if callee, ok := byFunc[c.callee]; ok {
				acquired = mayAcquire[callee.fn]
			} else if locks, ok := factAcquires[lockflow.FuncKey(c.callee)]; ok {
				acquired = toSet(locks)
			}
			for held := range c.held {
				for lock := range acquired {
					record(held, lock, c.pos)
				}
			}
		}
	}

	// Close the declared order transitively.
	closure := transitiveClosure(declared)

	// Report inversions of the declared order, then undeclared cycles.
	var pairs []edge
	for e := range edges {
		pairs = append(pairs, e)
	}
	sort.Slice(pairs, func(i, j int) bool { return edges[pairs[i]] < edges[pairs[j]] })
	for _, e := range pairs {
		pos := edges[e]
		if pass.IsTestFile(pos) {
			continue
		}
		if closure[e.to][e.from] {
			pass.Reportf(pos,
				"acquires %q while %q is held, inverting the declared lock order %s < %s",
				e.to, e.from, e.to, e.from)
			continue
		}
		rev := edge{e.to, e.from}
		if _, ok := edges[rev]; ok && !closure[e.from][e.to] {
			pass.Reportf(pos,
				"lock-order cycle: %q acquired while %q is held here, and in the reverse order at %s",
				e.to, e.from, pass.Fset.Position(edges[rev]))
		}
	}

	// Export facts for dependent packages.
	for _, d := range declaredInPackage(pass, declared) {
		pass.ExportFact("", "order", d.from+"<"+d.to)
	}
	var fns []*funcInfo
	fns = append(fns, infos...)
	sort.Slice(fns, func(i, j int) bool {
		return lockflow.FuncKey(fns[i].fn) < lockflow.FuncKey(fns[j].fn)
	})
	for _, info := range fns {
		locks := mayAcquire[info.fn]
		if len(locks) == 0 {
			continue
		}
		names := make([]string, 0, len(locks))
		for l := range locks {
			names = append(names, l)
		}
		sort.Strings(names)
		pass.ExportFact(lockflow.FuncKey(info.fn), "acquires", strings.Join(names, ","))
	}
	return nil
}

// solveMayAcquire computes, for every package function, the set of locks it
// may acquire directly or through same-package callees (to a fixed point)
// and through fact-summarized cross-package callees.
func solveMayAcquire(infos []*funcInfo, byFunc map[*types.Func]*funcInfo, factAcquires map[string][]string) map[*types.Func]map[string]bool {
	out := make(map[*types.Func]map[string]bool, len(infos))
	for _, info := range infos {
		set := make(map[string]bool)
		for _, a := range info.acquires {
			set[a.name] = true
		}
		for _, l := range info.annotated {
			set[l] = true
		}
		for _, c := range info.calls {
			if _, samePkg := byFunc[c.callee]; samePkg {
				continue // folded in by the fixed point below
			}
			for _, l := range factAcquires[lockflow.FuncKey(c.callee)] {
				set[l] = true
			}
		}
		out[info.fn] = set
	}
	for changed := true; changed; {
		changed = false
		for _, info := range infos {
			set := out[info.fn]
			for _, c := range info.calls {
				callee, ok := byFunc[c.callee]
				if !ok {
					continue
				}
				for l := range out[callee.fn] {
					if !set[l] {
						set[l] = true
						changed = true
					}
				}
			}
		}
	}
	return out
}

// parseAnnotations extracts `// acheron:locks order ...` declarations and
// `// acheron:locks acquires ...` function summaries from the package.
func parseAnnotations(pass *lintframe.Pass) ([]edge, map[*types.Func][]string) {
	var declared []edge
	annotated := make(map[*types.Func][]string)
	for _, file := range pass.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(strings.TrimSpace(c.Text), "// acheron:locks order ")
				if !ok {
					continue
				}
				names := strings.Split(rest, "<")
				for i := 0; i+1 < len(names); i++ {
					from := strings.TrimSpace(names[i])
					to := strings.TrimSpace(names[i+1])
					if from != "" && to != "" {
						declared = append(declared, edge{from, to})
					}
				}
			}
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				rest, ok := strings.CutPrefix(strings.TrimSpace(c.Text), "// acheron:locks acquires ")
				if !ok {
					continue
				}
				for _, name := range strings.Fields(rest) {
					annotated[fn] = append(annotated[fn], strings.TrimSuffix(name, ","))
				}
			}
		}
	}
	return declared, annotated
}

// declaredInPackage filters the declared edges back down to the ones this
// package's own annotations contributed (imported facts must not be
// re-exported, or every downstream package would accrete duplicates).
func declaredInPackage(pass *lintframe.Pass, declared []edge) []edge {
	imported := make(map[edge]bool)
	for _, f := range pass.ImportedFacts("order") {
		if from, to, ok := strings.Cut(f.Data, "<"); ok {
			imported[edge{from, to}] = true
		}
	}
	var out []edge
	seen := make(map[edge]bool)
	for _, e := range declared {
		if !imported[e] && !seen[e] {
			seen[e] = true
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].from != out[j].from {
			return out[i].from < out[j].from
		}
		return out[i].to < out[j].to
	})
	return out
}

// transitiveClosure computes reachability over the declared edges:
// closure[a][b] means a is declared (possibly through intermediates) to be
// acquired before b.
func transitiveClosure(declared []edge) map[string]map[string]bool {
	out := make(map[string]map[string]bool)
	add := func(a, b string) bool {
		if out[a] == nil {
			out[a] = make(map[string]bool)
		}
		if out[a][b] {
			return false
		}
		out[a][b] = true
		return true
	}
	for _, e := range declared {
		add(e.from, e.to)
	}
	for changed := true; changed; {
		changed = false
		for a, reach := range out {
			for b := range reach {
				for c := range out[b] {
					if add(a, c) {
						changed = true
					}
				}
			}
		}
	}
	return out
}

func toSet(ss []string) map[string]bool {
	out := make(map[string]bool, len(ss))
	for _, s := range ss {
		out[s] = true
	}
	return out
}
