// Package condloop guards against the two classic sync.Cond mistakes that
// produced this engine's historical lost-wakeup bugs (write-stall and
// scheduler-drain hangs):
//
//   - Wait called outside a loop, or in a loop that never re-checks its
//     predicate. Cond.Wait can return spuriously and, worse, the condition
//     can be re-falsified between Broadcast and the waiter re-acquiring the
//     mutex — `if !ready { c.Wait() }` is a latent hang. Wait must sit in
//     `for !ready { c.Wait() }`, or in a `for {}` whose body breaks or
//     returns on the predicate.
//
//   - Signal/Broadcast without the cond's mutex held. Legal per package
//     sync, but racy in this codebase's idiom: a waiter can check its
//     predicate, lose the CPU, miss the unlocked Broadcast, then Wait
//     forever. The analyzer learns each cond's mutex from its
//     `sync.NewCond(&mu)` construction in the same package and requires
//     that mutex at every wake site.
//
// Wait's own mutex requirement is not checked: the runtime already panics
// on it, and helper functions that Wait on a caller-held mutex (the
// *Locked idiom) would be unverifiable false positives.
package condloop

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/tools/acheronlint/analyzers/internal/lockflow"
	"repro/tools/acheronlint/lintframe"
)

// Analyzer is the condloop analyzer.
var Analyzer = &lintframe.Analyzer{
	Name: "condloop",
	Doc:  "flags sync.Cond.Wait outside a predicate loop and Signal/Broadcast without the cond's mutex held",
	Run:  run,
}

func run(pass *lintframe.Pass) error {
	bindings := collectBindings(pass)

	for _, file := range pass.Files {
		if pass.IsTestFile(file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkWaitLoops(pass, fd.Body)
			checkWakeSites(pass, fd.Body, bindings)
		}
	}
	return nil
}

// collectBindings maps each cond's canonical name to its mutex's canonical
// name, from sync.NewCond(&mu) construction sites anywhere in the package.
func collectBindings(pass *lintframe.Pass) map[string]string {
	bindings := make(map[string]string)
	bind := func(lhs ast.Expr, rhs ast.Expr) {
		mu, ok := newCondMutex(pass.TypesInfo, rhs)
		if !ok {
			return
		}
		if cond := lockflow.Key(pass.TypesInfo, lhs); cond != "" {
			bindings[cond] = mu
		}
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) == len(n.Rhs) {
					for i, rhs := range n.Rhs {
						bind(n.Lhs[i], rhs)
					}
				}
			case *ast.ValueSpec: // var cond = sync.NewCond(&mu)
				if len(n.Names) == len(n.Values) {
					for i, rhs := range n.Values {
						bind(n.Names[i], rhs)
					}
				}
			}
			return true
		})
	}
	return bindings
}

// newCondMutex recognizes sync.NewCond(&mu) and returns mu's canonical name.
func newCondMutex(info *types.Info, e ast.Expr) (string, bool) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return "", false
	}
	fn := lockflow.Callee(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" || fn.Name() != "NewCond" {
		return "", false
	}
	arg := ast.Unparen(call.Args[0])
	if u, ok := arg.(*ast.UnaryExpr); ok && u.Op == token.AND {
		arg = ast.Unparen(u.X)
	}
	return lockflow.Key(info, arg), true
}

// condMethod returns the canonical cond name if call is a
// (*sync.Cond).<method> invocation.
func condMethod(info *types.Info, call *ast.CallExpr, method string) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Name() != method || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return "", false
	}
	named := recv.Type()
	if p, ok := named.(*types.Pointer); ok {
		named = p.Elem()
	}
	if n, ok := named.(*types.Named); !ok || n.Obj().Name() != "Cond" {
		return "", false
	}
	return lockflow.Key(info, sel.X), true
}

// checkWaitLoops walks a function body tracking the enclosing-loop stack and
// flags Wait calls with no loop, or a loop whose predicate is never
// re-checked.
func checkWaitLoops(pass *lintframe.Pass, body *ast.BlockStmt) {
	var loops []ast.Stmt // enclosing For/Range statements, innermost last
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// A literal is its own function: Wait inside it is not covered
			// by an outer loop.
			saved := loops
			loops = nil
			ast.Inspect(n.Body, walk)
			loops = saved
			return false
		case *ast.ForStmt, *ast.RangeStmt:
			loops = append(loops, n.(ast.Stmt))
			if f, ok := n.(*ast.ForStmt); ok {
				if f.Init != nil {
					ast.Inspect(f.Init, walk)
				}
				if f.Post != nil {
					ast.Inspect(f.Post, walk)
				}
				ast.Inspect(f.Body, walk)
			} else {
				ast.Inspect(n.(*ast.RangeStmt).Body, walk)
			}
			loops = loops[:len(loops)-1]
			return false
		case *ast.CallExpr:
			cond, ok := condMethod(pass.TypesInfo, n, "Wait")
			if !ok {
				return true
			}
			if len(loops) == 0 {
				pass.Reportf(n.Pos(),
					"%s.Wait outside a loop: the predicate is checked at most once, and a wakeup between check and Wait is lost", cond)
				return true
			}
			if !loopRechecksPredicate(loops[len(loops)-1]) {
				pass.Reportf(n.Pos(),
					"%s.Wait in a loop that never re-checks its predicate: add a loop condition or a conditional break/return", cond)
			}
			return true
		}
		return true
	}
	ast.Inspect(body, walk)
}

// loopRechecksPredicate reports whether the loop enclosing a Wait gives the
// waiter a predicate to re-evaluate each iteration: either a loop condition
// (`for !ready { ... }`) or a conditional exit in the body
// (`for { if ready { break } ... }`).
func loopRechecksPredicate(loop ast.Stmt) bool {
	f, ok := loop.(*ast.ForStmt)
	if ok && f.Cond != nil {
		return true
	}
	var body *ast.BlockStmt
	if ok {
		body = f.Body
	} else {
		body = loop.(*ast.RangeStmt).Body
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit, *ast.ForStmt, *ast.RangeStmt:
			return false // exits in nested scopes don't leave this loop
		case *ast.IfStmt:
			if bodyExits(n.Body) || (n.Else != nil && elseExits(n.Else)) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

func bodyExits(b *ast.BlockStmt) bool {
	for _, s := range b.List {
		switch s := s.(type) {
		case *ast.ReturnStmt:
			return true
		case *ast.BranchStmt:
			if s.Tok == token.BREAK || s.Tok == token.GOTO {
				return true
			}
		}
	}
	return false
}

func elseExits(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return bodyExits(s)
	case *ast.IfStmt:
		return bodyExits(s.Body) || (s.Else != nil && elseExits(s.Else))
	}
	return false
}

// checkWakeSites runs the held-lock walker over a body and flags
// Signal/Broadcast calls on conds whose bound mutex is not held.
func checkWakeSites(pass *lintframe.Pass, body *ast.BlockStmt, bindings map[string]string) {
	w := &lockflow.Walker{
		Info: pass.TypesInfo,
		OnCall: func(call *ast.CallExpr, held lockflow.Held) {
			for _, method := range [...]string{"Signal", "Broadcast"} {
				cond, ok := condMethod(pass.TypesInfo, call, method)
				if !ok {
					continue
				}
				mu, bound := bindings[cond]
				if !bound {
					// Unknown binding (cond constructed in another
					// package): can't judge, stay silent.
					return
				}
				if _, ok := held[mu]; !ok {
					pass.Reportf(call.Pos(),
						"%s.%s without holding %q: a waiter can re-check its predicate and miss this wakeup", cond, method, mu)
				}
				return
			}
		},
	}
	w.WalkFunc(body)
}
