// Package lockflow is the shared machinery of the lock-discipline analyzers
// (lockheld, condloop): canonical lock naming and the one branch-aware walk
// that threads a held-lock set through a function body.
//
// Canonical names make a lock's identity stable across access paths: the
// engine mutex is "core.DB.mu" whether the source says d.mu, db.mu, or
// p.d.mu, which is what lets condloop match a wake site to the mutex its
// cond was built on. A struct field canonicalizes to
// "<pkg>.<Type>.<field>", a package-level var to "<pkg>.<var>", and anything
// else (locals, complex expressions) falls back to its source rendering.
package lockflow

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Held maps lock names (see Walker.Name) to the position where each was
// acquired.
type Held map[string]token.Pos

// Clone copies a held set.
func (h Held) Clone() Held {
	out := make(Held, len(h))
	for k, v := range h {
		out[k] = v
	}
	return out
}

// union merges two held sets, preferring a's positions.
func union(a, b Held) Held {
	out := a.Clone()
	for k, v := range b {
		if _, ok := out[k]; !ok {
			out[k] = v
		}
	}
	return out
}

// Key canonicalizes the receiver expression of a Lock/Unlock/Signal call.
func Key(info *types.Info, e ast.Expr) string {
	switch e := e.(type) {
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok {
			if f, ok := sel.Obj().(*types.Var); ok && f.IsField() {
				if owner := namedRecv(sel.Recv()); owner != nil {
					return ownerKey(owner) + "." + f.Name()
				}
			}
		}
		// Package-qualified var: pkg.Mu.
		if obj, ok := info.Uses[e.Sel].(*types.Var); ok {
			return varKey(obj)
		}
	case *ast.Ident:
		if obj, ok := info.Uses[e].(*types.Var); ok {
			return varKey(obj)
		}
		// Defining occurrences (`var cond = sync.NewCond(&mu)`, `c := ...`)
		// live in Defs, not Uses.
		if obj, ok := info.Defs[e].(*types.Var); ok {
			return varKey(obj)
		}
	}
	return types.ExprString(e)
}

// namedRecv dereferences a receiver type down to its named type, if any.
func namedRecv(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

func ownerKey(named *types.Named) string {
	obj := named.Obj()
	if obj.Pkg() != nil {
		return lastPathElem(obj.Pkg().Path()) + "." + obj.Name()
	}
	return obj.Name()
}

func varKey(v *types.Var) string {
	if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
		return lastPathElem(v.Pkg().Path()) + "." + v.Name()
	}
	return v.Name()
}

func lastPathElem(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[i+1:]
		}
	}
	return path
}

// MutexOpKind classifies a call against the sync mutex vocabulary.
type MutexOpKind int

const (
	OpNone MutexOpKind = iota
	OpLock
	OpUnlock
)

// mutexOp recognizes m.Lock/RLock/Unlock/RUnlock calls on sync mutexes and
// returns the lock's name and operation. Read and write locks share one
// name: for stall and wakeup purposes they are the same resource.
func (w *Walker) mutexOp(e ast.Expr) (string, MutexOpKind) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return "", OpNone
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", OpNone
	}
	fn, ok := w.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", OpNone
	}
	switch fn.Name() {
	case "Lock", "RLock":
		return w.name(sel.X), OpLock
	case "Unlock", "RUnlock":
		return w.name(sel.X), OpUnlock
	}
	return "", OpNone
}

// name renders a lock receiver through Walker.Name, defaulting to Key.
func (w *Walker) name(e ast.Expr) string {
	if w.Name != nil {
		return w.Name(e)
	}
	return Key(w.Info, e)
}

// Walker drives a branch-aware traversal of one function body, tracking the
// set of locks held on each control-flow path: an early-return branch's
// unlock does not leak into the fall-through path, `defer mu.Unlock()` holds
// the lock to function end, and function literals are walked with fresh
// (empty) state — their bodies run on their own call path or goroutine.
type Walker struct {
	Info *types.Info
	// Name renders a Lock/Unlock receiver as the held-set key; nil means
	// Key, the canonical name condloop matches against the mutex a cond was
	// built on. A function-local check sets types.ExprString instead: under
	// canonical names a.mu and b.mu of one type are a single entry, and
	// unlocking one would drop the other from the set.
	Name func(ast.Expr) string
	// OnCall fires for every call expression that is not itself a mutex
	// operation, with the held set at the call site. Deferred calls and
	// goroutine launches are not reported (their bodies run under
	// unknowable lock state).
	OnCall func(call *ast.CallExpr, held Held)
	// OnSend fires at the arrow of every channel send that can block — a
	// send statement, or a send case of a select without a default clause —
	// after the calls in its operands have been reported.
	OnSend func(arrow token.Pos, held Held)
}

// WalkFunc analyzes one function body with empty initial lock state.
func (w *Walker) WalkFunc(body *ast.BlockStmt) {
	w.walkStmts(body.List, Held{})
}

// walkStmts walks a statement list, threading lock state through it, and
// reports whether control definitely leaves the enclosing function or loop
// at the end (return, branch, panic).
func (w *Walker) walkStmts(list []ast.Stmt, held Held) (Held, bool) {
	for _, s := range list {
		var term bool
		held, term = w.walkStmt(s, held)
		if term {
			return held, true
		}
	}
	return held, false
}

func (w *Walker) walkStmt(s ast.Stmt, held Held) (Held, bool) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if mu, op := w.mutexOp(s.X); op == OpLock {
			held[mu] = s.Pos()
			return held, false
		} else if op == OpUnlock {
			delete(held, mu)
			return held, false
		}
		w.checkExpr(s.X, held)
		return held, isPanicCall(s.X)

	case *ast.DeferStmt:
		if _, op := w.mutexOp(s.Call); op == OpUnlock {
			// Held until function end; nothing to remove.
			return held, false
		}
		for _, arg := range s.Call.Args {
			w.checkExpr(arg, held)
		}
		w.walkFuncLits(s.Call)
		return held, false

	case *ast.GoStmt:
		for _, arg := range s.Call.Args {
			w.checkExpr(arg, held)
		}
		w.walkFuncLits(s.Call)
		return held, false

	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.checkExpr(e, held)
		}
		for _, e := range s.Lhs {
			w.checkExpr(e, held)
		}
		return held, false

	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						w.checkExpr(e, held)
					}
				}
			}
		}
		return held, false

	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.checkExpr(e, held)
		}
		return held, true

	case *ast.BranchStmt:
		return held, true

	case *ast.IncDecStmt:
		w.checkExpr(s.X, held)
		return held, false

	case *ast.SendStmt:
		w.checkExpr(s.Chan, held)
		w.checkExpr(s.Value, held)
		if w.OnSend != nil {
			w.OnSend(s.Arrow, held)
		}
		return held, false

	case *ast.BlockStmt:
		return w.walkStmts(s.List, held)

	case *ast.IfStmt:
		if s.Init != nil {
			held, _ = w.walkStmt(s.Init, held)
		}
		w.checkExpr(s.Cond, held)
		thenHeld, thenTerm := w.walkStmts(s.Body.List, held.Clone())
		elseHeld, elseTerm := held, false
		if s.Else != nil {
			elseHeld, elseTerm = w.walkStmt(s.Else, held.Clone())
		}
		switch {
		case thenTerm && elseTerm:
			return held, true
		case thenTerm:
			return elseHeld, false
		case elseTerm:
			return thenHeld, false
		default:
			return union(thenHeld, elseHeld), false
		}

	case *ast.ForStmt:
		if s.Init != nil {
			held, _ = w.walkStmt(s.Init, held)
		}
		if s.Cond != nil {
			w.checkExpr(s.Cond, held)
		}
		bodyHeld, _ := w.walkStmts(s.Body.List, held.Clone())
		if s.Post != nil {
			w.walkStmt(s.Post, bodyHeld)
		}
		return union(held, bodyHeld), false

	case *ast.RangeStmt:
		w.checkExpr(s.X, held)
		bodyHeld, _ := w.walkStmts(s.Body.List, held.Clone())
		return union(held, bodyHeld), false

	case *ast.SwitchStmt:
		if s.Init != nil {
			held, _ = w.walkStmt(s.Init, held)
		}
		if s.Tag != nil {
			w.checkExpr(s.Tag, held)
		}
		return w.walkCases(s.Body, held)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			held, _ = w.walkStmt(s.Init, held)
		}
		return w.walkCases(s.Body, held)

	case *ast.SelectStmt:
		blocking := true
		for _, cl := range s.Body.List {
			if cl.(*ast.CommClause).Comm == nil {
				blocking = false // has a default clause
			}
		}
		out := held.Clone()
		for _, cl := range s.Body.List {
			comm := cl.(*ast.CommClause)
			if send, ok := comm.Comm.(*ast.SendStmt); ok && blocking && w.OnSend != nil {
				w.OnSend(send.Arrow, held)
			}
			caseHeld, term := w.walkStmts(comm.Body, held.Clone())
			if !term {
				out = union(out, caseHeld)
			}
		}
		return out, false

	case *ast.LabeledStmt:
		return w.walkStmt(s.Stmt, held)

	default:
		return held, false
	}
}

// walkCases merges the lock state of every non-terminating case clause. A
// switch is never treated as terminating: without a default clause the
// fall-through path exists.
func (w *Walker) walkCases(body *ast.BlockStmt, held Held) (Held, bool) {
	out := held.Clone()
	for _, cl := range body.List {
		cc, ok := cl.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, e := range cc.List {
			w.checkExpr(e, held)
		}
		caseHeld, term := w.walkStmts(cc.Body, held.Clone())
		if !term {
			out = union(out, caseHeld)
		}
	}
	return out, false
}

// checkExpr reports calls inside e with the current held set. Function
// literals are walked with fresh state.
func (w *Walker) checkExpr(e ast.Expr, held Held) {
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			w.WalkFunc(n.Body)
			return false
		case *ast.CallExpr:
			if mu, op := w.mutexOp(n); op != OpNone {
				// A lock op in expression position (rare: inside a bigger
				// expression) still changes the held set.
				if op == OpLock {
					held[mu] = n.Pos()
				} else {
					delete(held, mu)
				}
				return true
			}
			if w.OnCall != nil {
				w.OnCall(n, held)
			}
		}
		return true
	})
}

// walkFuncLits analyzes any function literals among a call's fun/args with
// fresh lock state.
func (w *Walker) walkFuncLits(call *ast.CallExpr) {
	ast.Inspect(call, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			w.WalkFunc(fl.Body)
			return false
		}
		return true
	})
}

// isPanicCall reports whether e is a call to the builtin panic.
func isPanicCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}

// Callee resolves a call's static callee, or nil for dynamic calls and
// builtins.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}
