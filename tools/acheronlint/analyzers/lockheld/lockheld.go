// Package lockheld flags I/O performed while a sync.Mutex or sync.RWMutex
// locked in the same function is still held, plus blocking channel sends
// under such a lock.
//
// Holding the engine's mutexes across disk I/O is the classic LSM stall:
// every Put blocks behind a manifest fsync, every read blocks behind a
// flush. The analyzer tracks lock state function-locally with a lightweight
// branch-aware walk: Lock/RLock adds the mutex, Unlock/RUnlock on the same
// control-flow path removes it, `defer mu.Unlock()` holds it to function
// end, and a branch that unlocks-then-returns does not leak its unlock into
// the fall-through path. I/O is recognized by callee: any os.* function, any
// vfs FS/File method, and the durability entry points of the wal, sstable,
// and manifest packages. Function literals run on their own goroutine or
// call path and are analyzed with fresh state.
//
// The analysis is intentionally function-local: a helper that requires "mu
// held" documents that contract at its call sites, which is where the
// //lint:ignore lockheld <reason> annotation (for intentional
// serialization, e.g. WAL append under the commit mutex) belongs.
package lockheld

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/tools/acheronlint/lintframe"
)

// Analyzer is the lockheld analyzer.
var Analyzer = &lintframe.Analyzer{
	Name: "lockheld",
	Doc:  "flags I/O calls and blocking channel sends while a mutex locked in the same function is held",
	Run:  run,
}

// ioMethods maps package-path suffixes to the callee names treated as I/O.
// An empty name set means every *method* in the package counts (used for
// vfs, whose FS/File implementations are wholly I/O); otherwise both
// methods and package-level functions with a listed name count.
var ioMethods = map[string]map[string]bool{
	"internal/vfs":         nil,
	"internal/vfs/errorfs": nil,
	"internal/wal": {
		"AddRecord": true, "AddRecords": true, "Sync": true, "Close": true,
		"NewReader": true,
	},
	"internal/sstable": {
		"Open": true, "NewReader": true, "Get": true, "NewIter": true,
		"Add": true, "AddRangeTombstone": true, "Finish": true, "Close": true,
	},
	"internal/manifest": {
		"LogAndApply": true, "Commit": true,
		"Create": true, "Load": true, "Close": true,
	},
}

func run(pass *lintframe.Pass) error {
	c := &checker{pass: pass}
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				c.checkFunc(fd.Body)
			}
		}
	}
	return nil
}

type checker struct {
	pass *lintframe.Pass
}

// lockState maps a mutex expression (rendered as source, e.g. "d.mu") to
// the position where it was locked.
type lockState map[string]token.Pos

func (ls lockState) clone() lockState {
	out := make(lockState, len(ls))
	for k, v := range ls {
		out[k] = v
	}
	return out
}

// checkFunc analyzes one function body with empty initial lock state.
func (c *checker) checkFunc(body *ast.BlockStmt) {
	c.walkStmts(body.List, lockState{})
}

// walkStmts walks a statement list, threading lock state through it, and
// reports whether control definitely leaves the enclosing function or loop
// at the end (return, branch, panic).
func (c *checker) walkStmts(list []ast.Stmt, held lockState) (lockState, bool) {
	for _, s := range list {
		var term bool
		held, term = c.walkStmt(s, held)
		if term {
			return held, true
		}
	}
	return held, false
}

func (c *checker) walkStmt(s ast.Stmt, held lockState) (lockState, bool) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if mu, op := c.mutexOp(s.X); op == opLock {
			held[mu] = s.Pos()
			return held, false
		} else if op == opUnlock {
			delete(held, mu)
			return held, false
		}
		c.checkExpr(s.X, held)
		return held, isPanicCall(s.X)

	case *ast.DeferStmt:
		if _, op := c.mutexOp(s.Call); op == opUnlock {
			// Held until function end; nothing to remove. Later explicit
			// I/O in this function still runs under the lock.
			return held, false
		}
		// The deferred call itself runs at function exit with unknowable
		// lock state; only its argument expressions evaluate now.
		for _, arg := range s.Call.Args {
			c.checkExpr(arg, held)
		}
		c.checkFuncLits(s.Call)
		return held, false

	case *ast.GoStmt:
		for _, arg := range s.Call.Args {
			c.checkExpr(arg, held)
		}
		c.checkFuncLits(s.Call) // goroutine body starts with its own state
		return held, false

	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			c.checkExpr(e, held)
		}
		for _, e := range s.Lhs {
			c.checkExpr(e, held)
		}
		return held, false

	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						c.checkExpr(e, held)
					}
				}
			}
		}
		return held, false

	case *ast.ReturnStmt:
		for _, e := range s.Results {
			c.checkExpr(e, held)
		}
		return held, true

	case *ast.BranchStmt:
		return held, true

	case *ast.IncDecStmt:
		c.checkExpr(s.X, held)
		return held, false

	case *ast.SendStmt:
		c.checkExpr(s.Chan, held)
		c.checkExpr(s.Value, held)
		c.reportSend(s.Arrow, held)
		return held, false

	case *ast.BlockStmt:
		return c.walkStmts(s.List, held)

	case *ast.IfStmt:
		if s.Init != nil {
			held, _ = c.walkStmt(s.Init, held)
		}
		c.checkExpr(s.Cond, held)
		thenHeld, thenTerm := c.walkStmts(s.Body.List, held.clone())
		elseHeld, elseTerm := held, false
		if s.Else != nil {
			elseHeld, elseTerm = c.walkStmt(s.Else, held.clone())
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
			held, _ = c.walkStmt(s.Init, held)
		}
		if s.Cond != nil {
			c.checkExpr(s.Cond, held)
		}
		bodyHeld, _ := c.walkStmts(s.Body.List, held.clone())
		if s.Post != nil {
			c.walkStmt(s.Post, bodyHeld)
		}
		return union(held, bodyHeld), false

	case *ast.RangeStmt:
		c.checkExpr(s.X, held)
		bodyHeld, _ := c.walkStmts(s.Body.List, held.clone())
		return union(held, bodyHeld), false

	case *ast.SwitchStmt:
		if s.Init != nil {
			held, _ = c.walkStmt(s.Init, held)
		}
		if s.Tag != nil {
			c.checkExpr(s.Tag, held)
		}
		return c.walkCases(s.Body, held)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			held, _ = c.walkStmt(s.Init, held)
		}
		return c.walkCases(s.Body, held)

	case *ast.SelectStmt:
		blocking := true
		for _, cl := range s.Body.List {
			if comm, ok := cl.(*ast.CommClause); ok && comm.Comm == nil {
				blocking = false // has a default clause
			}
		}
		out := held.clone()
		for _, cl := range s.Body.List {
			comm := cl.(*ast.CommClause)
			if send, ok := comm.Comm.(*ast.SendStmt); ok && blocking {
				c.reportSend(send.Arrow, held)
			}
			caseHeld, term := c.walkStmts(comm.Body, held.clone())
			if !term {
				out = union(out, caseHeld)
			}
		}
		return out, false

	case *ast.LabeledStmt:
		return c.walkStmt(s.Stmt, held)

	default:
		return held, false
	}
}

// walkCases merges the lock state of every non-terminating case clause. A
// switch is never treated as terminating: without a default clause the
// fall-through path exists.
func (c *checker) walkCases(body *ast.BlockStmt, held lockState) (lockState, bool) {
	out := held.clone()
	for _, cl := range body.List {
		cc, ok := cl.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, e := range cc.List {
			c.checkExpr(e, held)
		}
		caseHeld, term := c.walkStmts(cc.Body, held.clone())
		if !term {
			out = union(out, caseHeld)
		}
	}
	return out, false
}

// checkExpr reports I/O calls inside e performed while locks are held.
// Function literals are skipped here and analyzed with fresh state.
func (c *checker) checkExpr(e ast.Expr, held lockState) {
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			c.checkFunc(n.Body)
			return false
		case *ast.CallExpr:
			if len(held) > 0 {
				if name := c.ioCallee(n); name != "" {
					mu, pos := anyLock(held)
					c.pass.Reportf(n.Pos(),
						"I/O call %s while %q is held (locked at %s); hoist the I/O out of the critical section or annotate with //lint:ignore lockheld <reason>",
						name, mu, c.pass.Fset.Position(pos))
				}
			}
		}
		return true
	})
}

// checkFuncLits analyzes any function literals among a call's fun/args.
func (c *checker) checkFuncLits(call *ast.CallExpr) {
	ast.Inspect(call, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			c.checkFunc(fl.Body)
			return false
		}
		return true
	})
}

func (c *checker) reportSend(pos token.Pos, held lockState) {
	if len(held) == 0 {
		return
	}
	mu, lpos := anyLock(held)
	c.pass.Reportf(pos,
		"blocking channel send while %q is held (locked at %s); send outside the critical section or use a non-blocking select", mu, c.pass.Fset.Position(lpos))
}

type mutexOpKind int

const (
	opNone mutexOpKind = iota
	opLock
	opUnlock
)

// mutexOp recognizes m.Lock/RLock/Unlock/RUnlock calls on sync mutexes and
// returns the rendered mutex expression and operation.
func (c *checker) mutexOp(e ast.Expr) (string, mutexOpKind) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return "", opNone
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", opNone
	}
	fn, ok := c.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", opNone
	}
	switch fn.Name() {
	case "Lock", "RLock":
		return types.ExprString(sel.X), opLock
	case "Unlock", "RUnlock":
		return types.ExprString(sel.X), opUnlock
	}
	return "", opNone
}

// ioCallee returns a printable name if the call's callee is an I/O function
// per ioMethods or the os package, else "". Method calls are attributed to
// the receiver's declared type as well as the method's declaring package,
// so promoted interface methods (vfs.File.Close from io.Closer) count.
func (c *checker) ioCallee(call *ast.CallExpr) string {
	var id *ast.Ident
	var paths []string
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		id = fun.Sel
		paths = lintframe.CalleePkgPaths(c.pass.TypesInfo, fun)
	case *ast.Ident:
		id = fun
	default:
		return ""
	}
	fn, ok := c.pass.TypesInfo.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return ""
	}
	if len(paths) == 0 {
		paths = []string{fn.Pkg().Path()}
	}
	sig, _ := fn.Type().(*types.Signature)
	isMethod := sig != nil && sig.Recv() != nil
	for _, path := range paths {
		if path == "os" {
			if isMethod {
				return types.ExprString(call.Fun)
			}
			return "os." + fn.Name()
		}
		for suf, names := range ioMethods {
			if !strings.HasSuffix(path, suf) {
				continue
			}
			if names == nil {
				if isMethod {
					return types.ExprString(call.Fun)
				}
				continue
			}
			if names[fn.Name()] {
				return types.ExprString(call.Fun)
			}
		}
	}
	return ""
}

// anyLock returns one held mutex (the lexically smallest for determinism).
func anyLock(held lockState) (string, token.Pos) {
	best := ""
	for k := range held {
		if best == "" || k < best {
			best = k
		}
	}
	return best, held[best]
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

// union merges two lock states, preferring a's positions.
func union(a, b lockState) lockState {
	out := a.clone()
	for k, v := range b {
		if _, ok := out[k]; !ok {
			out[k] = v
		}
	}
	return out
}
