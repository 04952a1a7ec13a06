// Package lockheld flags I/O performed while a sync.Mutex or sync.RWMutex
// locked in the same function is still held, plus blocking channel sends
// under such a lock.
//
// Holding the engine's mutexes across disk I/O is the classic LSM stall:
// every Put blocks behind a manifest fsync, every read blocks behind a
// flush. Lock state is tracked function-locally by lockflow.Walker, the
// branch-aware walk condloop also stands on: Lock/RLock adds
// the mutex, Unlock/RUnlock on the same control-flow path removes it — also
// when the call is nested inside a larger expression — `defer mu.Unlock()`
// holds it to function end, a branch that unlocks-then-returns does not leak
// its unlock into the fall-through path, and function literals are analyzed
// with fresh state. What is lockheld's own is the two hooks it hangs on the
// walk. I/O is recognized by callee: any os.* function, any vfs FS/File
// method, and the durability entry points of the wal, sstable, and manifest
// packages. A send can block when it is a send statement or a send case of a
// select without a default clause.
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

	"repro/tools/acheronlint/analyzers/internal/lockflow"
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
		"Commit": true,
		"Create": true, "Load": true, "Close": true,
	},
}

func run(pass *lintframe.Pass) error {
	c := &checker{pass: pass}
	w := &lockflow.Walker{
		Info: pass.TypesInfo,
		// Source-text names, not canonical ones: see lockflow.Walker.Name.
		Name:   types.ExprString,
		OnCall: c.checkCall,
		OnSend: c.checkSend,
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				w.WalkFunc(fd.Body)
			}
		}
	}
	return nil
}

type checker struct {
	pass *lintframe.Pass
}

// checkCall is the walk's OnCall hook: an I/O callee under any held lock.
func (c *checker) checkCall(call *ast.CallExpr, held lockflow.Held) {
	if len(held) == 0 {
		return
	}
	if name := c.ioCallee(call); name != "" {
		mu, pos := anyLock(held)
		c.pass.Reportf(call.Pos(),
			"I/O call %s while %q is held (locked at %s); hoist the I/O out of the critical section or annotate with //lint:ignore lockheld <reason>",
			name, mu, c.pass.Fset.Position(pos))
	}
}

// checkSend is the walk's OnSend hook: a send that can block under any held
// lock.
func (c *checker) checkSend(arrow token.Pos, held lockflow.Held) {
	if len(held) == 0 {
		return
	}
	mu, pos := anyLock(held)
	c.pass.Reportf(arrow,
		"blocking channel send while %q is held (locked at %s); send outside the critical section or use a non-blocking select", mu, c.pass.Fset.Position(pos))
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
		paths = calleePkgPaths(c.pass.TypesInfo, fun)
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

// calleePkgPaths returns the candidate package paths a method call should be
// attributed to: the static type of the receiver expression (after
// dereferencing pointers) and the method's declaring package. Both matter —
// embedded interfaces promote methods into another package (vfs.File.Close
// is declared by io.Closer), so classifying by declaring package alone
// misses exactly the calls a storage engine cares about.
func calleePkgPaths(info *types.Info, sel *ast.SelectorExpr) []string {
	var out []string
	if tv, ok := info.Types[sel.X]; ok && tv.Type != nil {
		t := tv.Type
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil {
			out = append(out, named.Obj().Pkg().Path())
		}
	}
	if fn, ok := info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil {
		out = append(out, fn.Pkg().Path())
	}
	return out
}

// anyLock returns one held mutex (the lexically smallest for determinism).
func anyLock(held lockflow.Held) (string, token.Pos) {
	best := ""
	for k := range held {
		if best == "" || k < best {
			best = k
		}
	}
	return best, held[best]
}
