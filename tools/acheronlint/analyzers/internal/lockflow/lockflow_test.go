package lockflow

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// prelude is shared by every case: two package-level mutexes, a struct with
// one, a channel and two callees.
const prelude = `package p

import "sync"

var mu, mu2 sync.Mutex

type T struct{ mu sync.RWMutex }

var ch chan int

func g() {}
func h() {}
`

// events type-checks prelude+body, walks the function f that body declares,
// and renders what the hooks saw: one "event subject {held,set}" string per
// firing. The held set is observed at calls and sends only.
func events(t *testing.T, body string, name func(ast.Expr) string) []string {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", prelude+body, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	if _, err := conf.Check("p", fset, []*ast.File{f}, info); err != nil {
		t.Fatalf("type-check: %v", err)
	}

	var out []string
	record := func(ev string, held Held) {
		keys := make([]string, 0, len(held))
		for k := range held {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		out = append(out, fmt.Sprintf("%s {%s}", ev, strings.Join(keys, ",")))
	}
	w := &Walker{
		Info: info,
		Name: name,
		OnCall: func(call *ast.CallExpr, held Held) {
			fun := "func"
			if id, ok := call.Fun.(*ast.Ident); ok {
				fun = id.Name
			}
			record("call "+fun, held)
		},
		OnSend: func(_ token.Pos, held Held) { record("send", held) },
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil && fd.Name.Name == "f" {
			w.WalkFunc(fd.Body)
		}
	}
	return out
}

func TestWalker(t *testing.T) {
	cases := []struct {
		name string
		body string // declares f
		Name func(ast.Expr) string
		want []string
	}{
		{
			name: "unlock-then-return in a branch does not leak into the fall-through",
			body: `func f(c bool) {
				mu.Lock()
				if c {
					mu.Unlock()
					return
				}
				g()
				mu.Unlock()
				g()
			}`,
			want: []string{"call g {p.mu}", "call g {}"},
		},
		{
			name: "both branches falling through merge",
			body: `func f(c bool) {
				if c {
					mu.Lock()
				} else {
					mu2.Lock()
				}
				g()
			}`,
			want: []string{"call g {p.mu,p.mu2}"},
		},
		{
			name: "defer Unlock holds to function end",
			body: `func f() {
				mu.Lock()
				defer mu.Unlock()
				g()
			}`,
			want: []string{"call g {p.mu}"},
		},
		{
			name: "a deferred call is not reported, its arguments are",
			body: `func f() {
				mu.Lock()
				defer print(len("x"))
				mu.Unlock()
			}`,
			want: []string{"call len {p.mu}"},
		},
		{
			name: "for merges the body's state into the fall-through",
			body: `func f(n int) {
				for i := 0; i < n; i++ {
					mu.Lock()
				}
				g()
			}`,
			want: []string{"call g {p.mu}"},
		},
		{
			name: "range merges the body's state into the fall-through",
			body: `func f(xs []int) {
				mu.Lock()
				for range xs {
					mu.Unlock()
					h()
					mu2.Lock()
				}
				g()
			}`,
			want: []string{"call h {}", "call g {p.mu,p.mu2}"},
		},
		{
			name: "switch merges non-terminating clauses only",
			body: `func f(x int) {
				switch x {
				case 1:
					mu.Lock()
				case 2:
					mu2.Lock()
					return
				}
				g()
			}`,
			want: []string{"call g {p.mu}"},
		},
		{
			name: "select merges non-terminating clauses only",
			body: `func f() {
				select {
				case <-ch:
					mu.Lock()
				case v := <-ch:
					_ = v
					mu2.Lock()
					panic("x")
				}
				g()
			}`,
			want: []string{"call panic {p.mu2}", "call g {p.mu}"},
		},
		{
			name: "a function literal and a go statement start with an empty set",
			body: `func f() {
				mu.Lock()
				func() { g() }()
				go func() { h() }()
				go h()
				mu.Unlock()
			}`,
			want: []string{"call func {p.mu}", "call g {}", "call h {}"},
		},
		{
			name: "a send statement fires OnSend after its operands' calls",
			body: `func f() {
				mu.Lock()
				ch <- len("x")
				mu.Unlock()
				ch <- 1
			}`,
			want: []string{"call len {p.mu}", "send {p.mu}", "send {}"},
		},
		{
			name: "select with default fires no OnSend",
			body: `func f() {
				mu.Lock()
				select {
				case ch <- 1:
				default:
				}
				g()
				mu.Unlock()
			}`,
			want: []string{"call g {p.mu}"},
		},
		{
			name: "select without default fires OnSend once per send case",
			body: `func f() {
				mu.Lock()
				select {
				case ch <- 1:
				case ch <- 2:
				case <-ch:
				}
				mu.Unlock()
			}`,
			want: []string{"send {p.mu}", "send {p.mu}"},
		},
		{
			name: "nil Name keys a field lock canonically, RLock and Lock alike",
			body: `func f(a, b *T) {
				a.mu.RLock()
				b.mu.Lock()
				h()
				a.mu.RUnlock()
				g()
			}`,
			want: []string{"call h {p.T.mu}", "call g {}"},
		},
		{
			name: "a non-nil Name is used verbatim",
			body: `func f(a, b *T) {
				a.mu.RLock()
				b.mu.Lock()
				h()
				a.mu.RUnlock()
				g()
			}`,
			Name: types.ExprString,
			want: []string{"call h {a.mu,b.mu}", "call g {b.mu}"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := events(t, tc.body, tc.Name); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("events\n got %q\nwant %q", got, tc.want)
			}
		})
	}
}
