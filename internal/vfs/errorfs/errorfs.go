// Package errorfs wraps a vfs.FS with deterministic, seedable fault
// injection. Rules match on operation kind, a glob over the file's base
// name, and either a countdown (the Nth matching operation fires) or a
// probability drawn from a seeded PRNG; a fired rule produces a typed fault:
// a transient I/O error, a sticky out-of-space error, or a read-side
// bit-flip. Rules may also carry no fault at all and only run a Hook, which
// is how crash-recovery tests capture a MemFS.CrashClone at an exact
// injection point.
//
// All injected errors wrap ErrInjected; ENOSPC faults additionally wrap
// vfs.ErrNoSpace so the engine's background-error classifier treats them as
// permanent.
package errorfs

import (
	"errors"
	"fmt"
	"math/rand"
	"path"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/vfs"
)

// Op identifies the filesystem operation a rule matches.
type Op int

const (
	OpCreate Op = iota
	OpOpen
	OpRead
	OpWrite
	OpSync
	OpRemove
	OpRename
)

func (o Op) String() string {
	switch o {
	case OpCreate:
		return "create"
	case OpOpen:
		return "open"
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpSync:
		return "sync"
	case OpRemove:
		return "remove"
	case OpRename:
		return "rename"
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Kind selects the fault a fired rule produces.
type Kind int

const (
	// FaultNone injects no error; the rule exists for its Hook (e.g. to
	// snapshot a crash clone at a precise point) and the operation proceeds
	// normally.
	FaultNone Kind = iota
	// FaultTransient is a generic injected I/O error the engine should
	// treat as retriable.
	FaultTransient
	// FaultNoSpace is an out-of-space error (wraps vfs.ErrNoSpace); the
	// engine treats it as permanent.
	FaultNoSpace
	// FaultCorrupt flips one bit in the result of a ReadAt instead of
	// returning an error, so checksum verification downstream must catch
	// it. On non-read operations it behaves like FaultTransient.
	FaultCorrupt
)

func (k Kind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultTransient:
		return "transient"
	case FaultNoSpace:
		return "nospace"
	case FaultCorrupt:
		return "corrupt"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// ErrInjected is the sentinel every injected error wraps.
var ErrInjected = errors.New("errorfs: injected fault")

// Error is the typed fault returned by a fired rule. It wraps ErrInjected,
// and for FaultNoSpace also vfs.ErrNoSpace.
type Error struct {
	Op   Op
	Path string
	Kind Kind
}

func (e *Error) Error() string {
	return fmt.Sprintf("errorfs: injected %s fault on %s %s", e.Kind, e.Op, e.Path)
}

// Unwrap lets errors.Is find both the injection sentinel and, for ENOSPC
// faults, the canonical vfs.ErrNoSpace.
func (e *Error) Unwrap() []error {
	if e.Kind == FaultNoSpace {
		return []error{ErrInjected, vfs.ErrNoSpace}
	}
	return []error{ErrInjected}
}

// Rule describes when a fault fires and what it does. Match fields are ANDed;
// zero values match everything.
type Rule struct {
	// Ops restricts the rule to these operations; empty matches all.
	Ops []Op
	// PathGlob is matched (path.Match) against the base name of the file;
	// empty matches all. For renames both names are tried.
	PathGlob string
	// Countdown, when > 0, makes the rule fire on the Nth matching
	// operation: each match decrements it and the rule fires when it
	// reaches zero. Deterministic regardless of seed.
	Countdown int
	// Prob, when > 0, makes each matching operation fire with this
	// probability, drawn from the FS's seeded PRNG. If both Countdown and
	// Prob are zero the rule fires on every match.
	Prob float64
	// Sticky keeps the rule armed after it fires; otherwise it disarms
	// after the first firing.
	Sticky bool
	// Kind is the fault to produce.
	Kind Kind
	// Hook, if set, runs when the rule fires, before any error is
	// returned. It must not call back into this FS (the rule mutex is
	// held); the underlying FS (e.g. the wrapped MemFS) is fine.
	Hook func(op Op, path string)

	fired    atomic.Int64
	disarmed bool
}

// Fired returns how many times the rule has fired.
func (r *Rule) Fired() int { return int(r.fired.Load()) }

// FS wraps an inner vfs.FS with fault-injection rules.
type FS struct {
	inner vfs.FS

	mu    sync.Mutex
	rng   *rand.Rand
	rules []*Rule
}

// Wrap returns an errorfs around inner. seed drives probability-based rules;
// countdown-based rules are deterministic regardless of seed.
func Wrap(inner vfs.FS, seed int64) *FS {
	return &FS{inner: inner, rng: rand.New(rand.NewSource(seed))}
}

// Add installs a rule and returns it so callers can poll Fired.
func (fs *FS) Add(r *Rule) *Rule {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.rules = append(fs.rules, r)
	return r
}

// Clear removes all rules.
func (fs *FS) Clear() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.rules = nil
}

// check runs the rule table for op on name and returns the fault to apply:
// a nil error and corrupt=false when nothing fires. At most one rule fires
// per operation (the first match wins).
func (fs *FS) check(op Op, name string) (err error, corrupt bool) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	base := filepath.Base(name)
	for _, r := range fs.rules {
		//lint:ignore lockheld matchesOp is a pure predicate on rule fields, not I/O
		if r.disarmed || !r.matchesOp(op) {
			continue
		}
		if r.PathGlob != "" {
			if ok, _ := path.Match(r.PathGlob, base); !ok {
				continue
			}
		}
		switch {
		case r.Countdown > 0:
			// Fire on the Nth match. A Sticky rule then keeps firing
			// (Countdown stays 0, falling into the every-match case).
			r.Countdown--
			if r.Countdown > 0 {
				continue
			}
		case r.Prob > 0:
			if fs.rng.Float64() >= r.Prob {
				continue
			}
		default:
			// Countdown and Prob both zero: fire on every match.
		}
		r.fired.Add(1)
		if !r.Sticky {
			r.disarmed = true
		}
		if r.Hook != nil {
			r.Hook(op, name)
		}
		switch r.Kind {
		case FaultNone:
			return nil, false
		case FaultCorrupt:
			if op == OpRead {
				return nil, true
			}
			return &Error{Op: op, Path: name, Kind: FaultTransient}, false
		default:
			return &Error{Op: op, Path: name, Kind: r.Kind}, false
		}
	}
	return nil, false
}

func (r *Rule) matchesOp(op Op) bool {
	if len(r.Ops) == 0 {
		return true
	}
	for _, o := range r.Ops {
		if o == op {
			return true
		}
	}
	return false
}

// Create implements vfs.FS.
func (fs *FS) Create(name string) (vfs.File, error) {
	if err, _ := fs.check(OpCreate, name); err != nil {
		return nil, err
	}
	f, err := fs.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &file{fs: fs, inner: f, name: name}, nil
}

// Open implements vfs.FS.
func (fs *FS) Open(name string) (vfs.File, error) {
	if err, _ := fs.check(OpOpen, name); err != nil {
		return nil, err
	}
	f, err := fs.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &file{fs: fs, inner: f, name: name}, nil
}

// Remove implements vfs.FS.
func (fs *FS) Remove(name string) error {
	if err, _ := fs.check(OpRemove, name); err != nil {
		return err
	}
	return fs.inner.Remove(name)
}

// Rename implements vfs.FS.
func (fs *FS) Rename(oldname, newname string) error {
	if err, _ := fs.check(OpRename, oldname); err != nil {
		return err
	}
	return fs.inner.Rename(oldname, newname)
}

// List implements vfs.FS.
func (fs *FS) List(dir string) ([]string, error) { return fs.inner.List(dir) }

// MkdirAll implements vfs.FS.
func (fs *FS) MkdirAll(dir string) error { return fs.inner.MkdirAll(dir) }

// Exists implements vfs.FS.
func (fs *FS) Exists(name string) bool { return fs.inner.Exists(name) }

// file wraps a vfs.File so read/write/sync pass through the rule table.
type file struct {
	fs    *FS
	inner vfs.File
	name  string
}

func (f *file) Write(p []byte) (int, error) {
	if err, _ := f.fs.check(OpWrite, f.name); err != nil {
		return 0, err
	}
	return f.inner.Write(p)
}

func (f *file) WriteAt(p []byte, off int64) (int, error) {
	if err, _ := f.fs.check(OpWrite, f.name); err != nil {
		return 0, err
	}
	return f.inner.WriteAt(p, off)
}

func (f *file) ReadAt(p []byte, off int64) (int, error) {
	err, corrupt := f.fs.check(OpRead, f.name)
	if err != nil {
		return 0, err
	}
	n, rerr := f.inner.ReadAt(p, off)
	if corrupt && n > 0 {
		// Deterministic bit-flip: offset within the read derived from the
		// file offset so repeated reads corrupt the same byte.
		p[int(off)%n] ^= 0x40
	}
	return n, rerr
}

func (f *file) Sync() error {
	if err, _ := f.fs.check(OpSync, f.name); err != nil {
		return err
	}
	return f.inner.Sync()
}

func (f *file) Size() (int64, error) { return f.inner.Size() }

func (f *file) Close() error { return f.inner.Close() }
