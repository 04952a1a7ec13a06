// Package readview implements REMIX-style cached sorted views over the
// overlapping sorted runs of one immutable LSM version.
//
// A k-way heap merge pays O(log k) comparisons per Next. A sorted view
// replaces that with a precomputed *global order*: one pass over the runs
// records, for every entry, which run supplies it (the selector), plus an
// anchor key every AnchorInterval entries. Steady-state iteration then
// advances one run cursor per Next with zero key comparisons; SeekGE
// binary-searches the anchors, restores each run cursor with a single
// SeekGE to the anchor key, and walks at most AnchorInterval-1 selectors
// forward.
//
// A View covers exactly the runs of one immutable manifest version, so it
// is built at most once per version (once scans of the version have earned
// it, see Cache) and shared by every iterator over that version — including snapshot reads, because the view
// records the raw physical merge (all versions and tombstones); visibility
// filtering stays in the engine's iterator. When a flush or compaction
// installs a new version the cache entry is invalidated; scans already
// running keep their (immutable) view and their pinned version.
package readview

import (
	"fmt"

	"repro/internal/base"
	"repro/internal/iterator"
)

// DefaultAnchorInterval is the default spacing of anchor keys: the bound on
// the selector walk a SeekGE performs after restoring the run cursors, and
// the per-entry memory trade-off (one cloned key per interval).
const DefaultAnchorInterval = 32

// MaxRuns bounds the number of runs a view can cover (selectors are uint16).
const MaxRuns = 1 << 16

// View is the immutable sorted view over one version's runs: the selector
// sequence of the full merge plus periodic anchor keys. Safe for concurrent
// use by any number of Iters; each Iter supplies its own run cursors.
type View struct {
	anchors   []base.InternalKey // key of every interval-th entry of the merge
	selectors []uint16           // per entry, the run that supplies it
	interval  int
}

// Build materializes the view by running the k-way merge once over the
// given run iterators. The run order is significant: ties on equal internal
// keys resolve to the lower index, and Iter must be given cursors over the
// same runs in the same order. anchorInterval <= 0 selects the default.
func Build(runs []iterator.Internal, anchorInterval int) (*View, error) {
	if anchorInterval <= 0 {
		anchorInterval = DefaultAnchorInterval
	}
	if len(runs) > MaxRuns {
		return nil, fmt.Errorf("readview: %d runs exceeds the %d-run limit", len(runs), MaxRuns)
	}
	v := &View{interval: anchorInterval}
	m := iterator.NewMerge(runs...)
	for ok := m.First(); ok; ok = m.Next() {
		if len(v.selectors)%anchorInterval == 0 {
			v.anchors = append(v.anchors, m.Key().Clone())
		}
		v.selectors = append(v.selectors, uint16(m.Source()))
	}
	if err := m.Error(); err != nil {
		return nil, err
	}
	return v, nil
}

// NumEntries returns the total entry count of the merged view.
func (v *View) NumEntries() int { return len(v.selectors) }

// Iter walks a View using one cursor per run. It implements
// iterator.Internal, so the engine composes it under its merging iterator
// exactly like any other source (memtables stay separate heap sources above
// it). Not safe for concurrent use.
//
// Invariant while positioned at global entry p: the cursor of run
// selectors[p] sits exactly on entry p, and every other cursor sits on its
// own first entry with global index > p (or is exhausted). Next therefore
// advances a single cursor and performs no comparisons.
type Iter struct {
	view *View
	runs []iterator.Internal
	pos  int
	err  error
}

// NewIter returns an iterator over view. runs must be cursors over the same
// runs, in the same order, as the Build call that produced view.
func NewIter(view *View, runs []iterator.Internal) *Iter {
	return &Iter{view: view, runs: runs, pos: view.NumEntries()}
}

// cur returns the cursor supplying the current entry, validating the
// invariant: a desynced cursor (possible only if the underlying runs
// changed out from under the view, which the version pin is meant to
// prevent) surfaces as an error rather than silent corruption.
func (i *Iter) cur() iterator.Internal {
	r := i.runs[i.view.selectors[i.pos]]
	if !r.Valid() {
		if err := r.Error(); err != nil {
			i.err = err
		} else if i.err == nil {
			i.err = fmt.Errorf("readview: cursor desync at entry %d (run %d exhausted)",
				i.pos, i.view.selectors[i.pos])
		}
		i.pos = i.view.NumEntries()
		return nil
	}
	return r
}

// First positions on the view's first entry.
func (i *Iter) First() bool {
	i.err = nil
	i.pos = 0
	if i.view.NumEntries() == 0 {
		return false
	}
	for _, r := range i.runs {
		if !r.First() {
			if err := r.Error(); err != nil {
				i.err = err
				i.pos = i.view.NumEntries()
				return false
			}
		}
	}
	return i.cur() != nil
}

// SeekGE positions on the first entry >= target: binary search the anchors
// for the segment containing target, restore every run cursor with one
// SeekGE to the segment's anchor key, then walk the selectors forward
// (bounded by the anchor interval).
func (i *Iter) SeekGE(target base.InternalKey) bool {
	i.err = nil
	n := i.view.NumEntries()
	if n == 0 {
		i.pos = 0
		return false
	}
	// Last anchor <= target; anchors[0] is the global minimum, so seg 0
	// also covers targets below every key.
	lo, hi := 0, len(i.view.anchors)
	for lo < hi {
		mid := (lo + hi) / 2
		if i.view.anchors[mid].Compare(target) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	seg := lo - 1
	if seg < 0 {
		seg = 0
	}
	anchor := i.view.anchors[seg]
	i.pos = seg * i.view.interval
	// Every entry before i.pos has an internal key strictly below the
	// anchor (internal keys are unique within a version), so seeking each
	// run to the anchor lands each cursor on its first entry with global
	// index >= i.pos — exactly the iteration invariant.
	for _, r := range i.runs {
		if !r.SeekGE(anchor) {
			if err := r.Error(); err != nil {
				i.err = err
				i.pos = n
				return false
			}
		}
	}
	for i.pos < n {
		r := i.cur()
		if r == nil {
			return false
		}
		if r.Key().Compare(target) >= 0 {
			return true
		}
		if !i.advance(r) {
			return false
		}
	}
	return false
}

// advance steps the current entry's cursor and moves to the next global
// position. A cursor running dry here is normal (its run has no further
// entries); a later desync would be caught by cur.
func (i *Iter) advance(r iterator.Internal) bool {
	if !r.Next() {
		if err := r.Error(); err != nil {
			i.err = err
			i.pos = i.view.NumEntries()
			return false
		}
	}
	i.pos++
	return true
}

// Next advances past the current entry.
func (i *Iter) Next() bool {
	if !i.Valid() {
		return false
	}
	if !i.advance(i.runs[i.view.selectors[i.pos]]) {
		return false
	}
	if i.pos >= i.view.NumEntries() {
		return false
	}
	return i.cur() != nil
}

// Valid reports whether the iterator is positioned on an entry.
func (i *Iter) Valid() bool { return i.err == nil && i.pos < i.view.NumEntries() }

// Key returns the current internal key.
func (i *Iter) Key() base.InternalKey { return i.runs[i.view.selectors[i.pos]].Key() }

// Value returns the current value.
func (i *Iter) Value() []byte { return i.runs[i.view.selectors[i.pos]].Value() }

// Error returns the first error encountered.
func (i *Iter) Error() error { return i.err }

// Close closes every run cursor and leaves the iterator unpositioned.
func (i *Iter) Close() {
	for _, r := range i.runs {
		r.Close()
	}
	i.pos = i.view.NumEntries()
}
