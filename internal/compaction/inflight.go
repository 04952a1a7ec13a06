package compaction

import (
	"repro/internal/base"
	"repro/internal/manifest"
)

// Rect is a claim rectangle: the level range [MinLevel, MaxLevel] crossed
// with the user-key span [Lo, Hi]. A nil Lo marks the whole keyspace (a
// whole-level merge whose inputs hold no file still reserves its levels).
type Rect struct {
	MinLevel, MaxLevel int
	Lo, Hi             []byte
}

// Overlaps reports whether r and o intersect: their level ranges do and
// their key spans do.
func (r Rect) Overlaps(o Rect) bool {
	if r.MaxLevel < o.MinLevel || r.MinLevel > o.MaxLevel {
		return false
	}
	if r.Lo == nil || o.Lo == nil {
		return true
	}
	return base.Compare(r.Hi, o.Lo) >= 0 && base.Compare(o.Hi, r.Lo) >= 0
}

// InFlightSet maps each running maintenance job's id to its claim
// rectangle. Two jobs may run concurrently only when their rectangles are
// disjoint. The rectangle is what keeps the stale-version safety arguments
// (isBottommost, tombstone disposability) sound: no concurrent job can
// introduce or remove entries inside a running job's key span at or below
// its output level while the claim is held — and a claimed file lies inside
// its job's rectangle, so the rectangle alone also keeps two jobs off one
// file.
//
// The set has no lock of its own: the engine guards pick, claim and release
// with one mutex. A nil set holds no claim.
type InFlightSet map[uint64]Rect

// Claim registers job id as owning the candidate's rectangle. The caller
// must have checked Conflicts in the same critical section.
func (s InFlightSet) Claim(id uint64, c *Candidate) { s[id] = c.Rectangle() }

// Release drops job id's claim.
func (s InFlightSet) Release(id uint64) { delete(s, id) }

// Overlaps reports whether r intersects any running job's rectangle.
func (s InFlightSet) Overlaps(r Rect) bool {
	for _, c := range s {
		if c.Overlaps(r) {
			return true
		}
	}
	return false
}

// Conflicts reports whether the candidate's rectangle intersects any
// running job's.
func (s InFlightSet) Conflicts(c *Candidate) bool {
	return len(s) > 0 && s.Overlaps(c.Rectangle())
}

// Rectangle returns the candidate's claim rectangle: its level range and the
// user-key span of all its input and output-overlap files. A nil Lo means
// the candidate must claim the whole keyspace (an input run with no files,
// e.g. a whole-level merge of empty runs).
func (c *Candidate) Rectangle() Rect {
	r := Rect{MinLevel: c.StartLevel, MaxLevel: c.OutputLevel}
	for i := range c.Inputs {
		r.MinLevel = min(r.MinLevel, c.InputLevel(i))
	}
	r.Lo, r.Hi = inputBounds(c)
	if r.Lo == nil {
		return r
	}
	for _, f := range c.OutputRunFiles {
		if base.Compare(f.Smallest.UserKey, r.Lo) < 0 {
			r.Lo = f.Smallest.UserKey
		}
		if base.Compare(f.Largest.UserKey, r.Hi) > 0 {
			r.Hi = f.Largest.UserKey
		}
	}
	return r
}

// ClaimFiles returns every file the candidate touches: the start-level
// inputs plus the output-run overlap.
func (c *Candidate) ClaimFiles() []*manifest.FileMetadata {
	files := c.InputFiles()
	return append(files, c.OutputRunFiles...)
}
