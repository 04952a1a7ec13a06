package compaction

import (
	"math"

	"repro/internal/base"
	"repro/internal/manifest"
	"repro/internal/memtable"
)

// Layout is the tree's data layout under the configured PolicyKind. All
// three policies are one picker with one derived parameter: firstLeveled,
// the shallowest level kept as a single sorted run.
//
//	PolicyLeveled       1                            every level below L0 is one run
//	PolicySizeTiered    manifest.NumLevels           no level is
//	PolicyLazyLeveling  max(1, deepest populated)    only the last level is
//
// Levels shallower than firstLeveled are tiered: they accumulate up to SizeRatio
// runs (L0: L0Threshold) and merge whole. Levels at or past it are leveled:
// they saturate on bytes and evict one file at a time into the next level's
// run. FADE's TTL trigger is layered on either region, so the
// delete-persistence guarantee does not depend on the layout.
//
// The picker acts on the run counts it observes, not on the ones the policy
// implies: a level in the single-run region found holding several runs (a
// store last written under another policy) is merged whole before any file
// of it is moved alone, because moving a file of the newest run below the
// older runs of the same level would let reads find a stale version first.
// That makes a policy switch at reopen safe: any tree converges to the
// configured shape.
//
// A Layout is immutable after construction and safe for concurrent pickers.
type Layout struct {
	o Options
}

// NewLayout returns the configured layout, bound to o with defaults
// applied. The engine builds one at Open and uses it for every pick.
func (o Options) NewLayout() *Layout {
	return &Layout{o: o.WithDefaults()}
}

// Name returns the policy's stable, kebab-case name, used in metric labels,
// job records, and trace events.
func (p *Layout) Name() string { return p.o.Policy.String() }

// firstLeveled returns the shallowest level of v kept as a single sorted
// run. Under lazy leveling that is the deepest populated level: as the tree
// grows a level deeper, the old last level becomes a tiered upper level and
// the new deepest takes over the single-run invariant.
func (p *Layout) firstLeveled(v *manifest.Version) int {
	switch p.o.Policy {
	case PolicySizeTiered:
		return manifest.NumLevels
	case PolicyLazyLeveling:
		return populatedDepth(v)
	}
	return 1
}

// populatedDepth returns the deepest populated level, at least 1: the depth
// the DPT is partitioned over (an L0-only tree still has a budget to spend)
// and the level lazy leveling keeps sorted (an L0-only tree levels into L1).
func populatedDepth(v *manifest.Version) int {
	return max(1, v.MaxPopulatedLevel())
}

// WholeLevel returns the candidate merging every run of level l into l+1:
// into l+1's single run when the layout keeps l+1 leveled, as a fresh run
// beside l+1's others when it does not. The caller sets Trigger and Score.
func (p *Layout) WholeLevel(v *manifest.Version, l int) *Candidate {
	return wholeLevel(v, l, p.firstLeveled(v))
}

func wholeLevel(v *manifest.Version, l, firstLeveled int) *Candidate {
	c := &Candidate{
		StartLevel:  l,
		OutputLevel: l + 1,
		Inputs:      append([]*manifest.Run(nil), v.Levels[l]...),
	}
	if l+1 >= firstLeveled {
		fillOutputOverlap(v, c)
	} else {
		c.OutputToNewRun = true
	}
	return c
}

// Pick inspects v and returns the most urgent compaction, or nil when
// nothing needs compacting: TTL expiry (the delete-persistence guarantee)
// first, then L0 run count, then the worst saturated level. now is the
// engine clock reading used for TTL expiry; haveSnapshots suppresses
// disposal-only compactions that an open snapshot would block anyway.
// inflight holds the running jobs' claim rectangles, so concurrent
// executors pick disjoint work: a file whose own level row a running
// rectangle overlaps is passed over (any candidate holding it would
// conflict), and a candidate that still conflicts is not returned (the
// picker does not search for a second-best candidate at the same priority —
// the next tick retries).
func (p *Layout) Pick(v *manifest.Version, now base.Timestamp, haveSnapshots bool, inflight InFlightSet) *Candidate {
	pc := p.newPickCtx(v, now, haveSnapshots, inflight)
	if p.o.DPT != 0 {
		if c := pc.pickTTL(); c != nil {
			return c
		}
	}

	if len(v.Levels[0]) >= p.o.L0Threshold {
		c := wholeLevel(v, 0, pc.first)
		c.Trigger = TriggerL0
		c.Score = float64(len(v.Levels[0]))
		if !inflight.Conflicts(c) {
			return c
		}
		// L0 is busy (a flush-adjacent or prior L0 job holds it); fall
		// through so deeper saturated levels can still make progress.
	}

	var best *Candidate
	for l := 1; l < manifest.NumLevels-1; l++ {
		size := v.LevelSize(l)
		if size == 0 {
			continue
		}
		single := pc.singleRun(l)
		var score float64
		switch {
		case single:
			score = float64(size) / float64(p.o.LevelCapacity(l))
		case l < pc.first:
			score = float64(len(v.Levels[l])) / float64(p.o.SizeRatio)
		default:
			score = float64(len(v.Levels[l])) // must be one run and is not: due now
		}
		if score < 1 || (best != nil && score <= best.Score) {
			continue
		}
		var c *Candidate
		if single {
			c = pc.evictOne(l)
		} else {
			c = wholeLevel(v, l, pc.first)
			c.Trigger = TriggerSaturation
		}
		if c != nil && !inflight.Conflicts(c) {
			c.Score = score
			best = c
		}
	}
	return best
}

// pickCtx is the state of one Pick call.
type pickCtx struct {
	o             *Options
	v             *manifest.Version
	depth         int // populatedDepth(v): the DPT is partitioned over levels 0..depth-1
	first         int // firstLeveled(v)
	now           base.Timestamp
	haveSnapshots bool
	inflight      InFlightSet
	// cum[l] is the budget of a tombstone residing at level l: a file
	// there whose oldest tombstone was created at ts has expired when
	// now > ts + cum[l]. All zero when FADE is disabled.
	cum [manifest.NumLevels]base.Duration
}

func (p *Layout) newPickCtx(v *manifest.Version, now base.Timestamp, haveSnapshots bool, inflight InFlightSet) pickCtx {
	pc := pickCtx{
		o:             &p.o,
		v:             v,
		depth:         populatedDepth(v),
		first:         p.firstLeveled(v),
		now:           now,
		haveSnapshots: haveSnapshots,
		inflight:      inflight,
	}
	for l := range pc.cum {
		pc.cum[l] = p.o.DPT // at or below the deepest level the whole DPT is spent
		if l < pc.depth {
			pc.cum[l] = p.o.CumulativeTTLAt(l, pc.depth)
		}
	}
	return pc
}

// busy reports whether a running job's rectangle overlaps file f's own row
// at level l: every candidate holding f would conflict with that job.
func (pc *pickCtx) busy(f *manifest.FileMetadata, l int) bool {
	return len(pc.inflight) > 0 && pc.inflight.Overlaps(Rect{MinLevel: l, MaxLevel: l, Lo: f.Smallest.UserKey, Hi: f.Largest.UserKey})
}

// singleRun reports whether level l is in the single-run region and is in
// fact one run, so files of it can move down alone.
func (pc *pickCtx) singleRun(l int) bool {
	return l >= pc.first && len(pc.v.Levels[l]) == 1
}

// expired reports whether f's oldest tombstone has overstayed level l's
// cumulative budget, and by how much. Files already at the deepest
// populated level are not exempt: a file *resting* there with live
// tombstones still holds shadowed garbage below it was supposed to erase,
// so it expires too once the whole DPT is spent (the compaction into the
// next level will elide everything).
func (pc *pickCtx) expired(f *manifest.FileMetadata, l int) (base.Duration, bool) {
	if pc.o.DPT == 0 || !f.HasTombstones || l >= manifest.NumLevels-1 {
		return 0, false
	}
	if l >= pc.depth && pc.haveSnapshots {
		// Expiring here compacts one level deeper purely to dispose of
		// the tombstone, so only do it when disposal can actually
		// happen — an open snapshot would block it and the file would
		// cascade downward for nothing.
		return 0, false
	}
	deadline := f.OldestTombstone + base.Timestamp(pc.cum[l])
	if pc.now > deadline {
		return base.Duration(pc.now - deadline), true
	}
	return 0, false
}

// pickTTL services the most overdue tombstone among the files that are not
// busy — a busy file's expiry is already being serviced, or is re-examined
// once the claim clears, and the next most overdue file need not wait for
// it. On a single-run level it batches every expired, free file of the run:
// expired files tend to cluster (deletes arrive together), and moving them
// one at a time would rewrite the same next-level overlap repeatedly. Any other level (L0, a
// tiered level, a level that should be one run and is not) is pushed down
// whole — pulling the next level's runs in too when that level is also
// tiered, so the tombstone is not stranded beside older runs for another
// full DPT. A push into a leveled level needs no such pull: merging into
// the single run is what disposes the tombstone.
func (pc *pickCtx) pickTTL() *Candidate {
	l := -1 // the level of the most overdue file
	var worstOverdue base.Duration
	for sl := 0; sl < manifest.NumLevels-1; sl++ {
		for _, r := range pc.v.Levels[sl] {
			for _, f := range r.Files {
				if over, ok := pc.expired(f, sl); ok && (l < 0 || over > worstOverdue) && !pc.busy(f, sl) {
					l, worstOverdue = sl, over
				}
			}
		}
	}
	if l < 0 {
		return nil
	}
	var c *Candidate
	if pc.singleRun(l) {
		var batch []*manifest.FileMetadata
		for _, f := range pc.v.Levels[l][0].Files {
			if _, ok := pc.expired(f, l); ok && !pc.busy(f, l) {
				batch = append(batch, f)
			}
		}
		c = pc.fromRun(l, batch)
	} else {
		c = wholeLevel(pc.v, l, pc.first)
		if l+1 < pc.first {
			c.InputLevels = make([]int, len(c.Inputs))
			for i := range c.InputLevels {
				c.InputLevels[i] = l
			}
			for _, r := range pc.v.Levels[l+1] {
				c.Inputs = append(c.Inputs, r)
				c.InputLevels = append(c.InputLevels, l+1)
			}
		}
	}
	c.Trigger = TriggerTTL
	c.Score = float64(worstOverdue)
	if pc.inflight.Conflicts(c) {
		return nil
	}
	return c
}

// PickFlush returns the TTL job that takes a sealed memtable straight into
// level 1, or nil when it is to be flushed to level 0 as usual. meta
// describes mem as the level-0 table the flush would write. The job is the
// one pickTTL would schedule the moment that table landed: it would arrive
// expired (FADE's level-0 rule, whose clock started at the delete, not at
// the flush), level 0 is empty (older level-0 runs must stay above the
// memtable's newer data) and level 1 is in the single-run region and one
// run at most, so the whole-level push of level 0 merges the memtable with
// level 1's overlap and nothing else. Writing the table first would only
// have it read back and rewritten by that job.
func (p *Layout) PickFlush(v *manifest.Version, mem *memtable.MemTable, meta *manifest.FileMetadata, now base.Timestamp, haveSnapshots bool, inflight InFlightSet) *Candidate {
	if p.o.DPT == 0 || len(v.Levels[0]) > 0 || len(v.Levels[1]) > 1 {
		return nil
	}
	pc := p.newPickCtx(v, now, haveSnapshots, inflight)
	if pc.first > 1 {
		return nil
	}
	over, ok := pc.expired(meta, 0)
	if !ok {
		return nil
	}
	c := &Candidate{
		Trigger: TriggerTTL, Score: float64(over),
		StartLevel: 0, OutputLevel: 1,
		Mem: mem, MemMeta: meta,
	}
	fillOutputOverlap(v, c)
	if inflight.Conflicts(c) {
		return nil
	}
	return c
}

// evictOne moves one file — chosen by the configured Picker — out of
// byte-saturated single-run level l. Busy files are not considered.
func (pc *pickCtx) evictOne(l int) *Candidate {
	files := pc.v.Levels[l][0].Files
	if len(pc.inflight) > 0 {
		free := make([]*manifest.FileMetadata, 0, len(files))
		for _, f := range files {
			if !pc.busy(f, l) {
				free = append(free, f)
			}
		}
		files = free
	}
	chosen := pc.chooseVictim(files, l)
	if chosen == nil {
		return nil
	}
	c := pc.fromRun(l, []*manifest.FileMetadata{chosen})
	c.Trigger = TriggerSaturation
	return c
}

// fromRun builds the candidate moving files of single-run level l into
// l+1's run, merging with what they overlap there.
func (pc *pickCtx) fromRun(l int, files []*manifest.FileMetadata) *Candidate {
	c := &Candidate{
		StartLevel:  l,
		OutputLevel: l + 1,
		Inputs:      []*manifest.Run{{ID: pc.v.Levels[l][0].ID, Files: files}},
	}
	fillOutputOverlap(pc.v, c)
	return c
}

// chooseVictim applies the configured Picker to a saturated single-run
// level's files: FADE prefers expired files (most overdue first), then the
// highest tombstone density; the oldest-tombstone ablation ages tombstones;
// the default is the delete-oblivious min-overlap baseline.
func (pc *pickCtx) chooseVictim(files []*manifest.FileMetadata, l int) *manifest.FileMetadata {
	var chosen *manifest.FileMetadata
	switch pc.o.Picker {
	case PickFADE:
		var bestOver base.Duration = -1
		for _, f := range files {
			if over, ok := pc.expired(f, l); ok && over > bestOver {
				chosen, bestOver = f, over
			}
		}
		if chosen == nil {
			bestDensity := -1.0
			for _, f := range files {
				if d := f.TombstoneDensity(); d > bestDensity {
					chosen, bestDensity = f, d
				}
			}
		}
	case PickOldestTombstone:
		for _, f := range files {
			if !f.HasTombstones {
				continue
			}
			if chosen == nil || f.OldestTombstone < chosen.OldestTombstone {
				chosen = f
			}
		}
		if chosen == nil {
			chosen = minOverlapFile(pc.v, files, l)
		}
	default:
		chosen = minOverlapFile(pc.v, files, l)
	}
	return chosen
}

// minOverlapFile returns the file of files (at level l) with the least byte
// overlap with level l+1.
func minOverlapFile(v *manifest.Version, files []*manifest.FileMetadata, l int) *manifest.FileMetadata {
	var chosen *manifest.FileMetadata
	bestOverlap := uint64(math.MaxUint64)
	for _, f := range files {
		var overlap uint64
		for _, r := range v.Levels[l+1] {
			for _, of := range r.Find(f.Smallest.UserKey, f.Largest.UserKey) {
				overlap += of.Size
			}
		}
		if overlap < bestOverlap {
			chosen, bestOverlap = f, overlap
		}
	}
	return chosen
}

// fillOutputOverlap computes the output level's overlapping files and run
// id for a leveled output.
func fillOutputOverlap(v *manifest.Version, c *Candidate) {
	lo, hi := inputBounds(c)
	if lo == nil {
		return
	}
	if outRuns := v.Levels[c.OutputLevel]; len(outRuns) > 0 {
		c.OutputRunID = outRuns[0].ID
		c.OutputRunFiles = outRuns[0].Find(lo, hi)
	}
}

// inputBounds returns the user-key span of the candidate's inputs, its
// memtable included.
func inputBounds(c *Candidate) (lo, hi []byte) {
	widen := func(f *manifest.FileMetadata) {
		if lo == nil || base.Compare(f.Smallest.UserKey, lo) < 0 {
			lo = f.Smallest.UserKey
		}
		if hi == nil || base.Compare(f.Largest.UserKey, hi) > 0 {
			hi = f.Largest.UserKey
		}
	}
	if c.MemMeta != nil {
		widen(c.MemMeta)
	}
	for _, r := range c.Inputs {
		for _, f := range r.Files {
			widen(f)
		}
	}
	return lo, hi
}
