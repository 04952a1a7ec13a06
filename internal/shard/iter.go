package shard

import (
	"errors"

	"repro/internal/base"
	"repro/internal/core"
	"repro/internal/iterator"
)

// IterOptions configure a cross-shard range iterator.
type IterOptions struct {
	// LowerBound (inclusive) and UpperBound (exclusive) restrict the
	// iteration to user keys in [LowerBound, UpperBound).
	LowerBound []byte
	UpperBound []byte
	// Prefix restricts the scan to keys starting with this prefix (see
	// core.IterOptions.Prefix): each shard scans the implied bounds.
	Prefix []byte
	// Snapshot pins the view; nil reads each shard's latest state.
	Snapshot *Snapshot
}

// internalAdapter lifts a user-facing *core.Iter into iterator.Internal so
// the cross-shard merge reuses the engine's k-way heap. The fabricated
// internal keys all carry sequence 0; hash routing makes shard keyspaces
// disjoint, so equal user keys never meet across sources and the heap's
// tie-break by index is never exercised.
type internalAdapter struct{ it *core.Iter }

func (a internalAdapter) First() bool                         { return a.it.First() }
func (a internalAdapter) SeekGE(target base.InternalKey) bool { return a.it.SeekGE(target.UserKey) }
func (a internalAdapter) Next() bool                          { return a.it.Next() }
func (a internalAdapter) Valid() bool                         { return a.it.Valid() }
func (a internalAdapter) Key() base.InternalKey {
	return base.MakeInternalKey(a.it.Key(), 0, base.KindSet)
}
func (a internalAdapter) Value() []byte { return a.it.Value() }
func (a internalAdapter) Error() error  { return a.it.Error() }

// Close does nothing: Iter.Close closes the per-shard children itself, and
// reports their errors.
func (a internalAdapter) Close() {}

// Iter merges the shards' live keys into one ascending stream. Each
// per-shard child already resolves visibility, tombstones, and range
// coverage, so the merge only interleaves disjoint key sets. An Iter pins
// table readers on every shard; Close it when done.
type Iter struct {
	subs  []*core.Iter
	merge *iterator.Merge
}

// NewIter opens a merged iterator across all shards. The returned iterator
// is unpositioned; call First or SeekGE.
func (r *Router) NewIter(opts IterOptions) (*Iter, error) {
	subs := make([]*core.Iter, 0, len(r.shards))
	sources := make([]iterator.Internal, 0, len(r.shards))
	for i, db := range r.shards {
		it, err := db.NewIter(core.IterOptions{
			LowerBound: opts.LowerBound,
			UpperBound: opts.UpperBound,
			Prefix:     opts.Prefix,
			Snapshot:   opts.Snapshot.sub(i),
		})
		if err != nil {
			for _, prev := range subs {
				_ = prev.Close()
			}
			return nil, err
		}
		subs = append(subs, it)
		sources = append(sources, internalAdapter{it})
	}
	return &Iter{subs: subs, merge: iterator.NewMerge(sources...)}, nil
}

// First positions on the globally smallest live key.
func (i *Iter) First() bool { return i.merge.First() }

// SeekGE positions on the first live key >= key.
func (i *Iter) SeekGE(key []byte) bool {
	return i.merge.SeekGE(base.MakeInternalKey(key, 0, base.KindSet))
}

// Next advances, returning validity.
func (i *Iter) Next() bool { return i.merge.Next() }

// Valid reports whether the iterator is positioned on an entry.
func (i *Iter) Valid() bool { return i.merge.Valid() }

// Key returns the current user key; valid until repositioning.
func (i *Iter) Key() []byte { return i.merge.Key().UserKey }

// Value returns the current value; valid until repositioning.
func (i *Iter) Value() []byte { return i.merge.Value() }

// Stepped sums the internal entries examined across the per-shard
// children — the read-amplification cost of garbage not yet purged.
func (i *Iter) Stepped() int64 {
	var total int64
	for _, sub := range i.subs {
		total += sub.Stepped()
	}
	return total
}

// Error returns the first error from any shard.
func (i *Iter) Error() error {
	if err := i.merge.Error(); err != nil {
		return err
	}
	for _, sub := range i.subs {
		if err := sub.Error(); err != nil {
			return err
		}
	}
	return nil
}

// Close releases every per-shard child, joining their errors.
func (i *Iter) Close() error {
	errs := make([]error, len(i.subs))
	for j, sub := range i.subs {
		errs[j] = sub.Close()
	}
	return errors.Join(errs...)
}
