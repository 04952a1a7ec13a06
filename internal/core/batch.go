package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"repro/internal/base"
	"repro/internal/memtable"
)

// Batch accumulates writes that Apply commits atomically: they become
// durable together (one WAL record) and visible together (readers observe
// all of the batch or none of it).
type Batch struct {
	ops []batchOp
	// data holds the ops' keys and put values back to back, in op order,
	// and their key and value slices alias it. When it grows, the ops
	// queued before keep aliasing the old array, which nothing writes to
	// again. Reset keeps its capacity.
	data []byte
	// approximate payload size, for pre-sizing the WAL record.
	size int
}

type batchOp struct {
	kind  base.Kind
	key   []byte
	value []byte
}

// NewBatch returns an empty batch.
func NewBatch() *Batch { return &Batch{} }

// Put queues an insert/update. Key and value are copied.
func (b *Batch) Put(key, value []byte) {
	b.add(base.KindSet, key, value)
	b.size += len(key) + len(value) + 16
}

// Delete queues a point delete. The tombstone timestamp is assigned at
// Apply time.
func (b *Batch) Delete(key []byte) {
	b.add(base.KindDelete, key, nil)
	b.size += len(key) + 24
}

// Grow reserves room for ops more operations holding bytes more bytes of
// keys and values, so that queuing them allocates nothing.
func (b *Batch) Grow(ops, bytes int) {
	b.ops = slices.Grow(b.ops, ops)
	b.data = slices.Grow(b.data, bytes)
}

// add copies key and value to the end of data and queues the op.
func (b *Batch) add(kind base.Kind, key, value []byte) {
	b.Grow(1, len(key)+len(value))
	start := len(b.data)
	b.data = append(append(b.data, key...), value...)
	k := start + len(key)
	b.ops = append(b.ops, batchOp{kind: kind, key: b.data[start:k:k], value: b.data[k:len(b.data):len(b.data)]})
}

// Len returns the number of queued operations.
func (b *Batch) Len() int { return len(b.ops) }

// Ops visits each queued operation in insertion order: kind is base.KindSet
// or base.KindDelete, and value is empty for deletes. The sharded router
// uses this to split one batch into per-shard sub-batches. The key and
// value slices alias the batch's internal copies; callers must not retain
// or mutate them.
func (b *Batch) Ops(fn func(kind base.Kind, key, value []byte)) {
	for _, op := range b.ops {
		fn(op.kind, op.key, op.value)
	}
}

// Reset clears the batch for reuse.
func (b *Batch) Reset() {
	b.ops = b.ops[:0]
	b.data = b.data[:0]
	b.size = 0
}

// walBatchTag marks a batch WAL record; it must not collide with any
// base.Kind value.
const walBatchTag = 0x10

// appendWALBatch appends the whole batch to buf as one record:
//
//	walBatchTag | baseSeq uvarint | count uvarint |
//	repeat: kind byte | keyLen uvarint | key | valLen uvarint | val
func appendWALBatch(buf []byte, baseSeq base.SeqNum, ops []batchOp) []byte {
	buf = append(buf, walBatchTag)
	buf = binary.AppendUvarint(buf, uint64(baseSeq))
	buf = binary.AppendUvarint(buf, uint64(len(ops)))
	for _, op := range ops {
		buf = append(buf, byte(op.kind))
		buf = binary.AppendUvarint(buf, uint64(len(op.key)))
		buf = append(buf, op.key...)
		buf = binary.AppendUvarint(buf, uint64(len(op.value)))
		buf = append(buf, op.value...)
	}
	return buf
}

// applyWALBatch replays a batch record into m, returning the highest
// sequence number it contained.
func applyWALBatch(m *memtable.MemTable, payload []byte) (base.SeqNum, error) {
	rest := payload[1:] // tag already inspected
	baseSeqU, n := binary.Uvarint(rest)
	if n <= 0 {
		return 0, errors.New("acheron: corrupt batch record (base seq)")
	}
	rest = rest[n:]
	count, n := binary.Uvarint(rest)
	if n <= 0 {
		return 0, errors.New("acheron: corrupt batch record (count)")
	}
	rest = rest[n:]
	seq := base.SeqNum(baseSeqU)
	for i := uint64(0); i < count; i++ {
		if len(rest) < 1 {
			return 0, errors.New("acheron: corrupt batch record (op kind)")
		}
		kind := base.Kind(rest[0])
		rest = rest[1:]
		kl, n := binary.Uvarint(rest)
		if n <= 0 || int(kl) > len(rest)-n {
			return 0, errors.New("acheron: corrupt batch record (key)")
		}
		key := rest[n : n+int(kl)]
		rest = rest[n+int(kl):]
		vl, n := binary.Uvarint(rest)
		if n <= 0 || int(vl) > len(rest)-n {
			return 0, errors.New("acheron: corrupt batch record (value)")
		}
		value := rest[n : n+int(vl)]
		rest = rest[n+int(vl):]
		m.Add(base.MakeInternalKey(key, seq, kind), value)
		seq++
	}
	return seq - 1, nil
}

// Apply atomically commits the batch. The batch may be Reset and reused
// afterwards.
func (d *DB) Apply(b *Batch) error {
	return d.ApplyCtx(context.Background(), b)
}

func (d *DB) commitBatch(ctx context.Context, b *Batch) error {
	if err := d.admitWrite(ctx); err != nil {
		return err
	}
	now := d.opts.Clock.Now()
	// Stamp tombstone timestamps before committing.
	for i := range b.ops {
		if b.ops[i].kind == base.KindDelete && len(b.ops[i].value) == 0 {
			b.ops[i].value = base.EncodeTombstoneValue(now)
		}
	}

	// The pipeline stamps the batch's contiguous sequence block and keeps
	// it atomic for readers: the whole block publishes in one step, so
	// readers see all of the batch or none of it.
	pc := newPendingCommit(ctx)
	pc.ops, pc.asBatch = b.ops, true
	if err := d.commit.commit(pc); err != nil {
		return err
	}
	var deletes int64
	for _, op := range b.ops {
		if op.kind == base.KindDelete {
			deletes++
		}
	}
	if deletes > 0 {
		d.stats.DeletesIssued.Add(deletes)
		d.stats.LiveTombstones.Add(deletes)
	}
	return nil
}

// BlockCacheStats returns the shared block cache's cumulative hit and miss
// counts (zeros when the cache is disabled).
func (d *DB) BlockCacheStats() (hits, misses int64) {
	if d.cache.blocks == nil {
		return 0, 0
	}
	return d.cache.blocks.Hits(), d.cache.blocks.Misses()
}

// sanity check that the batch tag stays clear of entry kinds.
var _ = func() struct{} {
	if walBatchTag < byte(base.KindMax) {
		panic(fmt.Sprintf("walBatchTag %d collides with kinds", walBatchTag))
	}
	return struct{}{}
}()
