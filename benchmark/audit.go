package main

import (
	"repro/internal/base"
	"repro/internal/sstable"
)

// auditKeys is how many erased keys the audit samples.
const auditKeys = 2000

// auditErasure checks the paper's promise from outside the engine: for a
// sample of keys whose final point delete is older than the DPT and that
// were never written again, no live table may still hold a value or a
// tombstone. It opens nothing through the DB: readers come from FS.List +
// sstable.Open. A stale key is reported, not fatal: the number is this
// benchmark's to expose.
func auditErasure(L map[string]float64, readers []*sstable.Reader, o *oracle, nowTick uint32, dptTicks int64) {
	key := make([]byte, keyLen)
	var sampled, stale float64
	for idx := range o.del {
		del := o.del[idx]
		if del == 0 || int64(nowTick)-int64(del) <= dptTicks {
			continue
		}
		putKey(key, uint32(idx), false)
		for _, r := range readers {
			// A filter's "no" is definitive, and saves reading a block.
			if !r.MayContain(key) {
				continue
			}
			if _, _, _, found, err := r.Get(key, base.MaxSeqNum); found || err != nil {
				stale++
				break
			}
		}
		if sampled++; sampled == auditKeys {
			break
		}
	}
	L["audit.keys_sampled"] = sampled
	L["audit.stale_keys_sampled"] = stale
}
