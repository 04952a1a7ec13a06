package main

import (
	"bufio"
	"bytes"
	"context"
	"path/filepath"
	"runtime"
	"sort"

	"repro/internal/admission"
	"repro/internal/base"
	"repro/internal/block"
	"repro/internal/cache"
	"repro/internal/iterator"
	"repro/internal/manifest"
	"repro/internal/memtable"
	"repro/internal/readview"
	"repro/internal/skiplist"
	"repro/internal/sstable"
	"repro/internal/vfs"
	"repro/internal/wal"
	"repro/internal/wire"
)

// Layer probes run after the measured phase, on the frozen store: they
// replay a fixed sample of the workload's own inputs (its last writes, its
// first lookups) against each lower layer's public functions, on the
// artefacts the workload left in its MemFS.

// probeInput is what a workload hands the probes.
type probeInput struct {
	mem    *vfs.MemFS
	writes []uint64 // idx<<32|tick, oldest first
	gets   []op
	valLen int
	kiwi   bool
	engine store // the frozen engine, for the allocation probes
}

// timePer runs fn, which performs n operations, and returns ns per
// operation.
func timePer(n int, fn func()) float64 {
	t0 := nowNs()
	fn()
	return ratio(float64(nowNs()-t0), float64(n))
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// openTables opens every live table the workload left behind, found the way
// an outside tool would: FS.List + manifest.ParseFilename + sstable.Open.
func openTables(mem *vfs.MemFS, dirs []string) ([]*sstable.Reader, error) {
	var readers []*sstable.Reader
	for _, dir := range dirs {
		names, err := mem.List(dir)
		if err != nil {
			return nil, err
		}
		for _, name := range names {
			if t, _, ok := manifest.ParseFilename(name); !ok || t != manifest.FileTypeTable {
				continue
			}
			f, err := mem.Open(filepath.Join(dir, name))
			if err != nil {
				closeTables(readers)
				return nil, err
			}
			r, err := sstable.Open(f)
			if err != nil {
				vfs.BestEffortClose(f)
				closeTables(readers)
				return nil, err
			}
			readers = append(readers, r)
		}
	}
	// Largest first: the probes that use a few tables use the big ones.
	sort.SliceStable(readers, func(i, j int) bool {
		return readers[i].Props().NumEntries > readers[j].Props().NumEntries
	})
	return readers, nil
}

func closeTables(readers []*sstable.Reader) {
	for _, r := range readers {
		vfs.BestEffortClose(r) // only read from
	}
}

func runProbes(L map[string]float64, in probeInput, readers []*sstable.Reader) error {
	// The sampled writes as internal keys and values, built outside every
	// timer.
	n := len(in.writes)
	keys, encs, vals := make([][]byte, n), make([][]byte, n), make([][]byte, n)
	ikeys := make([]base.InternalKey, n)
	for i, w := range in.writes {
		idx, tick := uint32(w>>32), uint32(w)
		keys[i] = make([]byte, keyLen)
		putKey(keys[i], idx, false)
		vals[i] = make([]byte, in.valLen)
		fillValue(vals[i], idx, tick)
		ikeys[i] = base.MakeInternalKey(keys[i], base.SeqNum(i+1), base.KindSet)
		encs[i] = ikeys[i].Encode(nil)
	}
	lookups, seeks := make([][]byte, len(in.gets)), make([][]byte, len(in.gets))
	for i, g := range in.gets {
		lookups[i] = make([]byte, keyLen)
		putKey(lookups[i], g.idx, g.absent)
		seeks[i] = base.MakeSearchKey(lookups[i], base.MaxSeqNum).Encode(nil)
	}
	if n == 0 || len(lookups) == 0 {
		return nil // nothing was written or read: every probe reads 0
	}

	list := skiplist.New(base.CompareEncoded)
	L["skiplist.insert_ns"] = timePer(n, func() {
		for i := range encs {
			list.Insert(encs[i], vals[i])
		}
	})
	L["skiplist.seek_ns"] = timePer(len(lookups), func() {
		it := list.NewIter()
		for _, k := range seeks {
			it.SeekGE(k)
		}
	})

	mt := memtable.New()
	L["memtable.add_ns"] = timePer(n, func() {
		for i := range ikeys {
			mt.Add(ikeys[i], vals[i])
		}
	})
	L["memtable.get_ns"] = timePer(len(lookups), func() {
		for _, k := range lookups {
			mt.Get(k, base.MaxSeqNum)
		}
	})

	scratch := vfs.NewMemFS()
	if err := probeWAL(L, scratch, n, in.valLen); err != nil {
		return err
	}
	probeBlock(L, encs, vals)
	probeCache(L)
	if err := probeTables(L, in, scratch, readers, lookups); err != nil {
		return err
	}
	if err := probeWire(L, keys, vals, lookups); err != nil {
		return err
	}

	ctl := admission.NewController(admission.Config{}) // unlimited rate
	defer ctl.Close()
	const admits = 100_000
	var admitErr error
	L["admission.admit_ns"] = timePer(admits, func() {
		for i := 0; i < admits; i++ {
			if err := ctl.Admit(context.Background(), admission.ClassWrite); err != nil {
				admitErr = err
			}
		}
	})
	if admitErr != nil {
		return admitErr
	}

	// Allocation counts of the public calls, on the frozen engine. Puts go
	// last: they change it.
	calls := min(len(lookups), 10_000)
	m0 := mallocs()
	for _, k := range lookups[:calls] {
		_, _ = in.engine.Get(k) // not-found is an expected outcome here
	}
	L["core.get_allocs_per_op"] = ratio(float64(mallocs()-m0), float64(calls))
	calls = min(n, 10_000)
	m0 = mallocs()
	for i := 0; i < calls; i++ {
		if err := in.engine.Put(keys[i], vals[i]); err != nil {
			return err
		}
	}
	L["core.put_allocs_per_op"] = ratio(float64(mallocs()-m0), float64(calls))
	return nil
}

func probeWAL(L map[string]float64, scratch *vfs.MemFS, n, valLen int) error {
	f, err := scratch.Create("probe.log")
	if err != nil {
		return err
	}
	w := wal.NewWriter(f)
	group := [][]byte{make([]byte, 1+8+2+keyLen+valLen)} // a Put's record, one per group
	var werr error
	L["wal.add_records_ns"] = timePer(n, func() {
		for i := 0; i < n; i++ {
			if err := w.AddRecords(group); err != nil {
				werr = err
			}
		}
	})
	if cerr := w.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// probeBlock builds one data block from the sampled writes and times seeks
// and steps inside it.
func probeBlock(L map[string]float64, encs, vals [][]byte) {
	order := make([]int, len(encs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return base.CompareEncoded(encs[order[a]], encs[order[b]]) < 0 })
	bw := block.NewWriter(0)
	var inBlock [][]byte
	for _, i := range order {
		if bw.EstimatedSize() >= 4096 {
			break
		}
		bw.Add(encs[i], vals[i])
		inBlock = append(inBlock, encs[i])
	}
	it, err := block.NewIter(bw.Finish(), base.CompareEncoded)
	if err != nil {
		return
	}
	const rounds = 2000
	L["block.seek_ns"] = timePer(rounds*len(inBlock), func() {
		for r := 0; r < rounds; r++ {
			for _, k := range inBlock {
				it.SeekGE(k)
			}
		}
	})
	L["block.next_ns"] = timePer(rounds*len(inBlock), func() {
		for r := 0; r < rounds; r++ {
			for ok := it.First(); ok; ok = it.Next() {
			}
		}
	})
}

func probeCache(L map[string]float64) {
	const blocks, rounds = 1024, 200
	c := cache.New(8 << 20)
	page := make([]byte, 4096)
	for i := uint64(0); i < blocks; i++ {
		c.Put(1, i*4096, page)
	}
	L["cache.get_hit_ns"] = timePer(blocks*rounds, func() {
		for r := 0; r < rounds; r++ {
			for i := uint64(0); i < blocks; i++ {
				c.Get(1, i*4096)
			}
		}
	})
}

// probeTables times the sstable, merge-iterator and read-view layers on the
// live tables. The readers have no block cache attached, so a Get here is
// the cache-miss cost: block read, CRC, decode, seek.
func probeTables(L map[string]float64, in probeInput, scratch *vfs.MemFS, readers []*sstable.Reader, lookups [][]byte) error {
	if len(readers) == 0 {
		return nil
	}
	L["bloom.may_contain_ns"] = timePer(len(lookups)*len(readers), func() {
		for _, k := range lookups {
			for _, r := range readers {
				r.MayContain(k)
			}
		}
	})

	// Hits: the sampled lookups on every table whose filter lets them
	// through. Misses: never-written neighbours pushed past the filter, the
	// cost of a false positive.
	var hitNs, missNs, hits, misses float64
	absent := make([]byte, keyLen)
	sample := lookups[:min(len(lookups), 2000)]
	m0 := mallocs()
	for i, k := range sample {
		for _, r := range readers {
			if !r.MayContain(k) {
				continue
			}
			t0 := nowNs()
			_, _, _, found, err := r.Get(k, base.MaxSeqNum)
			dt := float64(nowNs() - t0)
			if err != nil {
				return err
			}
			if found {
				hitNs, hits = hitNs+dt, hits+1
			} else {
				missNs, misses = missNs+dt, misses+1
			}
		}
		putKey(absent, in.gets[i].idx, true)
		r := readers[i%len(readers)]
		t0 := nowNs()
		_, _, _, _, err := r.Get(absent, base.MaxSeqNum)
		missNs, misses = missNs+float64(nowNs()-t0), misses+1
		if err != nil {
			return err
		}
	}
	L["sstable.get_allocs"] = ratio(float64(mallocs()-m0), hits+misses)
	L["sstable.get_hit_ns"] = ratio(hitNs, hits)
	L["sstable.get_miss_ns"] = ratio(missNs, misses)

	// One table walked, then rewritten through the writer.
	big := readers[0]
	var ks []base.InternalKey
	var vs [][]byte
	it := big.NewIter()
	entries := int(big.Props().NumEntries)
	L["sstable.iter_next_ns"] = timePer(entries, func() {
		for ok := it.First(); ok; ok = it.Next() {
		}
	})
	for ok := it.First(); ok; ok = it.Next() {
		ks = append(ks, it.Key().Clone())
		vs = append(vs, append([]byte(nil), it.Value()...))
	}
	if err := it.Error(); err != nil {
		return err
	}
	f, err := scratch.Create("probe.sst")
	if err != nil {
		return err
	}
	opts := sstable.WriterOptions{BloomBitsPerKey: 10, DeleteKeyFunc: deleteKeyOf}
	if in.kiwi {
		opts.PagesPerTile = 4
	}
	w := sstable.NewWriter(f, opts)
	var meta sstable.WriterMeta
	var werr error
	writeNs := timePer(1, func() {
		for i := range ks {
			if err := w.Add(ks[i], vs[i]); err != nil {
				werr = err
				return
			}
		}
		meta, werr = w.Finish()
	})
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return werr
	}
	L["sstable.write_mb_per_s"] = ratio(float64(meta.Size)/1e6, writeNs/1e9)

	// The same runs under the heap merge and under a read view.
	runs := func() []iterator.Internal {
		out := make([]iterator.Internal, 0, 8)
		for _, r := range readers[:min(len(readers), 8)] {
			out = append(out, r.NewIter())
		}
		return out
	}
	merge := iterator.NewMerge(runs()...)
	steps := 0
	mergeNs := timePer(1, func() {
		for ok := merge.First(); ok; ok = merge.Next() {
			steps++
		}
	})
	if err := merge.Error(); err != nil {
		return err
	}
	L["iterator.merge_next_ns"] = ratio(mergeNs, float64(steps))

	viewRuns := runs()
	var view *readview.View
	var verr error
	L["readview.build_ms"] = timePer(1, func() { view, verr = readview.Build(viewRuns, 0) }) / 1e6
	if verr != nil {
		return verr
	}
	vit := readview.NewIter(view, viewRuns)
	L["readview.next_ns"] = timePer(view.NumEntries(), func() {
		for ok := vit.First(); ok; ok = vit.Next() {
		}
	})
	return vit.Error()
}

// probeWire encodes, decodes and frames the run's actual requests.
func probeWire(L map[string]float64, keys, vals, lookups [][]byte) error {
	var reqs []wire.Request
	for i := 0; i < min(len(keys), 5000); i++ {
		reqs = append(reqs, wire.Request{Op: wire.OpPut, Key: keys[i], Value: vals[i]})
	}
	for i := 0; i < min(len(lookups), 5000); i++ {
		reqs = append(reqs, wire.Request{Op: wire.OpGet, Key: lookups[i]})
	}
	const rounds = 20
	payloads := make([][]byte, len(reqs))
	var bytesTotal float64
	for i, r := range reqs {
		payloads[i] = wire.AppendRequest(nil, r)
		bytesTotal += float64(len(payloads[i]) + 4)
	}
	L["wire.bytes_per_op"] = ratio(bytesTotal, float64(len(reqs)))
	buf := make([]byte, 0, 4096)
	L["wire.encode_request_ns"] = timePer(rounds*len(reqs), func() {
		for r := 0; r < rounds; r++ {
			for _, req := range reqs {
				buf = wire.AppendRequest(buf[:0], req)
			}
		}
	})
	var derr error
	L["wire.decode_request_ns"] = timePer(rounds*len(reqs), func() {
		for r := 0; r < rounds; r++ {
			for _, p := range payloads {
				if _, err := wire.DecodeRequest(p); err != nil {
					derr = err
				}
			}
		}
	})
	if derr != nil {
		return derr
	}
	var pipe bytes.Buffer
	rd := bufio.NewReader(&pipe)
	L["wire.frame_roundtrip_ns"] = timePer(rounds*len(payloads), func() {
		for r := 0; r < rounds; r++ {
			for _, p := range payloads {
				if err := wire.WriteFrame(&pipe, p); err != nil {
					derr = err
				}
				got, err := wire.ReadFrame(rd, buf)
				if err != nil {
					derr = err
				}
				buf = got[:0]
			}
		}
	})
	return derr
}
