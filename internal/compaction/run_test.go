package compaction

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/base"
	"repro/internal/manifest"
	"repro/internal/sstable"
	"repro/internal/vfs"
)

// testEnv bundles a MemFS-backed compaction environment.
type testEnv struct {
	fs      *vfs.MemFS
	nextFN  base.FileNum
	readers map[base.FileNum]*sstable.Reader
	wopts   sstable.WriterOptions
}

func dkx(v []byte) base.DeleteKey {
	if len(v) < 8 {
		return 0
	}
	var dk base.DeleteKey
	for i := 0; i < 8; i++ {
		dk = dk<<8 | base.DeleteKey(v[i])
	}
	return dk
}

func dkVal(dk uint64) []byte {
	v := make([]byte, 16)
	for i := 0; i < 8; i++ {
		v[i] = byte(dk >> (56 - 8*i))
	}
	return v
}

func newTestEnv(pagesPerTile int) *testEnv {
	return &testEnv{
		fs:      vfs.NewMemFS(),
		nextFN:  1,
		readers: map[base.FileNum]*sstable.Reader{},
		wopts: sstable.WriterOptions{
			BlockSize:     512,
			PagesPerTile:  pagesPerTile,
			DeleteKeyFunc: dkx,
		},
	}
}

type kv struct {
	key  string
	seq  base.SeqNum
	kind base.Kind
	val  []byte
}

// newTable materializes kvs (sorted by caller) plus range tombstones into
// a new table, returning its metadata.
func (e *testEnv) newTable(t testing.TB, kvs []kv, rts []base.RangeTombstone) *manifest.FileMetadata {
	t.Helper()
	fn := e.nextFN
	e.nextFN++
	f, err := e.fs.Create(manifest.MakeFilename("db", manifest.FileTypeTable, fn))
	if err != nil {
		t.Fatal(err)
	}
	w := sstable.NewWriter(f, e.wopts)
	for _, kv := range kvs {
		if err := w.Add(base.MakeInternalKey([]byte(kv.key), kv.seq, kv.kind), kv.val); err != nil {
			t.Fatal(err)
		}
	}
	for _, rt := range rts {
		if err := w.AddRangeTombstone(rt); err != nil {
			t.Fatal(err)
		}
	}
	meta, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return &manifest.FileMetadata{
		FileNum: fn, Size: meta.Size,
		Smallest: meta.Smallest, Largest: meta.Largest,
		NumEntries: meta.Props.NumEntries, NumDeletes: meta.Props.NumDeletes,
		NumRangeDeletes: meta.Props.NumRangeDeletes,
		HasTombstones:   meta.Props.NumDeletes+meta.Props.NumRangeDeletes > 0,
		OldestTombstone: meta.Props.OldestTombstone,
		DeleteKeyMin:    meta.Props.DeleteKeyMin, DeleteKeyMax: meta.Props.DeleteKeyMax,
		LargestSeqNum: meta.Props.MaxSeqNum, SmallestSeqNum: meta.Props.MinSeqNum,
	}
}

func (e *testEnv) env(t testing.TB) Env {
	t.Helper()
	return Env{
		FS:              e.fs,
		Dirname:         "db",
		Writers:         sstable.NewWriterPool(e.wopts),
		TargetFileBytes: 1 << 20,
		OpenReader: func(fn base.FileNum) (*sstable.Reader, error) {
			if r, ok := e.readers[fn]; ok {
				return r, nil
			}
			f, err := e.fs.Open(manifest.MakeFilename("db", manifest.FileTypeTable, fn))
			if err != nil {
				return nil, err
			}
			r, err := sstable.Open(f)
			if err != nil {
				return nil, err
			}
			e.readers[fn] = r
			return r, nil
		},
		AllocFileNum: func() base.FileNum {
			fn := e.nextFN
			e.nextFN++
			return fn
		},
	}
}

// readAll returns every entry of the compaction's outputs in order.
func (e *testEnv) readAll(t *testing.T, res *Result) []kv {
	t.Helper()
	var out []kv
	for _, of := range res.Outputs {
		f, err := e.fs.Open(manifest.MakeFilename("db", manifest.FileTypeTable, of.FileNum))
		if err != nil {
			t.Fatal(err)
		}
		r, err := sstable.Open(f)
		if err != nil {
			t.Fatal(err)
		}
		it := r.NewIter()
		for ok := it.First(); ok; ok = it.Next() {
			out = append(out, kv{
				key:  string(it.Key().UserKey),
				seq:  it.Key().SeqNum(),
				kind: it.Key().Kind(),
				val:  append([]byte(nil), it.Value()...),
			})
		}
		if it.Error() != nil {
			t.Fatal(it.Error())
		}
		r.Close()
	}
	return out
}

func candidate(level int, inputs []*manifest.FileMetadata, outputs []*manifest.FileMetadata) *Candidate {
	return &Candidate{
		StartLevel:     level,
		OutputLevel:    level + 1,
		Inputs:         []*manifest.Run{{ID: 1, Files: inputs}},
		OutputRunFiles: outputs,
	}
}

func TestRunDedupsShadowedVersions(t *testing.T) {
	e := newTestEnv(1)
	newer := e.newTable(t, []kv{
		{"a", 10, base.KindSet, dkVal(1)},
		{"b", 11, base.KindSet, dkVal(2)},
	}, nil)
	older := e.newTable(t, []kv{
		{"a", 3, base.KindSet, dkVal(9)},
		{"c", 4, base.KindSet, dkVal(3)},
	}, nil)

	res, err := Run(candidate(1, []*manifest.FileMetadata{newer}, []*manifest.FileMetadata{older}), e.env(t))
	if err != nil {
		t.Fatal(err)
	}
	got := e.readAll(t, res)
	if len(got) != 3 {
		t.Fatalf("got %d entries: %+v", len(got), got)
	}
	if got[0].key != "a" || got[0].seq != 10 {
		t.Fatalf("newest version of a not kept: %+v", got[0])
	}
	if res.ShadowedDropped != 1 {
		t.Fatalf("ShadowedDropped = %d", res.ShadowedDropped)
	}
}

func TestRunTombstoneSurvivesAboveBottom(t *testing.T) {
	e := newTestEnv(1)
	in := e.newTable(t, []kv{
		{"a", 10, base.KindDelete, base.EncodeTombstoneValue(5)},
		{"b", 11, base.KindSet, dkVal(1)},
	}, nil)
	env := e.env(t)
	env.Bottommost = false
	res, err := Run(candidate(1, []*manifest.FileMetadata{in}, nil), env)
	if err != nil {
		t.Fatal(err)
	}
	got := e.readAll(t, res)
	if len(got) != 2 || got[0].kind != base.KindDelete {
		t.Fatalf("tombstone lost above bottom: %+v", got)
	}
	if res.TombstonesDropped != 0 || len(res.DisposedCreatedAt) != 0 {
		t.Fatalf("nothing should be disposed above bottom: %+v", res)
	}
}

func TestRunTombstoneDisposedAtBottom(t *testing.T) {
	e := newTestEnv(1)
	top := e.newTable(t, []kv{
		{"a", 10, base.KindDelete, base.EncodeTombstoneValue(5)},
	}, nil)
	bottom := e.newTable(t, []kv{
		{"a", 2, base.KindSet, dkVal(7)},
		{"a", 1, base.KindDelete, base.EncodeTombstoneValue(3)}, // shadowed, disposed too
		{"b", 3, base.KindSet, dkVal(8)},
	}, nil)
	env := e.env(t)
	env.Bottommost = true
	res, err := Run(candidate(1, []*manifest.FileMetadata{top}, []*manifest.FileMetadata{bottom}), env)
	if err != nil {
		t.Fatal(err)
	}
	got := e.readAll(t, res)
	if len(got) != 1 || got[0].key != "b" {
		t.Fatalf("deletion not applied at bottom: %+v", got)
	}
	// Each disposed tombstone's creation time is reported exactly once.
	if res.TombstonesDropped != 2 || !slices.Equal(res.DisposedCreatedAt, []base.Timestamp{5, 3}) {
		t.Fatalf("disposal not recorded: %+v", res)
	}
}

func TestRunTombstoneSupersededByNewerWrite(t *testing.T) {
	e := newTestEnv(1)
	in := e.newTable(t, []kv{
		{"a", 10, base.KindSet, dkVal(1)},
		{"a", 5, base.KindDelete, base.EncodeTombstoneValue(2)},
	}, nil)
	env := e.env(t)
	env.Bottommost = false
	res, err := Run(candidate(1, []*manifest.FileMetadata{in}, nil), env)
	if err != nil {
		t.Fatal(err)
	}
	got := e.readAll(t, res)
	if len(got) != 1 || got[0].seq != 10 {
		t.Fatalf("output: %+v", got)
	}
	if res.TombstonesSuperseded != 1 || res.TombstonesDropped != 0 || len(res.DisposedCreatedAt) != 0 {
		t.Fatalf("superseded accounting (not a persistence event): %+v", res)
	}
}

func TestRunSnapshotKeepsStraddledVersions(t *testing.T) {
	e := newTestEnv(1)
	in := e.newTable(t, []kv{
		{"a", 10, base.KindSet, dkVal(1)},
		{"a", 4, base.KindSet, dkVal(2)},
	}, nil)
	env := e.env(t)
	env.Snapshots = []base.SeqNum{6} // straddles the two versions
	res, err := Run(candidate(1, []*manifest.FileMetadata{in}, nil), env)
	if err != nil {
		t.Fatal(err)
	}
	got := e.readAll(t, res)
	if len(got) != 2 {
		t.Fatalf("snapshot-visible version dropped: %+v", got)
	}
	// Without the snapshot the old version goes.
	env.Snapshots = nil
	res, err = Run(candidate(1, []*manifest.FileMetadata{in}, nil), env)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.readAll(t, res); len(got) != 1 {
		t.Fatalf("shadowed version survived: %+v", got)
	}
}

// TestRunPreviousKeyAcrossRollsAndDrops: Run compares each key against its
// own copy of the previous user key, which must hold across outputs (every
// entry rolls here) and across versions kept, shadowed and dropped as the
// newest of their key.
func TestRunPreviousKeyAcrossRollsAndDrops(t *testing.T) {
	e := newTestEnv(1)
	in := e.newTable(t, []kv{
		{"a", 10, base.KindSet, dkVal(1)},
		{"a", 5, base.KindSet, dkVal(2)},
		{"a", 2, base.KindSet, dkVal(3)},
		{"b", 9, base.KindDelete, base.EncodeTombstoneValue(1)},
		{"b", 8, base.KindSet, dkVal(4)},
		{"b", 1, base.KindSet, dkVal(5)},
		{"c", 7, base.KindSet, dkVal(6)},
		{"c", 6, base.KindSet, dkVal(7)},
	}, nil)
	env := e.env(t)
	env.TargetFileBytes = 1
	env.Snapshots = []base.SeqNum{3}
	res, err := Run(candidate(1, []*manifest.FileMetadata{in}, nil), env)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, g := range e.readAll(t, res) {
		got = append(got, fmt.Sprintf("%s@%d", g.key, g.seq))
	}
	if want := []string{"a@10", "a@2", "b@9", "b@1", "c@7"}; !slices.Equal(got, want) || len(res.Outputs) != len(want) {
		t.Fatalf("under a snapshot at 3: kept %v in %d tables, want %v in one table each", got, len(res.Outputs), want)
	}

	env.Snapshots = nil
	env.Bottommost = true
	res, err = Run(candidate(1, []*manifest.FileMetadata{in}, nil), env)
	if err != nil {
		t.Fatal(err)
	}
	got = got[:0]
	for _, g := range e.readAll(t, res) {
		got = append(got, fmt.Sprintf("%s@%d", g.key, g.seq))
	}
	if want := []string{"a@10", "c@7"}; !slices.Equal(got, want) || res.TombstonesDropped != 1 || res.ShadowedDropped != 5 {
		t.Fatalf("at the bottom: kept %v (%+v), want %v", got, res, want)
	}
}

func TestRunSnapshotBlocksTombstoneDisposal(t *testing.T) {
	e := newTestEnv(1)
	in := e.newTable(t, []kv{
		{"a", 10, base.KindDelete, base.EncodeTombstoneValue(1)},
		{"a", 4, base.KindSet, dkVal(2)},
	}, nil)
	env := e.env(t)
	env.Bottommost = true
	env.Snapshots = []base.SeqNum{6}
	res, err := Run(candidate(1, []*manifest.FileMetadata{in}, nil), env)
	if err != nil {
		t.Fatal(err)
	}
	got := e.readAll(t, res)
	if len(got) != 2 {
		t.Fatalf("snapshot should keep both tombstone and old version: %+v", got)
	}
	if res.TombstonesDropped != 0 || len(res.DisposedCreatedAt) != 0 {
		t.Fatalf("tombstone disposed despite snapshot: %+v", res)
	}
}

func TestRunRangeTombstoneCarriedWhenNotDisposable(t *testing.T) {
	e := newTestEnv(1)
	rt := base.RangeTombstone{Lo: 0, Hi: 100, Seq: 50, CreatedAt: 9}
	in := e.newTable(t, []kv{{"a", 10, base.KindSet, dkVal(500)}}, []base.RangeTombstone{rt})
	env := e.env(t)
	env.Bottommost = true
	env.RangeTombstoneDisposable = func(base.RangeTombstone) bool { return false }
	res, err := Run(candidate(1, []*manifest.FileMetadata{in}, nil), env)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs) != 1 || res.Outputs[0].Meta.Props.NumRangeDeletes != 1 {
		t.Fatalf("range tombstone not carried: %+v", res.Outputs)
	}
	if res.RangeTombstonesDropped != 0 || len(res.DisposedCreatedAt) != 0 {
		t.Fatalf("carried range tombstone reported as disposed: %+v", res)
	}
}

func TestRunRangeTombstoneDisposedWhenAllowed(t *testing.T) {
	e := newTestEnv(1)
	rt := base.RangeTombstone{Lo: 0, Hi: 100, Seq: 50, CreatedAt: 9}
	in := e.newTable(t, []kv{{"a", 10, base.KindSet, dkVal(500)}}, []base.RangeTombstone{rt})
	env := e.env(t)
	env.Bottommost = true
	env.RangeTombstoneDisposable = func(base.RangeTombstone) bool { return true }
	res, err := Run(candidate(1, []*manifest.FileMetadata{in}, nil), env)
	if err != nil {
		t.Fatal(err)
	}
	if res.RangeTombstonesDropped != 1 || !slices.Equal(res.DisposedCreatedAt, []base.Timestamp{rt.CreatedAt}) {
		t.Fatalf("range tombstone not disposed: %+v", res)
	}
	if len(res.Outputs) != 1 || res.Outputs[0].Meta.Props.NumRangeDeletes != 0 {
		t.Fatalf("outputs should carry no range tombstones: %+v", res.Outputs)
	}
}

func TestRunEntryLevelRangeDropAtBottom(t *testing.T) {
	e := newTestEnv(1)
	rt := base.RangeTombstone{Lo: 0, Hi: 100, Seq: 50, CreatedAt: 9}
	in := e.newTable(t, []kv{
		{"a", 10, base.KindSet, dkVal(5)},   // covered (dk 5 < 100, seq 10 < 50)
		{"a", 3, base.KindSet, dkVal(500)},  // older version: must die with it
		{"b", 60, base.KindSet, dkVal(5)},   // NOT covered: seq 60 > rt.Seq
		{"c", 20, base.KindSet, dkVal(200)}, // NOT covered: dk outside
	}, []base.RangeTombstone{rt})
	env := e.env(t)
	env.Bottommost = true
	env.RangeTombstoneDisposable = func(base.RangeTombstone) bool { return true }
	res, err := Run(candidate(1, []*manifest.FileMetadata{in}, nil), env)
	if err != nil {
		t.Fatal(err)
	}
	got := e.readAll(t, res)
	if len(got) != 2 || got[0].key != "b" || got[1].key != "c" {
		t.Fatalf("range-covered entries survived: %+v", got)
	}
	if res.RangeCoveredDropped != 1 {
		t.Fatalf("RangeCoveredDropped = %d", res.RangeCoveredDropped)
	}
}

// TestRunKiWiPageDropsCounted: pages and entries a range tombstone covers are
// dropped at the bottom — whether the tombstone is the input's own (a merge
// that may then retire it) or a live one from outside the inputs applied to a
// tombstone-free file in place (the eager erase), which the outputs must not
// carry and the run must not report as disposed.
func TestRunKiWiPageDropsCounted(t *testing.T) {
	for _, live := range []bool{false, true} {
		e := newTestEnv(4)
		var kvs []kv
		n := 600
		for i := 0; i < n; i++ {
			kvs = append(kvs, kv{fmt.Sprintf("k%06d", i), base.SeqNum(i + 1), base.KindSet, dkVal(uint64(i * 7919 % n))})
		}
		rt := base.RangeTombstone{Lo: 0, Hi: uint64(n / 2), Seq: base.SeqNum(n + 1), CreatedAt: 1}
		env := e.env(t)
		env.Bottommost = true
		env.RangeTombstoneDisposable = func(base.RangeTombstone) bool { return true }
		var c *Candidate
		if live {
			in := e.newTable(t, kvs, nil)
			env.LiveRangeTombstones = []base.RangeTombstone{rt}
			c = &Candidate{Trigger: TriggerRangeDelete, StartLevel: 1, OutputLevel: 1, OutputRunID: 1,
				Inputs: []*manifest.Run{{ID: 1, Files: []*manifest.FileMetadata{in}}}}
		} else {
			c = candidate(1, []*manifest.FileMetadata{e.newTable(t, kvs, []base.RangeTombstone{rt})}, nil)
		}
		res, err := Run(c, env)
		if err != nil {
			t.Fatal(err)
		}
		if res.PagesDropped == 0 {
			t.Fatalf("live=%v: no pages dropped in KiWi layout", live)
		}
		wantDisposed := 1
		if live {
			wantDisposed = 0
		}
		if res.RangeTombstonesDropped != uint64(wantDisposed) || len(res.DisposedCreatedAt) != wantDisposed {
			t.Fatalf("live=%v: %d range tombstones disposed (%d timestamps reported), want %d",
				live, res.RangeTombstonesDropped, len(res.DisposedCreatedAt), wantDisposed)
		}
		for _, of := range res.Outputs {
			if of.Meta.Props.NumRangeDeletes != 0 {
				t.Fatalf("live=%v: output %s carries a range tombstone", live, of.FileNum)
			}
		}
		got := e.readAll(t, res)
		for _, g := range got {
			if dkx(g.val) < uint64(n/2) {
				t.Fatalf("live=%v: covered entry %q (dk %d) survived", live, g.key, dkx(g.val))
			}
		}
		want := 0
		for _, kv := range kvs {
			if dkx(kv.val) >= uint64(n/2) {
				want++
			}
		}
		if len(got) != want {
			t.Fatalf("live=%v: survivors = %d, want %d", live, len(got), want)
		}
	}
}

func TestRunRollsOutputFiles(t *testing.T) {
	e := newTestEnv(1)
	var kvs []kv
	for i := 0; i < 500; i++ {
		kvs = append(kvs, kv{fmt.Sprintf("k%06d", i), base.SeqNum(i + 1), base.KindSet, dkVal(uint64(i))})
	}
	in := e.newTable(t, kvs, nil)
	env := e.env(t)
	env.TargetFileBytes = 2048
	res, err := Run(candidate(1, []*manifest.FileMetadata{in}, nil), env)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs) < 3 {
		t.Fatalf("expected multiple rolled outputs, got %d", len(res.Outputs))
	}
	// Outputs must be key-disjoint and ordered.
	for i := 0; i+1 < len(res.Outputs); i++ {
		a, b := res.Outputs[i].Meta, res.Outputs[i+1].Meta
		if base.Compare(a.Largest.UserKey, b.Smallest.UserKey) >= 0 {
			t.Fatal("rolled outputs overlap")
		}
	}
	if got := e.readAll(t, res); len(got) != 500 {
		t.Fatalf("entries lost in rolling: %d", len(got))
	}
}

func TestRunEmptyInputsNoOutputs(t *testing.T) {
	e := newTestEnv(1)
	env := e.env(t)
	res, err := Run(candidate(1, nil, nil), env)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs) != 0 {
		t.Fatal("outputs from nothing")
	}
}

func TestRunTombstoneOnlyOutputWhenRangeDelsSurvive(t *testing.T) {
	e := newTestEnv(1)
	rt := base.RangeTombstone{Lo: 0, Hi: 100, Seq: 50, CreatedAt: 9}
	// Single covered entry + the tombstone: at bottom the entry dies, but
	// the tombstone must survive (not disposable) in a tombstone-only
	// output.
	in := e.newTable(t, []kv{{"a", 10, base.KindSet, dkVal(5)}}, []base.RangeTombstone{rt})
	env := e.env(t)
	env.Bottommost = true
	env.RangeTombstoneDisposable = func(base.RangeTombstone) bool { return false }
	res, err := Run(candidate(1, []*manifest.FileMetadata{in}, nil), env)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs) != 1 {
		t.Fatalf("want a tombstone-only output, got %d outputs", len(res.Outputs))
	}
	p := res.Outputs[0].Meta.Props
	if p.NumEntries != 0 || p.NumRangeDeletes != 1 {
		t.Fatalf("tombstone-only output props: %+v", p)
	}
}
