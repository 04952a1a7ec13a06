package manifest

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/base"
	"repro/internal/vfs"
	"repro/internal/vfs/errorfs"
)

func ik(s string, seq base.SeqNum) base.InternalKey {
	return base.MakeInternalKey([]byte(s), seq, base.KindSet)
}

func fileMeta(num int, lo, hi string) *FileMetadata {
	return &FileMetadata{
		FileNum:  base.FileNum(num),
		Size:     1000,
		Smallest: ik(lo, 100),
		Largest:  ik(hi, 1),
	}
}

func TestFilenameRoundtrip(t *testing.T) {
	cases := []struct {
		t  FileType
		fn base.FileNum
	}{
		{FileTypeTable, 1},
		{FileTypeTable, 999999},
		{FileTypeLog, 42},
		{FileTypeManifest, 7},
		{FileTypeCurrent, 0},
	}
	for _, c := range cases {
		name := MakeFilename("", c.t, c.fn)
		gt, gfn, ok := ParseFilename(name)
		if !ok || gt != c.t || gfn != c.fn {
			t.Errorf("roundtrip %v/%v -> %q -> %v/%v ok=%v", c.t, c.fn, name, gt, gfn, ok)
		}
	}
	for _, bad := range []string{"foo", "x.sst.bak", "MANIFEST", "12ab.log"} {
		if _, _, ok := ParseFilename(bad); ok {
			t.Errorf("ParseFilename(%q) should fail", bad)
		}
	}
}

func TestVersionEditEncodeDecode(t *testing.T) {
	e := &VersionEdit{
		Added: []NewFileEntry{
			{Level: 2, RunID: 7, Meta: &FileMetadata{
				FileNum: 12, Size: 4096,
				Smallest: ik("aaa", 55), Largest: ik("zzz", 3),
				NumEntries: 100, NumDeletes: 7, NumRangeDeletes: 2,
				HasTombstones: true, OldestTombstone: 12345,
				DeleteKeyMin: 10, DeleteKeyMax: 99,
				LargestSeqNum: 55, SmallestSeqNum: 3,
			}},
		},
		Deleted:     []DeletedFileEntry{{Level: 1, FileNum: 3}, {Level: 0, FileNum: 9}},
		LastSeqNum:  777,
		NextFileNum: 13,
		LogNum:      11,
		NextRunID:   8,
	}
	dec, err := DecodeVersionEdit(e.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(e, dec) {
		t.Fatalf("roundtrip mismatch:\n got %+v\nwant %+v", dec, e)
	}
}

func TestVersionEditDecodeRejectsTruncated(t *testing.T) {
	e := &VersionEdit{Added: []NewFileEntry{{Level: 1, RunID: 2, Meta: fileMeta(5, "a", "b")}}}
	enc := e.Encode()
	if _, err := DecodeVersionEdit(enc[:len(enc)-3]); err == nil {
		t.Fatal("truncated edit accepted")
	}
	if _, err := DecodeVersionEdit([]byte{200}); err == nil {
		t.Fatal("unknown tag accepted")
	}
}

func TestVersionApplyAddDelete(t *testing.T) {
	v := &Version{}
	v1, err := v.Apply(&VersionEdit{Added: []NewFileEntry{
		{Level: 1, RunID: 5, Meta: fileMeta(1, "a", "f")},
		{Level: 1, RunID: 5, Meta: fileMeta(2, "g", "m")},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Levels[1]) != 0 {
		t.Fatal("Apply mutated the original version")
	}
	if len(v1.Levels[1]) != 1 || len(v1.Levels[1][0].Files) != 2 {
		t.Fatalf("v1 shape wrong: %+v", v1.Levels[1])
	}
	v2, err := v1.Apply(&VersionEdit{Deleted: []DeletedFileEntry{{Level: 1, FileNum: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(v2.Levels[1][0].Files) != 1 || v2.Levels[1][0].Files[0].FileNum != 2 {
		t.Fatal("delete did not remove file 1")
	}
	if len(v1.Levels[1][0].Files) != 2 {
		t.Fatal("delete mutated the parent version's run")
	}
	// Deleting the last file drops the run.
	v3, err := v2.Apply(&VersionEdit{Deleted: []DeletedFileEntry{{Level: 1, FileNum: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(v3.Levels[1]) != 0 {
		t.Fatal("empty run not dropped")
	}
}

// TestVersionApplyCarriesRangeTombstones: a file's range tombstones join the
// version's list in the same Apply that adds the file, survive a trivial move
// (the same *FileMetadata re-added at another level), and leave with it.
func TestVersionApplyCarriesRangeTombstones(t *testing.T) {
	rts := []base.RangeTombstone{{Lo: 10, Hi: 20, Seq: 7}, {Lo: 30, Hi: 40, Seq: 9}}
	carrier := fileMeta(1, "a", "c")
	carrier.NumRangeDeletes = uint64(len(rts))
	carrier.RangeTombstones = rts
	plain := fileMeta(2, "d", "f")

	v, err := (&Version{}).Apply(&VersionEdit{Added: []NewFileEntry{
		{Level: 0, RunID: 2, Meta: carrier}, {Level: 0, RunID: 1, Meta: plain},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if got := v.RangeTombstones(); !reflect.DeepEqual(got, rts) {
		t.Fatalf("after add: %v, want %v", got, rts)
	}
	moved, err := v.Apply(&VersionEdit{
		Deleted: []DeletedFileEntry{{Level: 0, FileNum: 1}},
		Added:   []NewFileEntry{{Level: 3, RunID: 5, Meta: carrier}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := moved.RangeTombstones(); !reflect.DeepEqual(got, rts) {
		t.Fatalf("after trivial move: %v, want %v", got, rts)
	}
	if got := v.RangeTombstones(); !reflect.DeepEqual(got, rts) {
		t.Fatalf("older version's list changed: %v", got)
	}
	dropped, err := moved.Apply(&VersionEdit{Deleted: []DeletedFileEntry{{Level: 3, FileNum: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if got := dropped.RangeTombstones(); len(got) != 0 {
		t.Fatalf("after delete: %v, want none", got)
	}
}

func TestVersionApplyUnknownDeleteFails(t *testing.T) {
	v := &Version{}
	if _, err := v.Apply(&VersionEdit{Deleted: []DeletedFileEntry{{Level: 1, FileNum: 99}}}); err == nil {
		t.Fatal("deleting unknown file should fail")
	}
	if _, err := v.Apply(&VersionEdit{Added: []NewFileEntry{{Level: 99, RunID: 1, Meta: fileMeta(1, "a", "b")}}}); err == nil {
		t.Fatal("bogus level should fail")
	}
}

func TestRunsOrderedNewestFirst(t *testing.T) {
	v := &Version{}
	var err error
	for _, runID := range []uint64{3, 9, 5} {
		v, err = v.Apply(&VersionEdit{Added: []NewFileEntry{
			{Level: 0, RunID: runID, Meta: fileMeta(int(runID), "a", "z")},
		}})
		if err != nil {
			t.Fatal(err)
		}
	}
	ids := []uint64{}
	for _, r := range v.Levels[0] {
		ids = append(ids, r.ID)
	}
	if !reflect.DeepEqual(ids, []uint64{9, 5, 3}) {
		t.Fatalf("run order = %v, want [9 5 3]", ids)
	}
}

func TestRunFilesSortedAndFind(t *testing.T) {
	v := &Version{}
	var err error
	for i, bounds := range [][2]string{{"m", "p"}, {"a", "c"}, {"t", "z"}, {"e", "k"}} {
		v, err = v.Apply(&VersionEdit{Added: []NewFileEntry{
			{Level: 2, RunID: 1, Meta: fileMeta(i+1, bounds[0], bounds[1])},
		}})
		if err != nil {
			t.Fatal(err)
		}
	}
	run := v.Levels[2][0]
	for i := 0; i+1 < len(run.Files); i++ {
		if base.Compare(run.Files[i].Smallest.UserKey, run.Files[i+1].Smallest.UserKey) >= 0 {
			t.Fatal("run files not sorted by smallest key")
		}
	}
	find := func(lo, hi string) []int {
		var nums []int
		for _, f := range run.Find([]byte(lo), []byte(hi)) {
			nums = append(nums, int(f.FileNum))
		}
		return nums
	}
	if got := find("b", "f"); !reflect.DeepEqual(got, []int{2, 4}) {
		t.Fatalf("Find(b,f) = %v", got)
	}
	if got := find("q", "s"); got != nil {
		t.Fatalf("Find in gap = %v", got)
	}
	if got := find("a", "z"); !reflect.DeepEqual(got, []int{2, 4, 1, 3}) {
		t.Fatalf("Find(all) = %v", got)
	}
	if got := find("p", "p"); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("Find(point) = %v", got)
	}
}

func TestVersionAccounting(t *testing.T) {
	v := &Version{}
	var err error
	v, err = v.Apply(&VersionEdit{Added: []NewFileEntry{
		{Level: 0, RunID: 2, Meta: fileMeta(1, "a", "b")},
		{Level: 3, RunID: 1, Meta: fileMeta(2, "a", "b")},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if v.NumFiles() != 2 || v.TotalSize() != 2000 {
		t.Fatalf("NumFiles=%d TotalSize=%d", v.NumFiles(), v.TotalSize())
	}
	if v.LevelSize(0) != 1000 || v.LevelSize(3) != 1000 || v.LevelSize(1) != 0 {
		t.Fatal("level sizes wrong")
	}
	if v.MaxPopulatedLevel() != 3 {
		t.Fatalf("MaxPopulatedLevel = %d", v.MaxPopulatedLevel())
	}
	count := 0
	v.AllFiles(func(l int, f *FileMetadata) { count++ })
	if count != 2 {
		t.Fatalf("AllFiles visited %d", count)
	}
}

func TestVersionSetCreateLoad(t *testing.T) {
	fs := vfs.NewMemFS()
	vs, err := Create(fs, "db")
	if err != nil {
		t.Fatal(err)
	}
	vs.SetLastSeqNum(42)
	edit := &VersionEdit{Added: []NewFileEntry{
		{Level: 0, RunID: vs.AllocRunID(), Meta: fileMeta(int(vs.AllocFileNum()), "a", "m")},
	}}
	if _, err := vs.Commit(edit, nil, nil); err != nil {
		t.Fatal(err)
	}
	edit2 := &VersionEdit{Added: []NewFileEntry{
		{Level: 1, RunID: vs.AllocRunID(), Meta: fileMeta(int(vs.AllocFileNum()), "n", "z")},
	}}
	if _, err := vs.Commit(edit2, nil, nil); err != nil {
		t.Fatal(err)
	}
	nextFile, nextRun := vs.NextFileNum(), vs.NextRunID()
	if err := vs.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Load(fs, "db")
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.LastSeqNum() != 42 {
		t.Fatalf("LastSeqNum = %d", re.LastSeqNum())
	}
	if re.NextFileNum() < nextFile || re.NextRunID() < nextRun {
		t.Fatalf("counters regressed: file %d<%d or run %d<%d", re.NextFileNum(), nextFile, re.NextRunID(), nextRun)
	}
	v := re.Current()
	if v.NumFiles() != 2 || len(v.Levels[0]) != 1 || len(v.Levels[1]) != 1 {
		t.Fatalf("recovered shape wrong: %d files", v.NumFiles())
	}
}

func TestVersionSetLoadAfterManyEdits(t *testing.T) {
	fs := vfs.NewMemFS()
	vs, err := Create(fs, "db")
	if err != nil {
		t.Fatal(err)
	}
	// Add then remove files repeatedly; final state is one file.
	for i := 0; i < 50; i++ {
		fn := vs.AllocFileNum()
		add := &VersionEdit{Added: []NewFileEntry{
			{Level: 0, RunID: vs.AllocRunID(), Meta: fileMeta(int(fn), "a", "z")},
		}}
		if _, err := vs.Commit(add, nil, nil); err != nil {
			t.Fatal(err)
		}
		if i < 49 {
			del := &VersionEdit{Deleted: []DeletedFileEntry{{Level: 0, FileNum: fn}}}
			if _, err := vs.Commit(del, nil, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	vs.Close()
	re, err := Load(fs, "db")
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Current().NumFiles() != 1 {
		t.Fatalf("recovered %d files, want 1", re.Current().NumFiles())
	}
}

func TestManifestRollsOnLoad(t *testing.T) {
	fs := vfs.NewMemFS()
	vs, _ := Create(fs, "db")
	firstManifest := vs.manifestNum
	vs.Close()
	re, err := Load(fs, "db")
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.manifestNum == firstManifest {
		t.Fatal("Load should roll to a fresh manifest")
	}
	// The superseded manifest is removed.
	if fs.Exists(MakeFilename("db", FileTypeManifest, firstManifest)) {
		t.Fatal("old manifest not cleaned up")
	}
}

func TestLoadMissingCurrent(t *testing.T) {
	fs := vfs.NewMemFS()
	if _, err := Load(fs, "nowhere"); err == nil {
		t.Fatal("Load without CURRENT should fail")
	}
}

func TestTombstoneDensity(t *testing.T) {
	f := &FileMetadata{NumEntries: 100, NumDeletes: 25}
	if d := f.TombstoneDensity(); d != 0.25 {
		t.Fatalf("density = %f", d)
	}
	empty := &FileMetadata{}
	if empty.TombstoneDensity() != 0 {
		t.Fatal("empty file density should be 0")
	}
}

func TestOverlaps(t *testing.T) {
	f := fileMeta(1, "f", "m")
	cases := []struct {
		lo, hi string
		want   bool
	}{
		{"a", "e", false},
		{"a", "f", true},
		{"g", "h", true},
		{"m", "z", true},
		{"n", "z", false},
	}
	for _, c := range cases {
		if got := f.Overlaps([]byte(c.lo), []byte(c.hi)); got != c.want {
			t.Errorf("Overlaps(%q,%q) = %v", c.lo, c.hi, got)
		}
	}
}

func TestAllocators(t *testing.T) {
	fs := vfs.NewMemFS()
	vs, _ := Create(fs, "db")
	defer vs.Close()
	a, b := vs.AllocFileNum(), vs.AllocFileNum()
	if b != a+1 {
		t.Fatal("file numbers not sequential")
	}
	r1, r2 := vs.AllocRunID(), vs.AllocRunID()
	if r2 != r1+1 {
		t.Fatal("run ids not sequential")
	}
}

func TestSnapshotEditReconstructsState(t *testing.T) {
	fs := vfs.NewMemFS()
	vs, _ := Create(fs, "db")
	for l := 0; l < 4; l++ {
		edit := &VersionEdit{Added: []NewFileEntry{
			{Level: l, RunID: vs.AllocRunID(), Meta: fileMeta(int(vs.AllocFileNum()), fmt.Sprintf("k%d", l), fmt.Sprintf("m%d", l))},
		}}
		if _, err := vs.Commit(edit, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	snap := vs.snapshotEdit()
	fresh := &Version{}
	rebuilt, err := fresh.Apply(snap)
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt.NumFiles() != vs.Current().NumFiles() {
		t.Fatal("snapshot edit loses files")
	}
	vs.Close()
}

// TestConcurrentCommit drives many goroutines through Commit at once.
// The commit point serializes them, so every edit must land exactly once and
// the counters must be monotone.
func TestConcurrentCommit(t *testing.T) {
	fs := vfs.NewMemFS()
	vs, err := Create(fs, "db")
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	const perWorker = 16
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				fn := vs.AllocFileNum()
				lo := fmt.Sprintf("w%02d-%03d", w, i)
				e := &VersionEdit{Added: []NewFileEntry{{Level: 6, Meta: fileMeta(int(fn), lo, lo+"z")}}}
				_, err := vs.Commit(e, func(*Version) { e.Added[0].RunID = vs.AllocRunID() }, nil)
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := vs.Current().NumFiles(); got != workers*perWorker {
		t.Fatalf("NumFiles = %d, want %d", got, workers*perWorker)
	}
	vs.Close()

	re, err := Load(fs, "db")
	if err != nil {
		t.Fatal(err)
	}
	if got := re.Current().NumFiles(); got != workers*perWorker {
		t.Fatalf("reloaded NumFiles = %d, want %d", got, workers*perWorker)
	}
	re.Close()
}

// TestFailedCommitIsForgotten: an edit whose append or fsync failed was never
// installed, so no later Load may replay it. The version set rolls to a fresh
// manifest to forget the record; when the roll fails too, the error says the
// edit is in doubt and the next commit rolls before it appends.
func TestFailedCommitIsForgotten(t *testing.T) {
	add := func(num int) *VersionEdit {
		return &VersionEdit{Added: []NewFileEntry{{Level: 1, RunID: 1, Meta: fileMeta(num, "a", "b")}}}
	}
	for _, sticky := range []bool{false, true} {
		t.Run(fmt.Sprintf("roll-fails=%v", sticky), func(t *testing.T) {
			efs := errorfs.Wrap(vfs.NewMemFS(), 1)
			vs, err := Create(efs, "db")
			if err != nil {
				t.Fatal(err)
			}
			efs.Add(&errorfs.Rule{Ops: []errorfs.Op{errorfs.OpSync}, PathGlob: "MANIFEST-*", Sticky: sticky, Kind: errorfs.FaultTransient})
			_, err = vs.Commit(add(100), nil, nil)
			if err == nil || errors.Is(err, ErrEditInDoubt) != sticky {
				t.Fatalf("failed commit: %v; in doubt want %v", err, sticky)
			}
			if n := vs.Current().NumFiles(); n != 0 {
				t.Fatalf("failed edit installed: %d files", n)
			}
			efs.Clear()
			if _, err := vs.Commit(add(101), nil, nil); err != nil {
				t.Fatal(err)
			}
			vs.Close()

			re, err := Load(efs, "db")
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			var got []base.FileNum
			re.Current().AllFiles(func(_ int, f *FileMetadata) { got = append(got, f.FileNum) })
			if !reflect.DeepEqual(got, []base.FileNum{101}) {
				t.Fatalf("reloaded files %v, want [101]", got)
			}
			names, _ := efs.List("db")
			manifests := 0
			for _, name := range names {
				if typ, _, ok := ParseFilename(name); ok && typ == FileTypeManifest {
					manifests++
				}
			}
			if manifests != 1 {
				t.Fatalf("%d manifest files in %v, want 1", manifests, names)
			}
		})
	}
}

// TestVersionRefsReportDeadFiles: a file is reported dead exactly once, by
// whoever drops the last version holding it — the install that replaced it,
// or the Unref of a reader still holding the old version. A trivially moved
// file (deleted and re-added by one edit) is never dead, and Load's replay
// leaves each recovered file held by the current version alone.
func TestVersionRefsReportDeadFiles(t *testing.T) {
	fs := vfs.NewMemFS()
	vs, err := Create(fs, "db")
	if err != nil {
		t.Fatal(err)
	}
	add := func(level int, f *FileMetadata) NewFileEntry {
		return NewFileEntry{Level: level, RunID: vs.AllocRunID(), Meta: f}
	}
	f1, f2 := fileMeta(int(vs.AllocFileNum()), "a", "f"), fileMeta(int(vs.AllocFileNum()), "g", "m")
	if _, err := vs.Commit(&VersionEdit{Added: []NewFileEntry{add(0, f1), add(0, f2)}}, nil, nil); err != nil {
		t.Fatal(err)
	}
	commit := func(e *VersionEdit) []base.FileNum {
		t.Helper()
		dead, err := vs.Commit(e, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return dead
	}

	// Replaced under a reader: the install reports nothing, the reader's
	// Unref reports the file.
	reader := vs.Ref()
	f3 := fileMeta(int(vs.AllocFileNum()), "a", "f")
	if dead := commit(&VersionEdit{Added: []NewFileEntry{add(1, f3)}, Deleted: []DeletedFileEntry{{Level: 0, FileNum: f1.FileNum}}}); len(dead) != 0 {
		t.Fatalf("install under a reader reported %v dead", dead)
	}
	if dead := reader.Unref(); !reflect.DeepEqual(dead, []base.FileNum{f1.FileNum}) {
		t.Fatalf("reader's Unref reported %v dead, want [%s]", dead, f1.FileNum)
	}

	// Trivially moved, with and without a reader: never dead.
	reader = vs.Ref()
	if dead := commit(&VersionEdit{Added: []NewFileEntry{add(2, f2)}, Deleted: []DeletedFileEntry{{Level: 0, FileNum: f2.FileNum}}}); len(dead) != 0 {
		t.Fatalf("trivial move reported %v dead", dead)
	}
	if dead := reader.Unref(); len(dead) != 0 {
		t.Fatalf("reader of the pre-move version reported %v dead", dead)
	}
	if dead := commit(&VersionEdit{Added: []NewFileEntry{add(3, f2)}, Deleted: []DeletedFileEntry{{Level: 2, FileNum: f2.FileNum}}}); len(dead) != 0 {
		t.Fatalf("second trivial move reported %v dead", dead)
	}

	// Replaced with no reader: the install itself reports it.
	if dead := commit(&VersionEdit{Deleted: []DeletedFileEntry{{Level: 1, FileNum: f3.FileNum}}}); !reflect.DeepEqual(dead, []base.FileNum{f3.FileNum}) {
		t.Fatalf("install with no reader reported %v dead, want [%s]", dead, f3.FileNum)
	}
	if err := vs.Close(); err != nil {
		t.Fatal(err)
	}

	// The log replays adds, deletes and moves; afterwards the one surviving
	// file is held by the current version only, so replacing it reports it
	// at once, and a reader of the replaced version has nothing left to free.
	re, err := Load(fs, "db")
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	v := re.Ref()
	if v.NumFiles() != 1 || len(v.Levels[3]) != 1 || v.Levels[3][0].Files[0].FileNum != f2.FileNum {
		t.Fatalf("recovered %d files, want only %s at L3", v.NumFiles(), f2.FileNum)
	}
	if dead := v.Unref(); len(dead) != 0 {
		t.Fatalf("reader of the recovered version reported %v dead", dead)
	}
	dead, err := re.Commit(&VersionEdit{Deleted: []DeletedFileEntry{{Level: 3, FileNum: f2.FileNum}}}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dead, []base.FileNum{f2.FileNum}) {
		t.Fatalf("replacing the recovered file reported %v dead, want [%s]", dead, f2.FileNum)
	}
}
