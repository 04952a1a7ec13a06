package compaction

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"repro/internal/base"
	"repro/internal/manifest"
)

// goldenTables pins, byte for byte, every table the writer and Run produce
// for fixed inputs: the SHA-256 of each input table (written straight through
// sstable.Writer, range tombstones included) and of each output of three
// merges over them — above the bottom, at the bottom under an open snapshot
// stripe, and at the bottom with nothing open, where point tombstones, one of
// the two range tombstones, covered entries and (h = 4) whole pages go. Block
// size 512, bloom and prefix bloom on, outputs rolled at 24 KiB. The h = 1
// hashes were generated at PR 23 (639fe90): a change that is not meant to
// alter the table format must leave them alone. The h = 4 ones (but "large")
// were regenerated when page filters replaced a KiWi table's file filter:
// each page's index entry gained its filter and the filter block went; data,
// range-tombstone and properties blocks are unchanged. The "large" cases
// (largeGoldenRun) are the one merge big enough to cross many handoff batches
// and output rolls; their hashes were generated at 599d24a, before Run became
// a pipeline, and they write no filters.
var goldenTables = map[string][]string{
	"h=1/inputs": {
		"9e4241c825e5b0150c386fea95157f9794ecfc1f11b899f751d394f826eb14b0",
		"f2a600fdc94fb67139efdb1a67f76dba9e610f7d34bc7811018470d6ed0c492f",
		"544b0c6af6f90e1276a36a0c9f3c7e5200eda20925e727488bb80d2016c075e4",
		"eb0eab129f1b162d4743196d73adeb49f2bb0a9e92d29f227840c076b3a935fc",
		"e421a976d59181751c7867b0cbd833f3790976024dc2e2c1be528c9fcd0e77b2",
		"661156cb2e577ed01fe07fecb7acfc439e705f5d21b1aa15306f5d73a2fc5357",
		"2f2f38653abb7c7ea45670e3359cbec6ccf3a8b3c057d5dee817c3854f7c68e5",
	},
	"h=1/upper": {
		"641228d8b36c2bc48bb63952e195a6b4d1375177ce3fc8384f0278a305f48420",
		"638b7bda64136dc71ef75a2403abca30d6b6b8c09212f758ef925f4b694f4b34",
		"56553ed7679078545ad339f667cc93a1a94980a73c75a31e2539a013a87d10db",
		"efca42387547745cc35f1f44b6fae6bc0e61ef081074187a3cede3d602c35ce8",
	},
	"h=1/bottom-snapshot": {
		"641228d8b36c2bc48bb63952e195a6b4d1375177ce3fc8384f0278a305f48420",
		"638b7bda64136dc71ef75a2403abca30d6b6b8c09212f758ef925f4b694f4b34",
		"9f559a4c8255c588ef31196963bdf3d5953a96744e7fc3e0766c02dcd0db52c0",
		"04fd8333cfc2f375e31acf0767bf83328d86de0c3e33dd9eb37bbc03eb2f67c3",
		"387b5ade06e59e483e6089738b5c77cb4ac792b11ac097887d99d7c4ce33c76e",
	},
	"h=1/bottom": {
		"f8a56ec0e6afec3a9483e75945cd03c61299f300f0265213f4a6a464f39e5198",
		"213c3a8ead43c32ff835f9b029f44cdce04244387cdea6d4b067dcda3a22f074",
	},
	"h=1/large": {
		"ad96a078d957edce19fd94c7c7fd5671c7a537f4a729a6b1a8bc8d090832eebc",
		"3727e267a0c8b0b3fdc88533d70c7eed1bcce05cae8556fe9b342b8aadfd64fb",
		"3a30e65213208cc0c6e44f1df1eec58b4ed1b3b721b2df44ad76543f89a7a0ca",
		"f6cec4fbbb86708aedbfe0b0a388aafc5177c5c7af28df95426654fb8f685b48",
		"bd7d32cad613b5c89dc761bd7af7bad66e90fa9f742f3edc9a6557d16e42002b",
		"97b107f02cbba3f3d06235c903dd3abb77bb13696fbdeda145c233243d315b29",
		"a4354269eaf9a2a0cfe1f140c180d9b7858aa93f7a6d16823549584c9d2c5378",
	},
	"h=4/inputs": {
		"dcb8bf666880696e6fce37edc601bf8c0150d83c4f90104bd8b64b983c952c47",
		"b865e1f548644071b7f1e08ea183437f517b05d563705c583f84952bc5490327",
		"48c4af05876944c9cb231699275a000dd26c0278db8e5a94b4ab237f4cdbd0aa",
		"b6d2ddaf10f39719f76f9801be2ef5d52fbe4b423c59f2b8a8926e927a0c1054",
		"7a0e45c735ee624322a68b9b9c54b807f6fd723a55e92152e36faa7bbfa8ec16",
		"490a9865bc835a716d36cd82c134589c128ef5371ddb158e7e42f3f2843aea06",
		"02866055cabd54b4f23ce77e44f92cf58bc9a94f52b0fbaea93b77bf3e8005c4",
	},
	"h=4/upper": {
		"b23131a4682a29dbf2f46ea74a32e6414dafbb9dbf653bb1e8254d5f3e5a7a32",
		"9997a868e78de89e03d4657508fa68f17d90ee421e6c63f36ac13fcab99b678f",
		"783e654e47ab76454526da2f0a48edeeaefa0de99c3ccad90d8419eeeec73b83",
		"adbde7e27462cc1c0007ffa358cd457d1b1fd88c3005a1095a2065a98f07434a",
	},
	"h=4/bottom-snapshot": {
		"b23131a4682a29dbf2f46ea74a32e6414dafbb9dbf653bb1e8254d5f3e5a7a32",
		"9997a868e78de89e03d4657508fa68f17d90ee421e6c63f36ac13fcab99b678f",
		"a4af0ab78614b831124c2ccd4a8c809c3c79968d4d39da851d2228a929df9dad",
		"41aa038f9708f24a05b46e79241d26553d26af7a72673ac32aa78fdca1661251",
		"3f820b58b7767ba77fc49a39696f6fedbebafb556c370512185de92879bc772b",
	},
	"h=4/bottom": {
		"9e833623a237ca74cc51682acacbf0d142f082c182679b2a7e3b1428f954acff",
		"b324560e598ddf68b96f14a96b32cb8474903bf7aa47c843d8608964caa40f54",
	},
	"h=4/large": {
		"3917bd65381797125096ccb9a3914422143181a924a419d4fd01105968c16b12",
		"de70269e2987061ebdbb95644cfae8e07af2db7e178669f26668231543f986e9",
		"e97e8a99f452b86a1d6104f1cfdcc23378cf4ce9eae8f04e8039970e4a331216",
		"41cb4a2eb3f05e230f8b3c860db1f1ad6ccacdb30f5deacad885d8ffa7637aaf",
		"fd0321c9e2ea33aa01b0e656281f1b84fb5cb2e0bf97c9c68d913e463cb2a4f3",
		"9712f3f92396cb01c0244719f4f0ed8d58ebb8e0d80769635d998a40dfcf1b1a",
		"e98aa6f34261be8a149bd6b23fe37afd2bcb46667b62806c86224f27fcf0b97f",
	},
}

// goldenFixture builds the shared inputs: an older run of four files with one
// version of each of 2 400 keys, and a newer run of three files overlapping
// its upper half, one entry in five a tombstone, the first file carrying two
// range tombstones.
func goldenFixture(t *testing.T, h int) (e *testEnv, newer, older []*manifest.FileMetadata) {
	e = newTestEnv(h)
	e.wopts.BloomBitsPerKey = 10
	e.wopts.PrefixBloomLength = 5
	const n = 2400
	value := func(dk, pad int) []byte { return append(dkVal(uint64(dk)), make([]byte, pad)...) }
	for lo := 0; lo < n; lo += n / 4 {
		var kvs []kv
		for i := lo; i < lo+n/4; i++ {
			kvs = append(kvs, kv{fmt.Sprintf("k%06d", i), base.SeqNum(1 + i), base.KindSet, value(i*7919%n, i%23)})
		}
		older = append(older, e.newTable(t, kvs, nil))
	}
	rts := []base.RangeTombstone{
		{Lo: 0, Hi: 1300, Seq: 9000, CreatedAt: 7},
		{Lo: 2000, Hi: 2100, Seq: 9001, CreatedAt: 9},
	}
	for lo := n / 2; lo < n; lo += n / 6 {
		var kvs []kv
		for i := lo; i < lo+n/6; i++ {
			k := kv{fmt.Sprintf("k%06d", i), base.SeqNum(5000 + i), base.KindSet, value(i*104729%n, i%17)}
			if i%5 == 0 {
				k.kind, k.val = base.KindDelete, base.EncodeTombstoneValue(base.Timestamp(i))
			}
			kvs = append(kvs, k)
		}
		newer = append(newer, e.newTable(t, kvs, rts))
		rts = nil
	}
	return e, newer, older
}

// largeGoldenRun is the "large" golden merge, big enough to cross many
// handoff batches and output rolls: at the bottom, two half-overlapping runs of
// benchRunEntries each, one newer entry in five a tombstone, two live range
// tombstones covering delete-key spans, outputs rolled at 256 KiB.
func largeGoldenRun(t *testing.T, h int) (*testEnv, *Result) {
	const n = benchRunEntries
	e := newTestEnv(h)
	older, newer := benchRunFiles(t, e, 0, 1, 0), benchRunFiles(t, e, n/2, n+1, 5)
	env := e.env(t)
	env.TargetFileBytes = 256 << 10
	env.Bottommost = true
	env.LiveRangeTombstones = []base.RangeTombstone{
		{Lo: 2000, Hi: 6000, Seq: 4 * n, CreatedAt: 1},
		{Lo: 12000, Hi: 12200, Seq: 4 * n, CreatedAt: 2},
	}
	res, err := Run(candidate(1, newer, older), env)
	if err != nil {
		t.Fatal(err)
	}
	if res.TombstonesDropped == 0 || res.RangeCoveredDropped == 0 || (h > 1 && res.PagesDropped == 0) {
		t.Fatalf("h=%d/large: fixture no longer exercises every drop: %+v", h, res)
	}
	// What crosses the pipe is each kept entry's user key and value.
	var handed uint64
	for _, of := range res.Outputs {
		p := of.Meta.Props
		handed += p.RawKeyBytes - 8*p.NumEntries + p.RawValueBytes
	}
	if handed < 8*batchBytes || len(res.Outputs) < 4 {
		t.Fatalf("h=%d/large: %d bytes handed over in %d tables, want at least 8 batches and 3 rolls", h, handed, len(res.Outputs))
	}
	return e, res
}

func (e *testEnv) hashTable(t *testing.T, fn base.FileNum) string {
	t.Helper()
	f, err := e.fs.Open(manifest.MakeFilename("db", manifest.FileTypeTable, fn))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, size)
	if _, err := f.ReadAt(data, 0); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(data))
}

func TestGoldenTableBytes(t *testing.T) {
	got := map[string][]string{}
	var order []string
	record := func(name string, hashes []string) {
		got[name] = hashes
		order = append(order, name)
	}
	for _, h := range []int{1, 4} {
		e, newer, older := goldenFixture(t, h)
		var inputs []string
		for _, f := range append(append([]*manifest.FileMetadata(nil), newer...), older...) {
			inputs = append(inputs, e.hashTable(t, f.FileNum))
		}
		record(fmt.Sprintf("h=%d/inputs", h), inputs)

		cases := []struct {
			name string
			tune func(*Env)
		}{
			{"upper", func(*Env) {}},
			{"bottom-snapshot", func(env *Env) {
				env.Bottommost = true
				env.Snapshots = []base.SeqNum{1800} // splits the older run: versions above it are shadowed, at or below it kept
				env.RangeTombstoneDisposable = func(base.RangeTombstone) bool { return true }
			}},
			{"bottom", func(env *Env) {
				env.Bottommost = true
				env.RangeTombstoneDisposable = func(rt base.RangeTombstone) bool { return rt.CreatedAt == 7 }
				env.LiveRangeTombstones = []base.RangeTombstone{{Lo: 1500, Hi: 1560, Seq: 9500, CreatedAt: 11}}
			}},
		}
		for _, c := range cases {
			env := e.env(t)
			env.TargetFileBytes = 24 << 10
			c.tune(&env)
			res, err := Run(candidate(1, newer, older), env)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Outputs) < 2 {
				t.Fatalf("h=%d/%s: %d outputs, want a roll", h, c.name, len(res.Outputs))
			}
			var outs []string
			for _, of := range res.Outputs {
				outs = append(outs, e.hashTable(t, of.FileNum))
			}
			record(fmt.Sprintf("h=%d/%s", h, c.name), outs)
			switch c.name {
			case "bottom-snapshot":
				if res.RangeTombstonesDropped != 0 || res.ShadowedDropped == 0 {
					t.Fatalf("h=%d/%s: fixture no longer exercises the stripe rule: %+v", h, c.name, res)
				}
			case "bottom":
				if res.TombstonesDropped == 0 || res.RangeTombstonesDropped != 1 || res.RangeCoveredDropped == 0 ||
					(h > 1 && res.PagesDropped == 0) {
					t.Fatalf("h=%d/%s: fixture no longer exercises every disposal: %+v", h, c.name, res)
				}
			}
		}

		le, res := largeGoldenRun(t, h)
		var outs []string
		for _, of := range res.Outputs {
			outs = append(outs, le.hashTable(t, of.FileNum))
		}
		record(fmt.Sprintf("h=%d/large", h), outs)
	}
	same := len(got) == len(goldenTables)
	for name, hashes := range got {
		same = same && strings.Join(hashes, ",") == strings.Join(goldenTables[name], ",")
	}
	if !same {
		var b strings.Builder
		for _, name := range order {
			fmt.Fprintf(&b, "\t%q: {\n", name)
			for _, h := range got[name] {
				fmt.Fprintf(&b, "\t\t%q,\n", h)
			}
			b.WriteString("\t},\n")
		}
		t.Fatalf("table bytes changed; the tables now hash to:\n%s", b.String())
	}
}
