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
// size 512, file or page Bloom filters on, outputs rolled at 24 KiB. The h = 1
// and h = 4 hashes but "large" were regenerated at 6ef740a when the fixture
// stopped writing a prefix filter block: a change that is not meant to alter
// the table format must leave them alone. The "large" cases (largeGoldenRun)
// are the one merge big enough to cross many handoff batches and output
// rolls; their hashes were generated at 599d24a, before Run became a
// pipeline, and they write no filters.
var goldenTables = map[string][]string{
	"h=1/inputs": {
		"2ecde05d86d7bb4cebf7755dd1cf67b575c15e1424f7eb63f06b831e83d57029",
		"78e23e48b0e34598d1b99bac0b15ea9123b25d4554c7705d24f2466683f6f512",
		"18a7d0526631300357723637ee1c9a306c970b993aece575f8c0905a834ac298",
		"b662270fb634fd8e007623dd1f3d6f77e3d99182b58c1cff9ded6dd7310a3b28",
		"4d3b5c0f9a02544c5fefec6083a3d1d8290eca7707a9378e5d3faab6487fece7",
		"f6f2344d60dd9526224595ab743303d31c137737fe8b5503e9fedc4e27cfd0e1",
		"ca15cc8569fa72ca3ca9818646a37c854f861bcaa8acb52a84879e75f31c18c4",
	},
	"h=1/upper": {
		"485dc29f56d3e2a506184b5414a2341f43e711ed6c9deeb3260676d8ee588e07",
		"3d05a2afaca6ae36625ab417c53eeb0b890db843f7e88e2fbbdecee61335fd3a",
		"7ab6a169b9035145b59ce5aa9847f83f783ccf2197ba9c3615a6e1e038f3f9fa",
		"b1c1555ee34b8ed848235d081e9561b7e692e111248e81e4a889cfba1ec024ac",
	},
	"h=1/bottom-snapshot": {
		"485dc29f56d3e2a506184b5414a2341f43e711ed6c9deeb3260676d8ee588e07",
		"3d05a2afaca6ae36625ab417c53eeb0b890db843f7e88e2fbbdecee61335fd3a",
		"bfdede4eb93de9bb4e8d1e1d527a7fef7b50dca213e240f657b7661b66ecbb82",
		"3f6797f53518732c7666f87f5c8c0e5d1971521205cd7319c907b7cc5c0d4385",
		"21c86e9ac0aaf2fc6ce3e1d73dc7f404da574273af0e538da83797b0cfc179a4",
	},
	"h=1/bottom": {
		"428af65b3136213d67ce3829502c6131593d8526b44c195078ff1288a83b5636",
		"bfa1203763f20155876378c4064278147b58353c9346510b1a38e45fc196e615",
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
		"dba0051da6956240f8793887ae5401d3f9dc5b37f4878d112d8e5041bc85f29c",
		"0597e9b6ed380737ae0182310247df8a4ea67c05604076502557d4cfc3884313",
		"4fd421b0a836e8fd79eea96f4f81ed005b18be101fd52496bcbc95fea132dfad",
		"9bb44a1e9c74d50e63b38f82a569fb7078a31687ed519354be16d4ab28664464",
		"cda6b43c2cc54bd7fe4559cf3fcf21c0ad8e97d64424fe738b125c6ebe2ae474",
		"2250493f2b02ded54f449420381d81720dba9309eca6a8943c7d263b758cff0e",
		"0676cb3406a05cafd99b9f31738ca5d6c462ca1ac1595faa2fb4e5a1e47bfb3c",
	},
	"h=4/upper": {
		"30a3810c4956105fb91735d5d550ce0e83cbd957be90588ebd3e731afbfb461f",
		"18c114fd1208df94489794874cd9aab5b4ba1b3ae02d64bd49322377b4e0ac85",
		"c922f015a5d721decd325b003daf1e04623eced37ef29a57b551ea93e49b14d6",
		"e98fd4f635209ab298f381e06bbfefdda5f3978374e96deef54307d7ca0a5eb3",
	},
	"h=4/bottom-snapshot": {
		"30a3810c4956105fb91735d5d550ce0e83cbd957be90588ebd3e731afbfb461f",
		"18c114fd1208df94489794874cd9aab5b4ba1b3ae02d64bd49322377b4e0ac85",
		"c814e2f44d58d292559f67e39e8904cc8e146669b4e0feca82b44f89b0d8447c",
		"81cd7679e639d857832d2477ae316cd2069fdfa09921e08f407db1bcf81ed8c4",
		"fd5d1318728c465b7717f2458907851d3d5d123d95f0623aed2d9808f11da9f1",
	},
	"h=4/bottom": {
		"cf1d10174dc7d1344bcb07735851da2d60ae0b9ff1bc36d5e9642e8285390b1d",
		"377444177db05b292176a5e23bc7fca811adf7081bc5c38704a8a52fe256f345",
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
