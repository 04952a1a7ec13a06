package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/base"
	"repro/internal/compaction"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/storetest"
	"repro/internal/vfs"
)

func testOptions(fs vfs.FS, clk base.Clock, shards int) core.Options {
	return core.Options{
		FS:                     fs,
		Clock:                  clk,
		Shards:                 shards,
		MemTableBytes:          32 << 10,
		DeleteKeyFunc:          storetest.DeleteKey,
		DisableAutoMaintenance: true,
		Compaction: compaction.Options{
			SizeRatio:       4,
			L0Threshold:     2,
			BaseLevelBytes:  64 << 10,
			TargetFileBytes: 16 << 10,
		},
	}
}

func mustOpen(t *testing.T, dir string, opts core.Options) *Router {
	t.Helper()
	r, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestOpenRefusesOtherLayout: core.Open of a sharded store and shard.Open
// of a single-engine store each fail, naming the entry point to use, and
// leave the directory as they found it. Each used to open the other's store
// as empty and write its own layout beside it.
func TestOpenRefusesOtherLayout(t *testing.T) {
	root := t.TempDir()
	opts := testOptions(vfs.OSFS{}, &base.LogicalClock{}, 2)
	sharded, single := filepath.Join(root, "sharded"), filepath.Join(root, "single")
	r := mustOpen(t, sharded, opts)
	d, err := core.Open(single, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []storetest.Store{r, d} {
		if err := s.Put([]byte("k"), storetest.Value(1, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := errors.Join(r.Close(), d.Close()); err != nil {
		t.Fatal(err)
	}
	tree := func(dir string) string {
		var entries []string
		err := filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			info, err := e.Info()
			entries = append(entries, fmt.Sprintf("%s:%d", path, info.Size()))
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return strings.Join(entries, " ")
	}
	for _, c := range []struct {
		dir, want string
		open      func() (io.Closer, error)
	}{
		{sharded, "shard.Open", func() (io.Closer, error) { return core.Open(sharded, opts) }},
		{single, "core.Open", func() (io.Closer, error) { return Open(single, opts) }},
	} {
		before := tree(c.dir)
		s, err := c.open()
		if err == nil {
			s.Close()
			t.Fatalf("opening %s under the other layout succeeded", c.dir)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Fatalf("refusal %q does not name %s", err, c.want)
		}
		if after := tree(c.dir); after != before {
			t.Fatalf("refused open changed %s:\n%s\nto\n%s", c.dir, before, after)
		}
	}
}

// TestShardRouting checks that point routing is deterministic, stable
// across reopen, and actually spreads a realistic keyspace over every
// shard.
func TestShardRouting(t *testing.T) {
	fs := vfs.NewMemFS()
	r := mustOpen(t, "db", testOptions(fs, &base.LogicalClock{}, 4))
	defer r.Close()

	hits := make([]int, r.NumShards())
	for i := 0; i < 4096; i++ {
		k := []byte(fmt.Sprintf("key%05d", i))
		s := r.ShardFor(k)
		if again := r.ShardFor(k); again != s {
			t.Fatalf("ShardFor(%q) unstable: %d then %d", k, s, again)
		}
		hits[s]++
	}
	for s, n := range hits {
		if n == 0 {
			t.Fatalf("shard %d received no keys out of 4096", s)
		}
	}

	// A key routed to shard s must be readable through the router and
	// present only on that shard.
	key, val := []byte("routed"), storetest.Value(9, 9)
	if err := r.Put(key, val); err != nil {
		t.Fatal(err)
	}
	home := r.ShardFor(key)
	for i := 0; i < r.NumShards(); i++ {
		_, err := r.Shard(i).Get(key)
		if i == home && err != nil {
			t.Fatalf("home shard %d: %v", i, err)
		}
		if i != home && err != core.ErrNotFound {
			t.Fatalf("foreign shard %d sees the key: %v", i, err)
		}
	}
	got, err := r.Get(key)
	if err != nil || !bytes.Equal(got, val) {
		t.Fatalf("router Get = %q, %v", got, err)
	}
}

// TestShardMetaPersistence checks that the shard count written at create
// time is adopted on reopen (Shards=0) and defended against mismatch
// (resharding is not supported).
func TestShardMetaPersistence(t *testing.T) {
	fs := vfs.NewMemFS()
	opts := testOptions(fs, &base.LogicalClock{}, 3)
	r := mustOpen(t, "db", opts)
	if err := r.Put([]byte("a"), storetest.Value(1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	opts.Shards = 0 // adopt persisted count
	r = mustOpen(t, "db", opts)
	if n := r.NumShards(); n != 3 {
		t.Fatalf("reopen adopted %d shards, want 3", n)
	}
	if _, err := r.Get([]byte("a")); err != nil {
		t.Fatalf("Get after reopen: %v", err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	opts.Shards = 5
	if _, err := Open("db", opts); err == nil || !strings.Contains(err.Error(), "resharding") {
		t.Fatalf("mismatched shard count opened: err=%v", err)
	}
}

// TestShardScanMerge checks cross-shard iteration: global ascending order,
// bound handling, and SeekGE through the k-way merge.
func TestShardScanMerge(t *testing.T) {
	fs := vfs.NewMemFS()
	r := mustOpen(t, "db", testOptions(fs, &base.LogicalClock{}, 4))
	defer r.Close()

	const n = 500
	for i := 0; i < n; i++ {
		if err := r.Put([]byte(fmt.Sprintf("key%04d", i)), storetest.Value(uint64(i), i)); err != nil {
			t.Fatal(err)
		}
	}
	// Spill some of it out of the memtables so the scan crosses levels too.
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}

	it, err := r.NewIter(IterOptions{
		LowerBound: []byte("key0100"),
		UpperBound: []byte("key0400"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	want := 100
	for ok := it.First(); ok; ok = it.Next() {
		if got := string(it.Key()); got != fmt.Sprintf("key%04d", want) {
			t.Fatalf("scan order: got %q, want key%04d", got, want)
		}
		want++
	}
	if err := it.Error(); err != nil {
		t.Fatal(err)
	}
	if want != 400 {
		t.Fatalf("scan stopped at key%04d, want key0400", want)
	}

	if !it.SeekGE([]byte("key0250")) {
		t.Fatal("SeekGE(key0250) found nothing")
	}
	if got := string(it.Key()); got != "key0250" {
		t.Fatalf("SeekGE landed on %q", got)
	}
}

// TestShardBatchSplit checks that one batch spanning every shard commits
// atomically per shard and lands each op on its routed shard.
func TestShardBatchSplit(t *testing.T) {
	fs := vfs.NewMemFS()
	r := mustOpen(t, "db", testOptions(fs, &base.LogicalClock{}, 4))
	defer r.Close()

	if err := r.Put([]byte("gone"), storetest.Value(1, 1)); err != nil {
		t.Fatal(err)
	}
	b := core.NewBatch()
	for i := 0; i < 64; i++ {
		b.Put([]byte(fmt.Sprintf("batch%03d", i)), storetest.Value(uint64(i), i))
	}
	b.Delete([]byte("gone"))
	if err := r.Apply(b); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 64; i++ {
		k := fmt.Sprintf("batch%03d", i)
		v, err := r.Get([]byte(k))
		if err != nil {
			t.Fatalf("Get(%q): %v", k, err)
		}
		if !bytes.Equal(v, storetest.Value(uint64(i), i)) {
			t.Fatalf("Get(%q) wrong value", k)
		}
	}
	if _, err := r.Get([]byte("gone")); err != core.ErrNotFound {
		t.Fatalf("batched delete not applied: %v", err)
	}
}

// TestShardCheckpoint checks that a checkpoint of a sharded store
// reproduces the SHARDS meta plus every shard's state, and opens.
func TestShardCheckpoint(t *testing.T) {
	fs := vfs.NewMemFS()
	opts := testOptions(fs, &base.LogicalClock{}, 2)
	r := mustOpen(t, "db", opts)
	defer r.Close()

	for i := 0; i < 200; i++ {
		if err := r.Put([]byte(fmt.Sprintf("ck%04d", i)), storetest.Value(uint64(i), i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.CheckpointCtx(context.Background(), "ckpt"); err != nil {
		t.Fatal(err)
	}

	opts.Shards = 0
	cp := mustOpen(t, "ckpt", opts)
	defer cp.Close()
	if n := cp.NumShards(); n != 2 {
		t.Fatalf("checkpoint adopted %d shards, want 2", n)
	}
	it, err := cp.NewIter(IterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	seen := 0
	for ok := it.First(); ok; ok = it.Next() {
		seen++
	}
	if err := it.Error(); err != nil {
		t.Fatal(err)
	}
	if seen != 200 {
		t.Fatalf("checkpoint scan found %d keys, want 200", seen)
	}
}

// TestShardRegistryLabels serves a 2-shard router's one registry through
// metrics.NewServeMux over HTTP: /metrics has each engine family once, with
// the same series under shard="0" and shard="1", and /vars is one JSON object.
func TestShardRegistryLabels(t *testing.T) {
	r := mustOpen(t, "db", testOptions(vfs.NewMemFS(), &base.LogicalClock{}, 2))
	defer r.Close()
	if err := r.Put([]byte("m"), storetest.Value(1, 1)); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(metrics.NewServeMux(r.Registry()))
	defer srv.Close()
	get := func(path string) *http.Response {
		resp, err := http.Get(srv.URL + path)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %v, %v", path, resp, err)
		}
		return resp
	}

	resp := get("/metrics")
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	// Per family, the count of its series (histograms by _count) per shard.
	series := map[string][2]int{}
	shardLabel := regexp.MustCompile(`\{.*shard="([01])".*\} `)
	family := ""
	for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
		if f, ok := strings.CutPrefix(line, "# TYPE "); ok {
			family = strings.Fields(f)[0]
			if _, dup := series[family]; dup {
				t.Fatalf("family %s exposed twice", family)
			}
			series[family] = [2]int{}
			continue
		}
		name := line[:strings.IndexAny(line, "{ ")]
		if strings.HasPrefix(line, "#") || (name != family && name != family+"_count") {
			continue
		}
		m := shardLabel.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("series without a shard label: %s", line)
		}
		n := series[family]
		n[m[1][0]-'0']++
		series[family] = n
	}
	if len(series) == 0 {
		t.Fatal("/metrics exposed no families")
	}
	for f, n := range series {
		if n[0] == 0 || n[0] != n[1] {
			t.Fatalf("family %s: %d series on shard 0, %d on shard 1", f, n[0], n[1])
		}
	}

	resp = get("/vars")
	defer resp.Body.Close()
	var vars map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil || len(vars) == 0 {
		t.Fatalf("/vars: %d entries, %v", len(vars), err)
	}
}

// TestShardAggregates checks that Levels, DiskSize, and Stats sum over
// shards rather than reporting one of them.
func TestShardAggregates(t *testing.T) {
	fs := vfs.NewMemFS()
	r := mustOpen(t, "db", testOptions(fs, &base.LogicalClock{}, 4))
	defer r.Close()

	for i := 0; i < 2000; i++ {
		if err := r.Put([]byte(fmt.Sprintf("agg%05d", i)), storetest.Value(uint64(i), i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := r.WaitIdle(); err != nil {
		t.Fatal(err)
	}

	var files int
	for _, li := range r.Levels() {
		files += li.Files
	}
	var perShard int
	var disk uint64
	for i := 0; i < r.NumShards(); i++ {
		for _, li := range r.Shard(i).Levels() {
			perShard += li.Files
		}
		disk += r.Shard(i).DiskSize()
	}
	if files == 0 || files != perShard {
		t.Fatalf("aggregated Levels reports %d files, shards sum to %d", files, perShard)
	}
	if got := r.DiskSize(); got != disk {
		t.Fatalf("DiskSize %d, shards sum to %d", got, disk)
	}
	if sts := r.Stats(); len(sts) != 4 {
		t.Fatalf("Stats returned %d entries, want 4", len(sts))
	}

	if len(sortedRouterKeys(t, r)) != 2000 {
		t.Fatal("router scan lost keys after flush")
	}
}

func sortedRouterKeys(t *testing.T, r *Router) []string {
	t.Helper()
	it, err := r.NewIter(IterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var keys []string
	for ok := it.First(); ok; ok = it.Next() {
		keys = append(keys, string(it.Key()))
	}
	if err := it.Error(); err != nil {
		t.Fatal(err)
	}
	if !sort.StringsAreSorted(keys) {
		t.Fatal("router scan out of order")
	}
	return keys
}
