package acheron_test

import (
	"fmt"
	"log"

	acheron "repro"
	"repro/internal/workload"
)

// Example shows basic usage: open an in-memory store, write, read, delete.
func Example() {
	db, err := acheron.Open("example-db", acheron.Options{FS: acheron.NewMemFS()})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	db.Put([]byte("greeting"), []byte("hello"))
	v, _ := db.Get([]byte("greeting"))
	fmt.Printf("%s\n", v)

	db.Delete([]byte("greeting"))
	if _, err := db.Get([]byte("greeting")); err == acheron.ErrNotFound {
		fmt.Println("deleted")
	}
	// Output:
	// hello
	// deleted
}

// ExampleOptions_dpt configures a delete persistence threshold: FADE
// guarantees physical erasure of every delete within the bound.
func ExampleOptions_dpt() {
	clk := &acheron.LogicalClock{}
	db, err := acheron.Open("dpt-db", acheron.Options{
		FS:                     acheron.NewMemFS(),
		Clock:                  clk,
		DisableAutoMaintenance: true,
		Compaction: acheron.CompactionOptions{
			Picker: acheron.PickFADE,
			DPT:    1000, // logical ticks
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	db.Put([]byte("user"), []byte("data"))
	db.Delete([]byte("user"))
	db.Flush()

	// Let the threshold elapse and maintenance run.
	clk.Advance(1200)
	db.WaitIdle()

	st := db.Stats()
	fmt.Printf("persisted=%d within_dpt=%v\n",
		st.TombstonesPersisted.Get(), st.PersistenceLatency.Max() <= 1200)
	// Output:
	// persisted=1 within_dpt=true
}

// ExampleDB_DeleteSecondaryRange demonstrates KiWi secondary range deletes:
// one call removes every record in a delete-key (e.g. timestamp) range.
func ExampleDB_DeleteSecondaryRange() {
	db, err := acheron.Open("kiwi-db", acheron.Options{
		FS:            acheron.NewMemFS(),
		DeleteKeyFunc: workload.ExtractDeleteKey,
		PagesPerTile:  4,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	// Each value embeds its timestamp as the secondary delete key.
	for ts := uint64(0); ts < 100; ts++ {
		key := fmt.Sprintf("event:%03d", ts)
		db.Put([]byte(key), workload.ValueFor(ts, 32))
	}
	// Drop everything with timestamp < 50.
	db.DeleteSecondaryRange(0, 50)

	it, _ := db.NewIter(acheron.IterOptions{})
	defer it.Close()
	live := 0
	for ok := it.First(); ok; ok = it.Next() {
		live++
	}
	fmt.Printf("live=%d\n", live)
	// Output:
	// live=50
}

// ExampleShardedOpen partitions a store across two engines behind one
// router. Point ops route to one shard; a secondary range delete lands on
// every shard. A reopen with Shards: 0 adopts the persisted shard count.
func ExampleShardedOpen() {
	opts := acheron.Options{
		FS:            acheron.NewMemFS(),
		Shards:        2,
		DeleteKeyFunc: workload.ExtractDeleteKey,
	}
	db, err := acheron.ShardedOpen("sharded-db", opts)
	if err != nil {
		log.Fatal(err)
	}
	for ts := uint64(0); ts < 100; ts++ {
		db.Put([]byte(fmt.Sprintf("event:%03d", ts)), workload.ValueFor(ts, 32))
	}
	db.Delete([]byte("event:099"))
	_, err = db.Get([]byte("event:099"))
	fmt.Printf("deleted=%v\n", err == acheron.ErrNotFound)

	// Drop everything with timestamp < 50, whichever shard holds it.
	db.DeleteSecondaryRange(0, 50)
	_, err = db.Get([]byte("event:010"))
	v, _ := db.Get([]byte("event:060"))
	fmt.Printf("event:010 deleted=%v event:060 ts=%d\n", err == acheron.ErrNotFound, workload.ExtractDeleteKey(v))
	db.Close()

	opts.Shards = 0
	db, err = acheron.ShardedOpen("sharded-db", opts)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	fmt.Printf("shards=%d\n", db.NumShards())
	// Output:
	// deleted=true
	// event:010 deleted=true event:060 ts=60
	// shards=2
}

// ExampleBatch commits several writes atomically.
func ExampleBatch() {
	db, err := acheron.Open("batch-db", acheron.Options{FS: acheron.NewMemFS()})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	b := acheron.NewBatch()
	b.Put([]byte("a"), []byte("1"))
	b.Put([]byte("b"), []byte("2"))
	b.Delete([]byte("a"))
	if err := db.Apply(b); err != nil {
		log.Fatal(err)
	}
	_, errA := db.Get([]byte("a"))
	vb, _ := db.Get([]byte("b"))
	fmt.Printf("a deleted=%v b=%s\n", errA == acheron.ErrNotFound, vb)
	// Output:
	// a deleted=true b=2
}

// ExampleDB_NewSnapshot pins a consistent view across later writes.
func ExampleDB_NewSnapshot() {
	db, err := acheron.Open("snap-db", acheron.Options{FS: acheron.NewMemFS()})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	db.Put([]byte("k"), []byte("v1"))
	snap := db.NewSnapshot()
	defer snap.Release()
	db.Put([]byte("k"), []byte("v2"))

	old, _ := db.GetAt([]byte("k"), snap)
	cur, _ := db.Get([]byte("k"))
	fmt.Printf("snapshot=%s latest=%s\n", old, cur)
	// Output:
	// snapshot=v1 latest=v2
}
