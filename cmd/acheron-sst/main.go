// Command acheron-sst inspects Acheron sstables, like RocksDB's sst_dump:
// properties, the KiWi tile/page layout (with per-page delete-key spans),
// range tombstones, and full entry dumps, plus a checksum scrub.
//
// Usage:
//
//	acheron-sst props  <file.sst>
//	acheron-sst layout <file.sst>
//	acheron-sst dump   <file.sst> [-limit n]
//	acheron-sst verify <file.sst>
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/sstable"
	"repro/internal/vfs"
)

func main() {
	if len(os.Args) < 3 {
		usage()
	}
	cmd, path := os.Args[1], os.Args[2]
	fs := vfs.OSFS{}
	f, err := fs.Open(path)
	if err != nil {
		fatal("open: %v", err)
	}
	r, err := sstable.Open(f)
	if err != nil {
		fatal("not an acheron sstable: %v", err)
	}
	// Read-only inspection: a close error at process exit changes nothing.
	defer vfs.BestEffortClose(r)

	switch cmd {
	case "props":
		props(r)
	case "layout":
		layout(r)
	case "dump":
		fset := flag.NewFlagSet("dump", flag.ExitOnError)
		limit := fset.Int("limit", 0, "max entries to dump (0 = all)")
		fset.Parse(os.Args[3:])
		dump(r, *limit)
	case "verify":
		verify(r)
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: acheron-sst {props|layout|dump|verify} <file.sst> [flags]")
	os.Exit(2)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}

func props(r *sstable.Reader) {
	p := r.Props()
	fmt.Printf("entries:            %d\n", p.NumEntries)
	fmt.Printf("point tombstones:   %d\n", p.NumDeletes)
	fmt.Printf("range tombstones:   %d\n", p.NumRangeDeletes)
	fmt.Printf("raw key bytes:      %d\n", p.RawKeyBytes)
	fmt.Printf("raw value bytes:    %d\n", p.RawValueBytes)
	fmt.Printf("tiles / pages:      %d / %d\n", p.NumTiles, p.NumPages)
	fmt.Printf("seqnum span:        [%d, %d]\n", p.MinSeqNum, p.MaxSeqNum)
	fmt.Printf("multi-version keys: %v\n", p.HasDuplicates)
	if p.NumDeletes+p.NumRangeDeletes > 0 {
		fmt.Printf("oldest tombstone:   %d\n", p.OldestTombstone)
	}
	if p.NumEntries > p.NumDeletes {
		fmt.Printf("delete-key span:    [%d, %d]\n", p.DeleteKeyMin, p.DeleteKeyMax)
	}
}

func layout(r *sstable.Reader) {
	fmt.Printf("%d tiles, %d pages\n", r.NumTiles(), r.NumPages())
	fmt.Println("page  dk_min               dk_max               max_seq     tombstones")
	for i := 0; i < r.NumPages(); i++ {
		p := r.Page(i)
		dkMin, dkMax := fmt.Sprintf("%d", p.DKMin), fmt.Sprintf("%d", p.DKMax)
		if p.DKMin > p.DKMax {
			dkMin, dkMax = "-", "-"
		}
		fmt.Printf("%-5d %-20s %-20s %-11d %v\n", i, dkMin, dkMax, p.MaxSeq, p.HasTombstones)
	}
	if rts := r.RangeTombstones(); len(rts) > 0 {
		fmt.Println("\nrange tombstones:")
		for _, rt := range rts {
			fmt.Printf("  dk [%d, %d) seq %d created %d\n", rt.Lo, rt.Hi, rt.Seq, rt.CreatedAt)
		}
	}
}

func dump(r *sstable.Reader, limit int) {
	it := r.NewIter()
	defer it.Close()
	n := 0
	for ok := it.First(); ok; ok = it.Next() {
		k := it.Key()
		fmt.Printf("%q#%d,%s = %d bytes\n", k.UserKey, k.SeqNum(), k.Kind(), len(it.Value()))
		n++
		if limit > 0 && n >= limit {
			fmt.Printf("... (stopped at limit)\n")
			break
		}
	}
	if err := it.Error(); err != nil {
		fatal("iteration failed: %v", err)
	}
	fmt.Printf("%d entries\n", n)
}

func verify(r *sstable.Reader) {
	// A full iteration reads and checksums every data block.
	it := r.NewIter()
	defer it.Close()
	n := 0
	for ok := it.First(); ok; ok = it.Next() {
		n++
	}
	if err := it.Error(); err != nil {
		fatal("CORRUPT: %v", err)
	}
	p := r.Props()
	if uint64(n) != p.NumEntries {
		fatal("CORRUPT: iterated %d entries, properties claim %d", n, p.NumEntries)
	}
	fmt.Printf("ok: %d entries, %d pages, all checksums valid\n", n, r.NumPages())
}
