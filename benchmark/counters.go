package main

import (
	"repro/internal/core"
	"repro/internal/vfs"
)

// Counter snapshots are read through the engine's public accessors before
// and after the measured phase; the [C] per-layer metrics are their deltas.
type counter int

const (
	cFlushed counter = iota
	cCompactRead
	cCompactWritten
	cCompactWrittenTTL
	cJobsL0
	cJobsSaturation
	cJobsTTL
	cTrivialMoves
	cTombstonesPersisted
	cPersistSum
	cPersistCount
	cPagesDropped
	cWriteStalls
	cWriteStallNs
	cGets
	cBloomSkips
	cBloomFalsePositives
	cTablesProbed
	cWALBytes
	cWALAppends
	cWALSyncs
	cItersOpened
	cViewBuilds
	cViewHits
	cIterTablesOpened
	cFilesCreated
	cCacheHits
	cCacheMisses
	cFSBytesWritten
	cFSSyncs
	numCounters
)

var counterNames = [numCounters]string{
	"bytes_flushed", "compact_bytes_read", "compact_bytes_written", "compact_bytes_written_ttl",
	"jobs_l0", "jobs_saturation", "jobs_ttl", "trivial_moves",
	"tombstones_persisted", "persist_latency_sum", "persist_latency_count", "pages_dropped",
	"write_stalls", "write_stall_ns", "gets", "bloom_skips", "bloom_false_positives", "tables_probed",
	"wal_bytes", "wal_appends", "wal_syncs", "iters_opened", "view_builds", "view_hits",
	"iter_tables_opened", "files_created", "cache_hits", "cache_misses", "fs_bytes_written", "fs_syncs",
}

type snapshot [numCounters]float64

// takeSnapshot sums the counters over the store's engines (one, or one per
// shard).
func takeSnapshot(dbs []*core.DB, fs *vfs.MemFS) snapshot {
	var s snapshot
	for _, db := range dbs {
		st := db.Stats()
		s[cFlushed] += float64(st.BytesFlushed.Get())
		s[cCompactRead] += float64(st.CompactBytesRead.Get())
		s[cCompactWritten] += float64(st.CompactBytesWritten.Get())
		s[cCompactWrittenTTL] += float64(st.CompactBytesWrittenByTrigger[2].Get())
		s[cJobsL0] += float64(st.CompactionsByTrigger[0].Get())
		s[cJobsSaturation] += float64(st.CompactionsByTrigger[1].Get())
		s[cJobsTTL] += float64(st.CompactionsByTrigger[2].Get())
		s[cTrivialMoves] += float64(st.TrivialMoves.Get())
		s[cTombstonesPersisted] += float64(st.TombstonesPersisted.Get())
		s[cPersistSum] += float64(st.PersistenceLatency.Sum())
		s[cPersistCount] += float64(st.PersistenceLatency.Count())
		s[cPagesDropped] += float64(st.PagesDropped.Get())
		s[cWriteStalls] += float64(st.WriteStalls.Get())
		s[cWriteStallNs] += float64(st.WriteStallNanos.Get())
		s[cGets] += float64(st.Gets.Get())
		s[cBloomSkips] += float64(st.BloomSkips.Get())
		s[cBloomFalsePositives] += float64(st.BloomFalsePositives.Get())
		s[cTablesProbed] += float64(st.TablesProbed.Get())
		s[cWALBytes] += float64(st.WALBytes.Get())
		s[cWALAppends] += float64(st.WALAppends.Get())
		s[cWALSyncs] += float64(st.WALSyncs.Get())
		s[cItersOpened] += float64(st.ItersOpened.Get())
		s[cViewBuilds] += float64(st.IterViewBuilds.Get())
		s[cViewHits] += float64(st.IterViewHits.Get())
		s[cIterTablesOpened] += float64(st.IterTablesOpened.Get())
		s[cFilesCreated] += float64(st.FilesCreated.Get())
		hits, misses := db.BlockCacheStats()
		s[cCacheHits] += float64(hits)
		s[cCacheMisses] += float64(misses)
	}
	s[cFSBytesWritten] = float64(fs.BytesWritten())
	s[cFSSyncs] = float64(fs.Syncs())
	return s
}

func (s snapshot) sub(b snapshot) snapshot {
	for i := range s {
		s[i] -= b[i]
	}
	return s
}

// persistMax is the largest delete-to-erasure latency any engine recorded:
// Histogram.Max is exact, not a bucket edge.
func persistMax(dbs []*core.DB) float64 {
	var m int64
	for _, db := range dbs {
		if v := db.Stats().PersistenceLatency.Max(); v > m {
			m = v
		}
	}
	return float64(m)
}
