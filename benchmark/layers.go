package main

import (
	"os"
	"slices"
	"strconv"
	"strings"

	"repro/internal/core"
)

// runTotals are the drivers' own counts over the measured phase (with the
// read-back slices of a write-only workload).
type runTotals struct {
	gets, scans, commits     float64
	scanEntries, scanStepped float64
	conns                    float64
}

func totalsOf(drivers []*driver) runTotals {
	t := runTotals{conns: float64(len(drivers))}
	for _, d := range drivers {
		t.gets += float64(d.ops[opGet])
		t.scans += float64(d.ops[opScan])
		t.commits += float64(d.ops[opPut] + d.ops[opDelete] + d.ops[opRangeDelete])
		t.scanEntries += float64(d.scanEntries)
		t.scanStepped += float64(d.scanStepped)
	}
	return t
}

// counterLayers fills the [C] metrics: counter deltas over the measured
// phase, read through DB.Stats(), DB.BlockCacheStats(), DB.Levels() and
// MemFS.BytesWritten()/Syncs(), against the drivers' own op counts. On
// ingest_delete the deltas span the read-back slices as well: those only read,
// with maintenance off and the clock held, so the write-side counters stand
// still there, and the read-side ones are divided by the drivers' get and
// scan counts, which include the slices. The allocator's and collector's
// counts (m.mem) are the rounds' alone.
func counterLayers(L map[string]float64, m measurement, t runTotals, dbs []*core.DB, dptNs float64) {
	d := m.after.sub(m.before)
	userBytes, kops := float64(m.userBytes), float64(m.ops)/1e3

	L["vfs.bytes_written_per_user_byte"] = ratio(d[cFSBytesWritten], userBytes)
	L["vfs.syncs_per_kop"] = ratio(d[cFSSyncs], kops)
	L["wal.bytes_per_user_byte"] = ratio(d[cWALBytes], userBytes)
	L["wal.appends_per_sync"] = ratio(d[cWALAppends], d[cWALSyncs])

	L["bloom.skips_per_get"] = ratio(d[cBloomSkips], t.gets)
	L["bloom.false_positive_rate"] = ratio(d[cBloomFalsePositives], d[cBloomFalsePositives]+d[cBloomSkips])
	L["cache.hit_ratio"] = ratio(d[cCacheHits], d[cCacheHits]+d[cCacheMisses])
	L["cache.misses_per_get"] = ratio(d[cCacheMisses], t.gets)
	L["sstable.tables_probed_per_get"] = ratio(d[cTablesProbed], t.gets)
	L["sstable.tables_opened_per_scan"] = ratio(d[cIterTablesOpened], t.scans)
	L["iterator.steps_per_entry"] = ratio(t.scanStepped, t.scanEntries)
	L["readview.builds_per_kscan"] = ratio(d[cViewBuilds], t.scans/1e3)
	L["readview.hit_ratio"] = ratio(d[cViewHits], d[cViewHits]+d[cViewBuilds])

	L["manifest.files_created_per_kop"] = ratio(d[cFilesCreated], kops)
	var liveTombstones float64
	for _, db := range dbs {
		for l, info := range db.Levels() {
			L["manifest.live_files_end"] += float64(info.Files)
			if info.Files > 0 && float64(l) > L["manifest.max_level_end"] {
				L["manifest.max_level_end"] = float64(l)
			}
		}
		liveTombstones += float64(db.Stats().LiveTombstones.Get())
	}

	L["compaction.jobs_l0"] = d[cJobsL0]
	L["compaction.jobs_saturation"] = d[cJobsSaturation]
	L["compaction.jobs_ttl"] = d[cJobsTTL]
	L["compaction.trivial_moves"] = d[cTrivialMoves]
	L["compaction.flush_bytes_per_user_byte"] = ratio(d[cFlushed], userBytes)
	L["compaction.bytes_read_per_user_byte"] = ratio(d[cCompactRead], userBytes)
	L["compaction.bytes_written_per_user_byte"] = ratio(d[cCompactWritten], userBytes)
	L["compaction.ttl_write_share"] = ratio(d[cCompactWrittenTTL], d[cCompactWritten])

	L["core.write_stalls_per_kop"] = ratio(d[cWriteStalls], kops)
	L["core.write_stall_share"] = ratio(d[cWriteStallNs], float64(m.wallNs)*t.conns)
	L["core.tombstones_persisted"] = d[cTombstonesPersisted]
	L["core.live_tombstones_end"] = liveTombstones
	L["core.pages_dropped"] = d[cPagesDropped]
	L["core.persist_mean_over_dpt"] = ratio(ratio(d[cPersistSum], d[cPersistCount]), dptNs)

	L["process.gc_cycles"] = float64(m.mem.gcCycles)
	L["process.gc_pause_total_ms"] = float64(m.mem.gcPauseNs) / 1e6
	L["process.peak_rss_mb"] = peakRSSMB()
}

// spanLayers fills the [S] metrics from the traced run's spans.
func spanLayers(L map[string]float64, tr *tracer, m measurement, t runTotals) {
	spans, self := tr.spans, selfTimes(tr.spans)
	var writeCalls, readCalls, walSyncCalls, vfsBusy, maintNs, loadgenNs, topLevelNs float64
	var selfSum, selfN [numSpanNames]float64
	var walSyncs []uint32
	for i, s := range spans {
		dur := float64(s.end - s.start)
		selfSum[s.name] += float64(self[i])
		selfN[s.name]++
		if s.name == spVfsWalSync {
			walSyncs = append(walSyncs, uint32(min(s.end-s.start, 1<<32-1)))
		}
		if s.name == spVfsRead && s.phase != phaseSetup && (tr.concurrent || s.parent >= 0 && spans[s.parent].name == spGet) {
			// Embedded: the reads a Get caused. served_mixed cannot
			// attribute them, so there it is every read.
			readCalls++
		}
		if s.phase != phaseMeasured {
			continue
		}
		switch {
		case s.name == spVfsWrite:
			writeCalls++
		case s.name == spVfsWalSync:
			walSyncCalls++
		case s.name == spMaintenance:
			maintNs += dur
		}
		loadgenNs += float64(s.loadgen)
		if s.name.isVfs() {
			vfsBusy += dur
		}
		if s.parent < 0 && s.name != spBackground {
			topLevelNs += dur + float64(s.loadgen)
		}
	}
	wall := float64(m.wallNs)
	L["vfs.write_calls_per_kop"] = ratio(writeCalls, float64(m.ops)/1e3)
	L["vfs.read_calls_per_get"] = ratio(readCalls, t.gets)
	L["vfs.busy_share"] = ratio(vfsBusy, wall)
	slices.Sort(walSyncs)
	if len(walSyncs) > 0 {
		L["wal.sync_p50_us"] = float64(percentile(walSyncs, 0.5)) / 1e3
	}
	L["core.put_self_us"] = ratio(selfSum[spPut]+selfSum[spDelete], selfN[spPut]+selfN[spDelete]) / 1e3
	L["core.get_self_us"] = ratio(selfSum[spGet], selfN[spGet]) / 1e3
	L["core.scan_self_us"] = ratio(selfSum[spScan], selfN[spScan]) / 1e3
	L["core.maintenance_share"] = ratio(maintNs, wall)
	// Commits the benchmark issued per WAL file sync it saw: group commit's
	// amortization, counted from both ends of the engine.
	L["core.commits_per_sync"] = ratio(t.commits, walSyncCalls)
	L["loadgen.self_us_per_op"] = ratio(loadgenNs, float64(m.ops)) / 1e3
	L["trace.top_level_coverage"] = ratio(topLevelNs, wall*t.conns)
}

// peakRSSMB reads the process's high-water resident set from the kernel.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}
