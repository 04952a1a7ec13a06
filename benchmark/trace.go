package main

import (
	"bufio"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/vfs"
)

// All timing reads one monotonic clock.
var processStart = time.Now()

func nowNs() int64 { return int64(time.Since(processStart)) }

type spanName uint8

const (
	spPut spanName = iota
	spDelete
	spGet
	spScan
	spRangeDelete
	spMaintenance
	spBackground
	spVfsWrite
	spVfsRead
	spVfsSync
	spVfsWalSync
	spVfsMeta
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"put", "delete", "get", "scan", "range_delete", "maintenance", "background",
	"vfs.write", "vfs.read", "vfs.sync", "vfs.wal_sync", "vfs.meta",
}

func (n spanName) isVfs() bool { return n >= spVfsWrite }

type phase uint8

const (
	phaseSetup phase = iota
	phaseMeasured
	phaseReadback
)

// span is one traced interval. Its id is its position in tracer.spans;
// parent is -1 for a top-level span. loadgen is the time the generator and
// the oracle took between the previous public call's end and this one's
// start: a span of its own per call would double the trace for one number.
type span struct {
	parent     int32
	op         uint32
	name       spanName
	phase      phase
	loadgen    uint32
	start, end int64
}

// tracer records spans from outside the engine: the drivers open one around
// every public call they make and traceFS adds one per filesystem call.
//
// In the embedded workloads every call — ops, WaitIdle and so every vfs call
// — runs on the benchmark's goroutine, so cur names the open span and vfs
// spans nest under the op or maintenance span that caused them. In
// served_mixed (concurrent) vfs calls come from server and maintenance
// goroutines and are rooted under one background span.
type tracer struct {
	concurrent bool
	mu         sync.Mutex // taken only when concurrent
	spans      []span
	cur        int32
	background int32
	phase      phase
	frozen     bool // set once the spans are being read: later calls record nothing
}

func newTracer(concurrent bool, capacity int) *tracer {
	return &tracer{concurrent: concurrent, spans: make([]span, 0, capacity), cur: -1, background: -1}
}

// begin opens a span on the benchmark goroutine (embedded workloads only).
func (t *tracer) begin(name spanName, op uint32, loadgen, start int64) int32 {
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{parent: t.cur, op: op, name: name, phase: t.phase, loadgen: uint32(loadgen), start: start})
	t.cur = id
	return id
}

func (t *tracer) end(id int32, end int64) {
	t.spans[id].end = end
	t.cur = t.spans[id].parent
}

// backgroundParent asks add for the open background span.
const backgroundParent = -2

// add records a finished span under parent.
func (t *tracer) add(name spanName, parent int32, op uint32, loadgen, start, end int64) {
	if t.concurrent {
		t.mu.Lock()
		defer t.mu.Unlock()
	}
	if t.frozen {
		return
	}
	if parent == backgroundParent {
		parent = t.background
	}
	t.spans = append(t.spans, span{parent: parent, op: op, name: name, phase: t.phase, loadgen: uint32(loadgen), start: start, end: end})
}

// freeze ends recording. The engine keeps running under the probes (and, in
// served_mixed, its maintenance goroutines keep calling the filesystem)
// while the spans are read.
func (t *tracer) freeze() {
	if t.concurrent {
		t.mu.Lock()
		defer t.mu.Unlock()
	}
	t.frozen = true
}

// vfsSpan records one filesystem call under whatever caused it.
func (t *tracer) vfsSpan(name spanName, start int64) {
	end := nowNs()
	if t.concurrent {
		t.add(name, backgroundParent, 0, 0, start, end)
		return
	}
	op := uint32(0)
	if t.cur >= 0 {
		op = t.spans[t.cur].op
	}
	t.add(name, t.cur, op, 0, start, end)
}

// openBackground roots the concurrent workload's vfs spans.
func (t *tracer) openBackground(start int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.background = int32(len(t.spans))
	t.spans = append(t.spans, span{parent: -1, name: spBackground, phase: t.phase, start: start})
}

func (t *tracer) closeBackground(end int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[t.background].end = end
	t.background = -1
}

func (t *tracer) setPhase(p phase) {
	if t == nil {
		return
	}
	if t.concurrent {
		t.mu.Lock()
		defer t.mu.Unlock()
	}
	t.phase = p
}

// selfTimes returns each span's duration minus the part its children cover.
// Children never overlap one another here (one goroutine), so that part is
// the sum of their durations.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// writeTrace dumps the spans and counter snapshots as JSON lines.
func writeTrace(path string, spans []span, counters map[string]float64) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriterSize(f, 1<<20)
	for _, name := range sortedKeys(counters) {
		fmt.Fprintf(w, "{\"counter\":%q,\"value\":%g}\n", name, counters[name])
	}
	for i, s := range spans {
		fmt.Fprintf(w, "{\"id\":%d,\"parent\":%d,\"op_id\":%d,\"name\":%q,\"phase\":%d,\"start_ns\":%d,\"end_ns\":%d,\"loadgen_ns\":%d}\n",
			i, s.parent, s.op, spanNames[s.name], s.phase, s.start, s.end, s.loadgen)
	}
	return w.Flush()
}

// traceFS is the span-recording vfs.FS wrapper of the traced run.
type traceFS struct {
	vfs.FS
	t *tracer
}

func (fs traceFS) Create(name string) (vfs.File, error) {
	start := nowNs()
	f, err := fs.FS.Create(name)
	fs.t.vfsSpan(spVfsMeta, start)
	if err != nil {
		return nil, err
	}
	return &traceFile{File: f, t: fs.t, wal: strings.HasSuffix(name, ".log")}, nil
}

func (fs traceFS) Open(name string) (vfs.File, error) {
	start := nowNs()
	f, err := fs.FS.Open(name)
	fs.t.vfsSpan(spVfsMeta, start)
	if err != nil {
		return nil, err
	}
	return &traceFile{File: f, t: fs.t}, nil
}

func (fs traceFS) Remove(name string) error {
	start := nowNs()
	err := fs.FS.Remove(name)
	fs.t.vfsSpan(spVfsMeta, start)
	return err
}

func (fs traceFS) Rename(oldname, newname string) error {
	start := nowNs()
	err := fs.FS.Rename(oldname, newname)
	fs.t.vfsSpan(spVfsMeta, start)
	return err
}

type traceFile struct {
	vfs.File
	t   *tracer
	wal bool
}

func (f *traceFile) Write(p []byte) (int, error) {
	start := nowNs()
	n, err := f.File.Write(p)
	f.t.vfsSpan(spVfsWrite, start)
	return n, err
}

func (f *traceFile) WriteAt(p []byte, off int64) (int, error) {
	start := nowNs()
	n, err := f.File.WriteAt(p, off)
	f.t.vfsSpan(spVfsWrite, start)
	return n, err
}

func (f *traceFile) ReadAt(p []byte, off int64) (int, error) {
	start := nowNs()
	n, err := f.File.ReadAt(p, off)
	f.t.vfsSpan(spVfsRead, start)
	return n, err
}

func (f *traceFile) Sync() error {
	start := nowNs()
	err := f.File.Sync()
	name := spVfsSync
	if f.wal {
		name = spVfsWalSync
	}
	f.t.vfsSpan(name, start)
	return err
}
