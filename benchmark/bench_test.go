package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
)

// benchmarkJSON is the contract file at the root of the repository.
type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestNamesMatchBenchmarkJSON keeps the name list honest in both directions.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	doc := loadBenchmarkJSON(t)
	if len(doc.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(doc.Workloads), len(workloadNames))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloadNames[i])
		}
	}
	if len(doc.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(doc.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range doc.EndToEnd {
		if d := endToEndMetrics[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end[%d]: BENCHMARK.json %+v, benchmark %+v", i, m, d)
		}
	}
	if len(doc.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(doc.PerLayer), len(perLayerMetrics))
	}
	for i, m := range doc.PerLayer {
		if d := perLayerMetrics[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d]: BENCHMARK.json %+v, benchmark %+v", i, m, d)
		}
	}
}

// TestSmoke runs all four workloads at 1/200 scale, untraced and traced, and
// checks that each run is correct, emits exactly the metrics of its list with
// finite values, and that the trace is well formed: parents resolve and no
// span has negative self time.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: name, seed: 1, ops: 3000, scale: 1.0 / 200, trace: traced, setups: 1}
			if traced {
				cfg.traceOut = filepath.Join(t.TempDir(), "trace.jsonl")
			}
			r, err := runWorkload(cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d failed: %s", name, traced, r.Failed, r.Attempted, r.FirstFailure)
			}
			defs := r.defs()
			if len(r.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics emitted, %d listed", name, traced, len(r.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := r.Metrics[d.name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s traced=%v: metric %s missing or not finite (%v)", name, traced, d.name, v)
				}
				// persist_max_over_dpt may be 0 here: served_mixed's deadline
				// is 2 s of wall clock and the smoke is over sooner.
				if !traced && v <= 0 && d.name != "persist_max_over_dpt" {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.name, v)
				}
			}
			var line struct {
				Correct bool
				Metrics map[string]struct{ Unit string }
			}
			if err := json.Unmarshal([]byte(r.driverLine()), &line); err != nil || !line.Correct || len(line.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: bad result line (%v): %s", name, traced, err, r.driverLine())
			}
			if traced {
				checkTrace(t, name, cfg.traceOut)
			}
		}
	}
}

func checkTrace(t *testing.T, workload, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	type rec struct {
		Counter  *string
		ID       int    `json:"id"`
		Parent   int    `json:"parent"`
		Name     string `json:"name"`
		Phase    int    `json:"phase"`
		StartNs  int64  `json:"start_ns"`
		EndNs    int64  `json:"end_ns"`
		children int64
	}
	var spans []rec
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var r rec
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("%s: trace line %q: %v", workload, sc.Text(), err)
		}
		if r.Counter == nil {
			spans = append(spans, r)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatalf("%s: empty trace", workload)
	}
	for i := range spans {
		s := &spans[i]
		if s.ID != i || s.Parent >= i || s.Parent < -1 || s.EndNs < s.StartNs {
			t.Fatalf("%s: malformed span %+v at line %d", workload, *s, i)
		}
		if s.Parent >= 0 {
			spans[s.Parent].children += s.EndNs - s.StartNs
		}
	}
	for _, s := range spans {
		// The background span's children run on many goroutines and overlap.
		if self := s.EndNs - s.StartNs - s.children; self < 0 && s.Name != "background" {
			t.Errorf("%s: span %d (%s) has negative self time %d", workload, s.ID, s.Name, self)
		}
	}
}

func TestOracleCatchesWrongResults(t *testing.T) {
	o := newOracle(10, 32)
	scratch := make([]byte, 32)
	val := func(idx, tick uint32) []byte {
		v := make([]byte, 32)
		fillValue(v, idx, tick)
		return v
	}
	key := func(idx uint32) []byte {
		k := make([]byte, keyLen)
		putKey(k, idx, false)
		return k
	}
	o.notePut(2, 7)
	o.notePut(5, 9)
	var b scanBuf
	b.add(key(2), val(2, 7))
	b.add(key(5), val(5, 9))
	if !o.checkScan(0, 10, &b, 1, 0, scratch) {
		t.Error("a complete, exact scan was rejected")
	}
	b.reset()
	b.add(key(5), val(5, 9))
	if o.checkScan(0, 10, &b, 1, 0, scratch) {
		t.Error("a scan that skipped live key 2 was accepted")
	}
	b.reset()
	b.add(key(2), val(2, 8))
	b.add(key(5), val(5, 9))
	if o.checkScan(0, 10, &b, 1, 0, scratch) {
		t.Error("a scan returning a stale version was accepted")
	}
	o.watermark = 8
	if o.live(2) || !o.live(5) {
		t.Error("the range-delete watermark did not kill version 7 only")
	}
	if !o.checkGet(op{idx: 2}, nil, core.ErrNotFound, scratch) {
		t.Error("not-found for a range-deleted key was rejected")
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4),
// which is what the driver judges spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	if q1, q3 := quartiles([]float64{22, 1, 16, 2, 11, 4, 7}); q1 != 2 || q3 != 16 {
		t.Errorf("quartiles of 7 values = %v, %v, want 2, 16", q1, q3)
	}
	if q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v, want 2.75, 8.25", q1, q3)
	}
}

// TestTimesAreScaledToTheReferenceSpeed: what the clock read while the
// machine ran at half the reference speed counts half, sample by sample and
// stretch by stretch; exact stays what the clock read.
func TestTimesAreScaledToTheReferenceSpeed(t *testing.T) {
	l := newLatRec(8)
	for i := 0; i < 4; i++ {
		l.add(2000)
	}
	l.mark(0.5)
	for i := 0; i < 4; i++ {
		l.add(1000)
	}
	l.mark(1)
	l.mark(3) // no sample since the last mark: no new stretch
	if p50, p99 := l.summary(); p50 != 1 || p99 != 1 || len(l.marks) != 2 {
		t.Errorf("summary = %v, %v over %d stretches, want 1, 1 over 2", p50, p99, len(l.marks))
	}
	if p50, p99 := l.exact(); p50 != 1 || p99 != 2 {
		t.Errorf("exact = %v, %v, want 1, 2", p50, p99)
	}
	d := &driver{stretches: []stretch{{ops: 100, wallNs: 2e9, speed: 0.5}, {ops: 100, wallNs: 1e9, speed: 1}}}
	if r := d.rate(); r != 100 {
		t.Errorf("rate = %v ops/s, want 100", r)
	}
	if s := d.speed(); s != 0.75 {
		t.Errorf("speed = %v, want 0.75", s)
	}
}
