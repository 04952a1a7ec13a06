package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (exclusive method).
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		i := int(pos)
		switch {
		case i < 1:
			return s[0]
		case i >= len(s):
			return s[len(s)-1]
		}
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	return at(0.25), at(0.75)
}

func loadRuns(path string) (map[string]map[string][]float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var runs map[string]map[string][]float64
	if err := json.Unmarshal(b, &runs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return runs, nil
}

// compareFiles prints, per workload and end-to-end metric, both sets'
// medians, the ratio b/a with its base, the bound, both sets' quartile
// spreads, and a verdict: worse when b's median is worse than a's by more
// than the bound, unresolved when either set's quartile spread is wider than
// the bound, else ok. The spreads say how small a change the two sets could
// have shown: with a time's bound at 0.25, ok is not "unchanged".
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := loadRuns(pathA)
	if err != nil {
		return err
	}
	b, err := loadRuns(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-15s %-22s %12s %12s %8s %6s %8s %8s  %s\n", "workload", "metric", "a median", "b median", "b/a", "bound", "a spread", "b spread", "verdict")
	for _, wl := range workloadNames {
		for _, def := range endToEndMetrics {
			va, vb := a[wl][def.name], b[wl][def.name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / ma
			if def.better == "higher" {
				worse = (ma - mb) / ma
			}
			sa, sb := spreadOf(va), spreadOf(vb)
			verdict := "ok"
			switch {
			case sa > def.bound || sb > def.bound:
				verdict = "unresolved"
			case worse > def.bound:
				verdict = "worse"
			}
			fmt.Fprintf(w, "%-15s %-22s %12.6g %12.6g %8.4f %6.2f %8.3f %8.3f  %s (base a = %.6g %s, n = %d, %d)\n",
				wl, def.name, ma, mb, ratio(mb, ma), def.bound, sa, sb, verdict, ma, def.unit, len(va), len(vb))
		}
	}
	return nil
}

// spreadOf is the distance between the quartiles as a share of the median.
func spreadOf(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, q3 := quartiles(v)
	return ratio(q3-q1, median(v))
}
