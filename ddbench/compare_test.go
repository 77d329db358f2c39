package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	for _, c := range []struct{ got, want float64 }{{q1, 2.75}, {q2, 5.5}, {q3, 8.25}} {
		if math.Abs(c.got-c.want) > 1e-12 {
			t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
			break
		}
	}
	// statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
	if q1, q2, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles of 1..3 = %v %v %v, want 1 2 3", q1, q2, q3)
	}
}

func TestJudge(t *testing.T) {
	lower := boundSpec{Name: "p50", Better: "lower", Bound: 0.10}
	higher := boundSpec{Name: "rps", Better: "higher", Bound: 0.10}
	parent := []float64{100, 101, 99, 100, 102, 98, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, tc := range []struct {
		name           string
		b              boundSpec
		parent, change []float64
		want           string
	}{
		{"same code", lower, parent, scale(parent, 1.01), verdictWithin},
		{"slower beyond bound", lower, parent, scale(parent, 1.3), verdictWorse},
		{"slower within bound", lower, parent, scale(parent, 1.06), verdictWithin},
		{"faster beyond spread", lower, parent, scale(parent, 0.8), verdictBetter},
		{"higher is better", higher, parent, scale(parent, 0.8), verdictWorse},
		{"higher and faster", higher, parent, scale(parent, 1.2), verdictBetter},
		{"spread wider than bound", lower, []float64{60, 140, 100, 80, 120}, []float64{70, 150, 110, 90, 125}, verdictUnresolved},
		{"wide but separated", lower, []float64{60, 140, 100, 80, 120}, []float64{200, 280, 300, 260, 240}, verdictWorse},
		{"one run each, worse", lower, []float64{100}, []float64{120}, verdictWorse},
		{"one run each, faster: too few runs for a gain", lower, []float64{100}, []float64{80}, verdictUnresolved},
	} {
		if got, _ := judge(tc.b, tc.parent, tc.change); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareRowsPerWorkloadAndMetric(t *testing.T) {
	spec := benchSpec{EndToEnd: []boundSpec{
		{Name: "mdx_p50_ms", Unit: "ms", Better: "lower", Bound: 0.1},
		{Name: "throughput_rps", Unit: "1/s", Better: "higher", Bound: 0.1},
	}}
	mk := func(w string, p50, rps float64, failed int) result {
		return result{Workload: w, Correct: true, Attempted: 100, Failed: failed, Metrics: map[string]metric{
			"mdx_p50_ms": {Value: p50, Unit: "ms"}, "throughput_rps": {Value: rps, Unit: "1/s"}}}
	}
	var parent, change []result
	for i := 0; i < 5; i++ {
		f := 1 + float64(i)/100
		parent = append(parent, mk("a", 1*f, 1000*f, 0), mk("b", 2*f, 500*f, 0), mk("c", 2*f, 500*f, 1), mk("d", 2*f, 500*f, 0))
		// c gains as b does but fails more; d gains with an incorrect run.
		incorrect := mk("d", 2*f, 700*f, 0)
		incorrect.Correct = i != 2
		change = append(change, mk("a", 1.5*f, 1000*f, 0), mk("b", 2*f, 700*f, 0), mk("c", 2*f, 700*f, 2), incorrect)
	}
	rows := compareResults(spec, parent, change)
	want := map[string]string{
		"a/mdx_p50_ms": verdictWorse, "a/throughput_rps": verdictWithin,
		"b/mdx_p50_ms": verdictWithin, "b/throughput_rps": verdictBetter,
		"c/mdx_p50_ms": verdictWithin, "c/throughput_rps": verdictUnresolved,
		"d/mdx_p50_ms": verdictWithin, "d/throughput_rps": verdictUnresolved,
	}
	if len(rows) != len(want) {
		t.Fatalf("%d rows, want %d", len(rows), len(want))
	}
	for _, r := range rows {
		if w := want[r.Workload+"/"+r.Metric]; r.Verdict != w {
			t.Errorf("%s %s: %s, want %s", r.Workload, r.Metric, r.Verdict, w)
		}
	}
	if a, f := counts(change, "c"); a != 500 || f != 10 {
		t.Errorf("counts(c) = %d/%d, want 500/10", a, f)
	}

	// Directories of result files, one run a file, as runs write them.
	dir := t.TempDir()
	write := func(side string, rs []result) string {
		d := filepath.Join(dir, side)
		if err := os.Mkdir(d, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, r := range rs {
			r.Schema, r.Seed = resultSchema, int64(i)
			if err := writeJSONFile(filepath.Join(d, fmt.Sprintf("%s-seed%d-trace0.json", r.Workload, i)), r); err != nil {
				t.Fatal(err)
			}
		}
		return d
	}
	bench := filepath.Join(dir, "BENCHMARK.json")
	os.WriteFile(bench, []byte(`{"end_to_end":[{"name":"mdx_p50_ms","unit":"ms","better":"lower","bound":0.1}]}`), 0o644)
	var out bytes.Buffer
	if err := runCompare(&out, bench, write("parent", parent), write("change", change)); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, s := range []string{"a               mdx_p50_ms      worse", "500/5", "500/10", "incorrect runs: change d"} {
		if !strings.Contains(text, s) {
			t.Errorf("compare output lacks %q:\n%s", s, text)
		}
	}
}
