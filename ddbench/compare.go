package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Compare mode: two sets of results (parent and change), the bounds from
// BENCHMARK.json, and one verdict per workload and end-to-end metric.

// benchSpec is the part of BENCHMARK.json compare reads.
type benchSpec struct {
	EndToEnd []boundSpec `json:"end_to_end"`
}

type boundSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // lower or higher
	Bound  float64 `json:"bound"`
}

// Verdicts.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictWithin     = "within bound"
	verdictUnresolved = "unresolved"
)

// minRunsForGain is the fewest runs per side for a "better" verdict: with
// fewer, a side's spread cannot be told.
const minRunsForGain = 3

// row is one line of a comparison.
type row struct {
	Workload, Metric           string
	Verdict                    string
	ParentMedian, ChangeMedian float64
	Change                     float64 // relative, signed so that positive is worse
	ParentRuns, ChangeRuns     int
}

// loadResults reads one result file, or every *.json result file in a
// directory. Traced runs carry no end-to-end metrics and are skipped.
func loadResults(path string) ([]result, error) {
	var files []string
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
	} else {
		files = []string{path}
	}
	var out []result
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if r.Trace == 0 && r.Workload != "" {
			out = append(out, r)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no untraced results", path)
	}
	return out, nil
}

// quartiles are Python's statistics.quantiles(xs, n=4) (exclusive
// method); with fewer than two values every quartile is the value.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := float64(n + 1)
		pos := float64(i) * m / 4
		j := int(pos)
		frac := pos - float64(j)
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return q(1), q(2), q(3)
}

// judge compares a metric's runs on two sides. A change counts as worse
// when its median is worse than the parent's by more than the bound, as
// better when, with at least minRunsForGain runs a side, it wins at least
// 9 in 10 of all parent×change pairs and the medians differ by more than
// the parent's own quartile spread, as unresolved when it moved the
// other way by more than the bound without that proof, and as within
// bound otherwise. When either side's spread exceeds the bound the
// verdict is unresolved, unless every run of one side beats every run of
// the other.
func judge(b boundSpec, parent, change []float64) (verdict string, rel float64) {
	_, pm, _ := quartiles(parent)
	_, cm, _ := quartiles(change)
	sign := 1.0
	if b.Better == "higher" {
		sign = -1
	}
	if pm != 0 {
		rel = sign * (cm - pm) / pm
	}
	wins, losses := 0, 0
	for _, p := range parent {
		for _, c := range change {
			switch d := sign * (c - p); {
			case d < 0:
				wins++
			case d > 0:
				losses++
			}
		}
	}
	pairs := len(parent) * len(change)
	spread := func(xs []float64) float64 {
		q1, q2, q3 := quartiles(xs)
		if q2 == 0 {
			return 0
		}
		return (q3 - q1) / q2
	}
	if spread(parent) > b.Bound || spread(change) > b.Bound {
		switch {
		case wins == pairs:
			return verdictBetter, rel
		case losses == pairs:
			return verdictWorse, rel
		}
		return verdictUnresolved, rel
	}
	if rel > b.Bound {
		return verdictWorse, rel
	}
	pq1, _, pq3 := quartiles(parent)
	if len(parent) >= minRunsForGain && len(change) >= minRunsForGain &&
		10*wins >= 9*pairs && sign*(pm-cm) > pq3-pq1 {
		return verdictBetter, rel
	}
	if -rel > b.Bound { // moved by more than the bound, but not shown to be a gain
		return verdictUnresolved, rel
	}
	return verdictWithin, rel
}

// compareResults builds the comparison rows, workload by workload.
func compareResults(spec benchSpec, parent, change []result) []row {
	byWorkload := func(rs []result) map[string][]result {
		m := map[string][]result{}
		for _, r := range rs {
			m[r.Workload] = append(m[r.Workload], r)
		}
		return m
	}
	pw, cw := byWorkload(parent), byWorkload(change)
	var names []string
	for w := range pw {
		if _, ok := cw[w]; ok {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	var rows []row
	for _, w := range names {
		for _, b := range spec.EndToEnd {
			values := func(rs []result) []float64 {
				var out []float64
				for _, r := range rs {
					if m, ok := r.Metrics[b.Name]; ok {
						out = append(out, m.Value)
					}
				}
				return out
			}
			pv, cv := values(pw[w]), values(cw[w])
			if len(pv) == 0 || len(cv) == 0 {
				continue
			}
			v, rel := judge(b, pv, cv)
			if v == verdictBetter && !healthy(cw[w], pw[w]) {
				v = verdictUnresolved // a gain does not count beside more failures
			}
			_, pm, _ := quartiles(pv)
			_, cm, _ := quartiles(cv)
			rows = append(rows, row{Workload: w, Metric: b.Name, Verdict: v, ParentMedian: pm, ChangeMedian: cm, Change: rel, ParentRuns: len(pv), ChangeRuns: len(cv)})
		}
	}
	return rows
}

// healthy reports whether every change run is correct and the change
// fails no larger share of its operations than the parent.
func healthy(change, parent []result) bool {
	share := func(rs []result) float64 {
		a, f := 0, 0
		for _, r := range rs {
			a += r.Attempted
			f += r.Failed
		}
		return ratio(float64(f), float64(a))
	}
	for _, r := range change {
		if !r.Correct {
			return false
		}
	}
	return share(change) <= share(parent)
}

// counts sums attempted and failed operations of a workload's runs.
func counts(rs []result, workload string) (attempted, failed int) {
	for _, r := range rs {
		if r.Workload == workload {
			attempted += r.Attempted
			failed += r.Failed
		}
	}
	return
}

// runCompare prints the comparison of two result sets.
func runCompare(w io.Writer, benchPath, parentPath, changePath string) error {
	b, err := os.ReadFile(benchPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return fmt.Errorf("%s: %w", benchPath, err)
	}
	parent, err := loadResults(parentPath)
	if err != nil {
		return err
	}
	change, err := loadResults(changePath)
	if err != nil {
		return err
	}
	rows := compareResults(spec, parent, change)
	if len(rows) == 0 {
		return fmt.Errorf("no workload and metric in common")
	}
	fmt.Fprintf(w, "%-15s %-15s %-13s %12s %12s %8s %5s %5s %22s %22s\n",
		"workload", "metric", "verdict", "parent", "change", "worse%", "runs", "runs", "parent attempted/failed", "change attempted/failed")
	for _, r := range rows {
		pa, pf := counts(parent, r.Workload)
		ca, cf := counts(change, r.Workload)
		fmt.Fprintf(w, "%-15s %-15s %-13s %12.4f %12.4f %+8.2f %5d %5d %22s %22s\n",
			r.Workload, r.Metric, r.Verdict, r.ParentMedian, r.ChangeMedian, 100*r.Change,
			r.ParentRuns, r.ChangeRuns, fmt.Sprintf("%d/%d", pa, pf), fmt.Sprintf("%d/%d", ca, cf))
	}
	var bad []string
	for _, side := range []struct {
		name string
		rs   []result
	}{{"parent", parent}, {"change", change}} {
		for _, r := range side.rs {
			if !r.Correct {
				bad = append(bad, fmt.Sprintf("%s %s seed %d", side.name, r.Workload, r.Seed))
			}
		}
	}
	if len(bad) > 0 {
		fmt.Fprintf(w, "incorrect runs: %s\n", strings.Join(bad, ", "))
	}
	return nil
}
