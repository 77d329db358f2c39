package main

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"github.com/ddgms/ddgms/internal/storage"
)

// The scalar oracle answers every benchmark query by a plain row loop
// over a copy of the transformed table, without the program's execution
// kernel, cube, MDX or DG-SQL code. Query answers from the served
// program are checked against it.

// naLabel marks a missing group key in oracle and response keys.
const naLabel = "\x00NA"

// keySep joins the labels of a group key.
const keySep = "\x1f"

// cell is one value of the copied table.
type cell struct {
	label string  // rendered value; naLabel when missing
	num   float64 // numeric value; NaN when missing or not numeric
}

// oracleTable is a column-wise copy of the columns the benchmark queries.
type oracleTable struct {
	n    int
	cols map[string][]cell
}

// oracleColumns lists every column a benchmark query reads.
func oracleColumns() []string {
	seen := map[string]bool{"PatientID": true, "FBG": true}
	for attr := range attrDim {
		seen[attr] = true
	}
	out := make([]string, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// newOracleTable copies the named columns of t value by value.
func newOracleTable(t *storage.Table, names []string) (*oracleTable, error) {
	o := &oracleTable{n: t.Len(), cols: make(map[string][]cell, len(names))}
	for _, name := range names {
		if _, ok := t.Schema().Lookup(name); !ok {
			return nil, fmt.Errorf("oracle: table has no column %q", name)
		}
		col := make([]cell, t.Len())
		for i := range col {
			v := t.MustValue(i, name)
			if v.IsNA() {
				col[i] = cell{label: naLabel, num: math.NaN()}
				continue
			}
			c := cell{label: v.String(), num: math.NaN()}
			if f, ok := v.AsFloat(); ok {
				c.num = f
			}
			col[i] = c
		}
		o.cols[name] = col
	}
	return o, nil
}

// group accumulates one output group.
type group struct {
	rows     int
	sum      float64
	nsum     int
	distinct map[string]struct{}
}

// answer is a query result as group key -> value; a NaN value is a group
// whose aggregate is missing (an average over no values).
type answer map[string]float64

// eval answers sp with a row loop.
func (o *oracleTable) eval(sp spec) (answer, error) {
	keys := append(append([]string{}, sp.Rows...), sp.Cols...)
	var keyCols [][]cell
	for _, k := range keys {
		c, ok := o.cols[k]
		if !ok {
			return nil, fmt.Errorf("oracle: unknown column %q", k)
		}
		keyCols = append(keyCols, c)
	}
	var measure []cell
	if sp.Agg != "count" {
		c, ok := o.cols[sp.Measure]
		if !ok {
			return nil, fmt.Errorf("oracle: unknown measure %q", sp.Measure)
		}
		measure = c
	}
	groups := map[string]*group{}
	labels := make([]string, len(keys))
rows:
	for i := 0; i < o.n; i++ {
		for _, f := range sp.Filters {
			if o.cols[f.Col][i].label != f.Val {
				continue rows
			}
		}
		for j, c := range keyCols {
			labels[j] = c[i].label
		}
		k := strings.Join(labels, keySep)
		g := groups[k]
		if g == nil {
			g = &group{distinct: map[string]struct{}{}}
			groups[k] = g
		}
		g.rows++
		if measure == nil {
			continue
		}
		m := measure[i]
		switch sp.Agg {
		case "avg":
			if !math.IsNaN(m.num) {
				g.sum += m.num
				g.nsum++
			}
		case "distinct":
			if m.label != naLabel {
				g.distinct[m.label] = struct{}{}
			}
		}
	}
	out := make(answer, len(groups))
	for k, g := range groups {
		switch sp.Agg {
		case "count":
			out[k] = float64(g.rows)
		case "avg":
			if g.nsum == 0 {
				out[k] = math.NaN()
			} else {
				out[k] = g.sum / float64(g.nsum)
			}
		case "distinct":
			out[k] = float64(len(g.distinct))
		default:
			return nil, fmt.Errorf("oracle: unknown aggregate %q", sp.Agg)
		}
	}
	return out, nil
}

// rowCounts answers the count(*) column DG-SQL adds to every statement.
func (o *oracleTable) rowCounts(sp spec) (answer, error) {
	c := sp
	c.Agg, c.Measure = "count", ""
	return o.eval(c)
}

// withoutNA drops groups with a missing key: the cube has no member for
// a missing value, and flatquery skips such rows.
func (a answer) withoutNA() answer {
	out := make(answer, len(a))
	for k, v := range a {
		if !strings.Contains(k, naLabel) {
			out[k] = v
		}
	}
	return out
}

// withoutMissing drops groups whose aggregate is missing or zero: the
// cube renders both as an empty (null) cell.
func (a answer) withoutMissing() answer {
	out := make(answer, len(a))
	for k, v := range a {
		if !math.IsNaN(v) && v != 0 {
			out[k] = v
		}
	}
	return out
}

// relTol is the relative tolerance on averages: the kernel sums in
// parallel blocks, so the last bits of a mean depend on the sum order.
const relTol = 1e-9

// diff describes the first few disagreements between two answers; empty
// means they agree (averages within relTol, counts exactly).
func diff(got, want answer) string {
	var msgs []string
	keys := make([]string, 0, len(want)+len(got))
	for k := range want {
		keys = append(keys, k)
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		g, gok := got[k]
		w, wok := want[k]
		show := strings.ReplaceAll(strings.ReplaceAll(k, keySep, "|"), naLabel, "NA")
		switch {
		case !gok:
			msgs = append(msgs, fmt.Sprintf("group %s missing (want %g)", show, w))
		case !wok:
			msgs = append(msgs, fmt.Sprintf("unexpected group %s = %g", show, g))
		case math.IsNaN(g) != math.IsNaN(w):
			msgs = append(msgs, fmt.Sprintf("group %s = %g, want %g", show, g, w))
		case math.IsNaN(g):
		case math.Abs(g-w) > relTol*math.Max(1, math.Abs(w)):
			msgs = append(msgs, fmt.Sprintf("group %s = %.17g, want %.17g", show, g, w))
		}
		if len(msgs) == 3 {
			msgs = append(msgs, "...")
			break
		}
	}
	return strings.Join(msgs, "; ")
}
