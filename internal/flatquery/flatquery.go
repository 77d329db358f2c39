// Package flatquery implements the no-warehouse baseline: multivariate
// aggregation queries answered by direct filtered scans over the flat
// (un-dimensionalised) clinical table. It is the comparator for the
// paper's central claim that a data-warehouse intermediary makes
// multivariate exploration practical — benchmark B1 runs the same queries
// through this package and through the cube engine.
package flatquery

import (
	"context"
	"fmt"

	"github.com/ddgms/ddgms/internal/exec"
	"github.com/ddgms/ddgms/internal/obs"
	"github.com/ddgms/ddgms/internal/storage"
	"github.com/ddgms/ddgms/internal/value"
)

// Filter keeps rows whose column value is one of Values.
type Filter struct {
	Column string
	Values []value.Value
}

// Query is a flat aggregation: group-by columns split between two axes (to
// mirror the cube API), filters, and one aggregate.
type Query struct {
	Rows    []string
	Cols    []string
	Filters []Filter
	Agg     storage.AggKind
	Measure string // measure column; empty means count rows
}

// Result is the flat analogue of a cell set: one grouped table with
// row-axis columns, column-axis columns and an "agg" column.
type Result struct {
	Grouped *storage.Table
	AggName string
}

// ExecuteCtx answers the query with a single filtered scan on the shared
// execution kernel: no warehouse, no bitmap indexes, no aggregate caching.
// Filters are evaluated as allowed-code sets over each column's cached
// dictionary (one set lookup per row instead of per-row value equality),
// and no intermediate filtered table is materialised. Rows with NA in any
// grouping column are dropped, matching the cube engine's default.
//
// The kernel scan checks ctx cooperatively and charges any
// govern.Budget it carries, so a cancelled or over-budget baseline scan
// stops mid-flight. A span the context carries (obs.ContextWithSpan)
// receives flatquery.compile for filter compilation, then the kernel's
// phases under flatquery.group. Kernel opts (e.g.
// exec.WithVectorized(false)) select the kernel path; ctx supersedes any
// exec.WithContext among them.
func ExecuteCtx(ctx context.Context, t *storage.Table, q Query, opts ...exec.Option) (*Result, error) {
	sp := obs.SpanFromContext(ctx)
	type codeFilter struct {
		codes   []uint32
		allowed []bool // indexed by dictionary code
	}
	compile := sp.Start("flatquery.compile")
	filters := make([]codeFilter, len(q.Filters))
	for k, f := range q.Filters {
		if len(f.Values) == 0 {
			return nil, fmt.Errorf("flatquery: filter on %q has no values", f.Column)
		}
		dict, err := t.Dict(f.Column)
		if err != nil {
			return nil, fmt.Errorf("flatquery: unknown filter column %q", f.Column)
		}
		allowed := make([]bool, dict.Card())
		for code, v := range dict.Values() {
			for _, want := range f.Values {
				if v.Equal(want) {
					allowed[code] = true
					break
				}
			}
		}
		filters[k] = codeFilter{codes: exec.MaterializeCodes(dict), allowed: allowed}
	}
	groupCols := append(append([]string{}, q.Rows...), q.Cols...)
	groupCodes := make([][]uint32, len(groupCols))
	for k, c := range groupCols {
		dict, err := t.Dict(c)
		if err != nil {
			return nil, fmt.Errorf("flatquery: unknown group column %q", c)
		}
		groupCodes[k] = exec.MaterializeCodes(dict)
	}
	compile.Annotate("filters", len(filters))
	compile.End()

	pred := func(_ *storage.Table, i int) bool {
		for _, f := range filters {
			if !f.allowed[f.codes[i]] {
				return false
			}
		}
		for _, codes := range groupCodes {
			if codes[i] == exec.NACode {
				return false
			}
		}
		return true
	}

	aggName := "agg"
	groupSp := sp.Start("flatquery.group")
	opts = append(opts[:len(opts):len(opts)], exec.WithContext(obs.ContextWithSpan(ctx, groupSp)))
	grouped, err := t.GroupByFiltered(groupCols, []storage.AggSpec{
		{Kind: q.Agg, Column: q.Measure, As: aggName},
	}, pred, opts...)
	groupSp.End()
	if err != nil {
		return nil, fmt.Errorf("flatquery: %w", err)
	}
	return &Result{Grouped: grouped, AggName: aggName}, nil
}

// Cell returns the aggregate for one coordinate (rowVals then colVals must
// match the query's Rows/Cols order). The boolean reports whether the
// coordinate exists.
func (r *Result) Cell(coord []value.Value) (value.Value, bool) {
	n := r.Grouped.Schema().Len() - 1 // group columns precede the agg column
	if len(coord) != n {
		return value.NA(), false
	}
	for i := 0; i < r.Grouped.Len(); i++ {
		match := true
		for j := 0; j < n; j++ {
			if !r.Grouped.ColumnAt(j).Value(i).Equal(coord[j]) {
				match = false
				break
			}
		}
		if match {
			return r.Grouped.MustValue(i, r.AggName), true
		}
	}
	return value.NA(), false
}

// Total sums the aggregate column.
func (r *Result) Total() float64 {
	var t float64
	col := r.Grouped.MustColumn(r.AggName)
	for i := 0; i < col.Len(); i++ {
		if f, ok := col.Value(i).AsFloat(); ok {
			t += f
		}
	}
	return t
}
