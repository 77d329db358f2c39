package storage

import (
	"fmt"
	"math"
	"sort"

	"github.com/ddgms/ddgms/internal/exec"
	"github.com/ddgms/ddgms/internal/value"
)

// RowPredicate decides whether row i of a table participates in an
// operation.
type RowPredicate func(t *Table, i int) bool

// Filter returns a new table containing the rows for which pred is true,
// in the original order.
func (t *Table) Filter(pred RowPredicate) *Table {
	out := MustTable(t.schema)
	for i := 0; i < t.n; i++ {
		if pred(t, i) {
			if err := out.AppendRow(t.Row(i)); err != nil {
				panic(err)
			}
		}
	}
	return out
}

// Where is a convenience filter keeping rows whose named column equals v.
func (t *Table) Where(name string, v value.Value) (*Table, error) {
	j, ok := t.schema.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("storage: unknown column %q", name)
	}
	return t.Filter(func(tb *Table, i int) bool {
		return tb.cols[j].Value(i).Equal(v)
	}), nil
}

// Project returns a new table containing only the named columns, in the
// given order.
func (t *Table) Project(names ...string) (*Table, error) {
	schema, err := t.schema.Select(names...)
	if err != nil {
		return nil, err
	}
	idx := make([]int, len(names))
	for k, n := range names {
		idx[k], _ = t.schema.Lookup(n)
	}
	out := MustTable(schema)
	row := make([]value.Value, len(names))
	for i := 0; i < t.n; i++ {
		for k, j := range idx {
			row[k] = t.cols[j].Value(i)
		}
		if err := out.AppendRow(row); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// SortKey names a column and direction for Sort.
type SortKey struct {
	Column     string
	Descending bool
}

// Sort returns a new table with rows stably ordered by the given keys.
func (t *Table) Sort(keys ...SortKey) (*Table, error) {
	idx := make([]int, len(keys))
	for k, key := range keys {
		j, ok := t.schema.Lookup(key.Column)
		if !ok {
			return nil, fmt.Errorf("storage: unknown sort column %q", key.Column)
		}
		idx[k] = j
	}
	order := make([]int, t.n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ra, rb := order[a], order[b]
		for k, j := range idx {
			cmp := t.cols[j].Value(ra).Compare(t.cols[j].Value(rb))
			if keys[k].Descending {
				cmp = -cmp
			}
			if cmp != 0 {
				return cmp < 0
			}
		}
		return false
	})
	out := MustTable(t.schema)
	for _, i := range order {
		if err := out.AppendRow(t.Row(i)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// AggKind selects the aggregate computed over a group. It is the
// execution core's AggKind re-exported under its historical name, so
// every layer shares one set of aggregate semantics.
type AggKind = exec.AggKind

// Supported aggregates. CountAgg counts non-NA values of the measure column
// (or rows if the measure is empty); DistinctAgg counts distinct non-NA
// values.
const (
	CountAgg    = exec.CountAgg
	SumAgg      = exec.SumAgg
	AvgAgg      = exec.AvgAgg
	MinAgg      = exec.MinAgg
	MaxAgg      = exec.MaxAgg
	DistinctAgg = exec.DistinctAgg
)

// ParseAggKind converts an aggregate name ("count", "sum", ...) to its
// AggKind.
func ParseAggKind(s string) (AggKind, error) {
	k, err := exec.ParseAggKind(s)
	if err != nil {
		return k, fmt.Errorf("storage: unknown aggregate %q", s)
	}
	return k, nil
}

// AggSpec is one aggregate to compute per group: the aggregate kind, the
// measure column it reads (may be empty for CountAgg, meaning row count)
// and the output column name.
type AggSpec struct {
	Kind   AggKind
	Column string
	As     string
}

// GroupBy groups rows by the named key columns and computes the requested
// aggregates per group. The result has the key columns followed by one
// column per AggSpec, with groups ordered by key values ascending.
//
// Grouping runs on the shared execution kernel: key columns are
// dictionary-encoded (cached on the column), groups are keyed on packed
// integer codes and aggregated in parallel. Pass
// exec.WithVectorized(false) for the legacy single-goroutine scalar path,
// and exec.WithContext(ctx) for cancellation, budget charging and, when
// ctx carries a span (obs.ContextWithSpan), the kernel's phase spans.
func (t *Table) GroupBy(keys []string, aggs []AggSpec, opts ...exec.Option) (*Table, error) {
	return t.GroupByFiltered(keys, aggs, nil, opts...)
}

// GroupByFiltered is GroupBy restricted to the rows for which pred is
// true. Filtering happens inside the kernel scan, so no intermediate
// filtered table is materialised (the DG-SQL aggregate path relies on
// this).
func (t *Table) GroupByFiltered(keys []string, aggs []AggSpec, pred RowPredicate, opts ...exec.Option) (*Table, error) {
	keyIdx := make([]int, len(keys))
	for k, name := range keys {
		j, ok := t.schema.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("storage: unknown group column %q", name)
		}
		keyIdx[k] = j
	}
	in := exec.GroupInput{
		NumRows: t.n,
		Keys:    make([]exec.CodedColumn, len(keys)),
		Aggs:    make([]exec.AggInput, len(aggs)),
	}
	for k, j := range keyIdx {
		in.Keys[k] = t.cols[j].Dict()
	}
	for k, a := range aggs {
		in.Aggs[k].Kind = a.Kind
		if a.Column == "" {
			if a.Kind != CountAgg {
				return nil, fmt.Errorf("storage: aggregate %s requires a column", a.Kind)
			}
			continue // nil measure: count rows
		}
		j, ok := t.schema.Lookup(a.Column)
		if !ok {
			return nil, fmt.Errorf("storage: unknown aggregate column %q", a.Column)
		}
		if a.Kind == DistinctAgg {
			// Distinct aggregates read the coded view, so the dense
			// kernel can count distinct dictionary codes in bitsets
			// instead of materialising per-group Seen maps.
			in.Aggs[k].Measure = t.cols[j].Dict()
			continue
		}
		in.Aggs[k].Measure = t.cols[j]
	}
	if pred != nil {
		in.Filter = func(i int) bool { return pred(t, i) }
	}

	groups, err := exec.GroupBy(in, opts...)
	if err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}

	fields := make([]Field, 0, len(keys)+len(aggs))
	for k, name := range keys {
		fields = append(fields, Field{Name: name, Kind: t.schema.Field(keyIdx[k]).Kind})
	}
	for _, a := range aggs {
		name := a.As
		if name == "" {
			name = a.Kind.String()
			if a.Column != "" {
				name += "_" + a.Column
			}
		}
		fields = append(fields, Field{Name: name, Kind: exec.ResultKind(a.Kind)})
	}
	schema, err := NewSchema(fields...)
	if err != nil {
		return nil, err
	}
	out := MustTable(schema)
	row := make([]value.Value, len(fields))
	for _, g := range groups {
		copy(row, g.Tuple)
		for k, st := range g.States {
			row[len(keys)+k] = st.Result()
		}
		if err := out.AppendRow(row); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Distinct returns the distinct rows of the named columns, sorted
// ascending. It is a zero-aggregate group-by on the shared kernel.
func (t *Table) Distinct(names ...string) (*Table, error) {
	for _, n := range names {
		if _, ok := t.schema.Lookup(n); !ok {
			return nil, fmt.Errorf("storage: unknown field %q", n)
		}
	}
	return t.GroupBy(names, nil)
}

// FloatStats summarises the non-NA numeric content of a column.
type FloatStats struct {
	Count    int
	NACount  int
	Mean     float64
	Std      float64
	Min, Max float64
}

// Stats computes summary statistics for the named numeric column.
func (t *Table) Stats(name string) (FloatStats, error) {
	col, err := t.Column(name)
	if err != nil {
		return FloatStats{}, err
	}
	var s FloatStats
	s.Min, s.Max = math.Inf(1), math.Inf(-1)
	var sum, sumSq float64
	for i := 0; i < col.Len(); i++ {
		v := col.Value(i)
		if v.IsNA() {
			s.NACount++
			continue
		}
		f, ok := v.AsFloat()
		if !ok {
			continue
		}
		s.Count++
		sum += f
		sumSq += f * f
		if f < s.Min {
			s.Min = f
		}
		if f > s.Max {
			s.Max = f
		}
	}
	if s.Count > 0 {
		s.Mean = sum / float64(s.Count)
		variance := sumSq/float64(s.Count) - s.Mean*s.Mean
		if variance < 0 {
			variance = 0
		}
		s.Std = math.Sqrt(variance)
	} else {
		s.Min, s.Max = 0, 0
	}
	return s, nil
}

// Mode returns the most frequent non-NA value of the named column, with
// ties broken by value order. The boolean result is false when the column
// holds no non-NA values.
func (t *Table) Mode(name string) (value.Value, bool, error) {
	col, err := t.Column(name)
	if err != nil {
		return value.NA(), false, err
	}
	counts := make(map[value.Value]int)
	for i := 0; i < col.Len(); i++ {
		v := col.Value(i)
		if v.IsNA() {
			continue
		}
		counts[v]++
	}
	if len(counts) == 0 {
		return value.NA(), false, nil
	}
	var best value.Value
	bestN := -1
	for v, n := range counts {
		if n > bestN || (n == bestN && v.Less(best)) {
			best, bestN = v, n
		}
	}
	return best, true, nil
}
