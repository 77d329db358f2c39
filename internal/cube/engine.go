package cube

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"github.com/ddgms/ddgms/internal/exec"
	"github.com/ddgms/ddgms/internal/obs"
	"github.com/ddgms/ddgms/internal/star"
	"github.com/ddgms/ddgms/internal/storage"
	"github.com/ddgms/ddgms/internal/value"
)

// Engine executes OLAP queries against a star schema. It memoises
// materialised attribute columns, bitmap member indexes and (optionally) a
// partial aggregate lattice, so repeated interactive exploration of the
// same warehouse is fast. Engine is safe for concurrent query execution.
type Engine struct {
	schema *star.Schema

	useBitmaps bool
	useLattice bool
	execOpts   []exec.Option

	mu          sync.Mutex
	attrCols    map[AttrRef][]value.Value
	codedCols   map[AttrRef]exec.CodedColumn
	bitmaps     map[AttrRef]map[value.Value]*Bitmap
	lattice     map[string][]*latticeEntry
	memberOrder map[AttrRef]map[value.Value]int
}

// Option configures an Engine.
type Option func(*Engine)

// WithBitmapIndex enables or disables bitmap member indexes for slicer
// evaluation (default on). Disabling falls back to direct column scans —
// the B2 ablation baseline.
func WithBitmapIndex(on bool) Option { return func(e *Engine) { e.useBitmaps = on } }

// WithAggregateCache enables or disables the partial aggregate lattice
// (default on). When enabled, additive queries (count/sum) can be answered
// by rolling up previously computed finer-grained results.
func WithAggregateCache(on bool) Option { return func(e *Engine) { e.useLattice = on } }

// WithVectorized selects between the dictionary-coded parallel group-by
// kernel (default) and the legacy scalar string-keyed path — the ablation
// baseline for the execution-core benchmarks.
func WithVectorized(on bool) Option {
	return func(e *Engine) { e.execOpts = append(e.execOpts, exec.WithVectorized(on)) }
}

// NewEngine creates an engine over a loaded star schema.
func NewEngine(schema *star.Schema, opts ...Option) *Engine {
	e := &Engine{
		schema:      schema,
		useBitmaps:  true,
		useLattice:  true,
		attrCols:    make(map[AttrRef][]value.Value),
		codedCols:   make(map[AttrRef]exec.CodedColumn),
		bitmaps:     make(map[AttrRef]map[value.Value]*Bitmap),
		lattice:     make(map[string][]*latticeEntry),
		memberOrder: make(map[AttrRef]map[value.Value]int),
	}
	for _, o := range opts {
		o(e)
	}
	return e
}

// Schema returns the underlying star schema.
func (e *Engine) Schema() *star.Schema { return e.schema }

// SetMemberOrder declares the display order of an attribute's members
// (e.g. age bands "<40", "40-60", "60-80", ">80", which would otherwise
// sort lexicographically). Unlisted members sort after listed ones in
// natural order.
func (e *Engine) SetMemberOrder(ref AttrRef, members []value.Value) {
	e.mu.Lock()
	defer e.mu.Unlock()
	m := make(map[value.Value]int, len(members))
	for i, v := range members {
		m[v] = i
	}
	e.memberOrder[ref] = m
}

// InvalidateCaches clears every memoised structure. Call after mutating
// the star schema (feedback dimensions, SCD updates).
func (e *Engine) InvalidateCaches() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.attrCols = make(map[AttrRef][]value.Value)
	e.codedCols = make(map[AttrRef]exec.CodedColumn)
	e.bitmaps = make(map[AttrRef]map[value.Value]*Bitmap)
	e.lattice = make(map[string][]*latticeEntry)
}

// attrColumn materialises (and caches) the value of ref for every fact
// row; facts with NoKey get NA.
func (e *Engine) attrColumn(ref AttrRef) ([]value.Value, error) {
	e.mu.Lock()
	if col, ok := e.attrCols[ref]; ok {
		e.mu.Unlock()
		return col, nil
	}
	e.mu.Unlock()

	dim, ok := e.schema.Dimension(ref.Dim)
	if !ok {
		return nil, fmt.Errorf("cube: unknown dimension %q", ref.Dim)
	}
	if !dim.HasAttr(ref.Attr) {
		return nil, fmt.Errorf("cube: dimension %q has no attribute %q", ref.Dim, ref.Attr)
	}
	keys, err := e.schema.Fact().KeyColumn(ref.Dim)
	if err != nil {
		return nil, err
	}
	// Pre-resolve member attributes once, then fan out to facts.
	memberVals := make([]value.Value, dim.Len())
	for k := 0; k < dim.Len(); k++ {
		v, err := dim.Attr(star.Key(k), ref.Attr)
		if err != nil {
			return nil, err
		}
		memberVals[k] = v
	}
	col := make([]value.Value, len(keys))
	for i, k := range keys {
		if k == star.NoKey {
			col[i] = value.NA()
			continue
		}
		col[i] = memberVals[k]
	}
	e.mu.Lock()
	e.attrCols[ref] = col
	e.mu.Unlock()
	return col, nil
}

// attrCoded materialises (and caches) the dictionary-encoded form of an
// attribute column — the key representation the execution kernel groups
// on.
func (e *Engine) attrCoded(ref AttrRef) (exec.CodedColumn, error) {
	e.mu.Lock()
	if cc, ok := e.codedCols[ref]; ok {
		e.mu.Unlock()
		cubeDictHit.Inc()
		return cc, nil
	}
	e.mu.Unlock()
	cubeDictMiss.Inc()

	col, err := e.attrColumn(ref)
	if err != nil {
		return nil, err
	}
	cc := exec.Encode(col)
	e.mu.Lock()
	e.codedCols[ref] = cc
	e.mu.Unlock()
	return cc, nil
}

// bitmapFor returns (building if needed) the member bitmaps of ref. The
// bitmaps are built from the coded column — one pass over dense uint32
// codes rather than per-row value hashing.
func (e *Engine) bitmapFor(ref AttrRef) (map[value.Value]*Bitmap, error) {
	e.mu.Lock()
	if m, ok := e.bitmaps[ref]; ok {
		e.mu.Unlock()
		return m, nil
	}
	e.mu.Unlock()

	cc, err := e.attrCoded(ref)
	if err != nil {
		return nil, err
	}
	perCode := make([]*Bitmap, cc.Card())
	for i, code := range exec.MaterializeCodes(cc) {
		b := perCode[code]
		if b == nil {
			b = NewBitmap(cc.Len())
			perCode[code] = b
		}
		b.Set(i)
	}
	m := make(map[value.Value]*Bitmap, len(perCode))
	values := cc.Values()
	for code, b := range perCode {
		if b != nil {
			m[values[code]] = b
		}
	}
	e.mu.Lock()
	e.bitmaps[ref] = m
	e.mu.Unlock()
	return m, nil
}

// filterBitmap evaluates all slicers into one fact-row bitmap. Retired
// (tombstoned) fact rows are masked out first, so every scan, aggregate
// and drill-through sees only live facts.
func (e *Engine) filterBitmap(slicers []Slicer) (*Bitmap, error) {
	fact := e.schema.Fact()
	n := fact.Len()
	out := NewBitmap(n)
	out.Fill()
	if fact.RetiredCount() > 0 {
		out.AndNotWords(fact.DeadWords())
	}
	for _, s := range slicers {
		if len(s.Values) == 0 {
			return nil, fmt.Errorf("cube: slicer on %s has no values", s.Ref)
		}
		if e.useBitmaps {
			members, err := e.bitmapFor(s.Ref)
			if err != nil {
				return nil, err
			}
			union := NewBitmap(n)
			for _, v := range s.Values {
				if b, ok := members[v]; ok {
					union.Or(b)
				}
			}
			out.And(union)
			continue
		}
		// Scan fallback.
		col, err := e.attrColumn(s.Ref)
		if err != nil {
			return nil, err
		}
		match := NewBitmap(n)
		want := make(map[value.Value]struct{}, len(s.Values))
		for _, v := range s.Values {
			want[v] = struct{}{}
		}
		for i, v := range col {
			if _, ok := want[v]; ok {
				match.Set(i)
			}
		}
		out.And(match)
	}
	return out, nil
}

// measureColumn resolves the values the measure aggregates over, or nil
// for a plain fact count.
func (e *Engine) measureColumn(m MeasureRef) ([]value.Value, error) {
	switch {
	case m.Column != "" && m.Attr != nil:
		return nil, fmt.Errorf("cube: measure cannot name both a column and an attribute")
	case m.Column != "":
		col, err := e.schema.Fact().Measure(m.Column)
		if err != nil {
			return nil, fmt.Errorf("cube: %w", err)
		}
		out := make([]value.Value, col.Len())
		for i := range out {
			out[i] = col.Value(i)
		}
		return out, nil
	case m.Attr != nil:
		if m.Agg != storage.CountAgg && m.Agg != storage.DistinctAgg {
			return nil, fmt.Errorf("cube: attribute measures support count/distinct only, got %s", m.Agg)
		}
		return e.attrColumn(*m.Attr)
	default:
		if m.Agg != storage.CountAgg {
			return nil, fmt.Errorf("cube: aggregate %s requires a measure column", m.Agg)
		}
		return nil, nil
	}
}

// ExecuteCtx runs a query and returns its cell set. The grouping scan
// runs on the shared execution kernel (internal/exec): axis columns are
// dictionary-encoded once and cached, groups are keyed on packed integer
// codes, and the slicer bitmap feeds the kernel as its row filter.
//
// The kernel scan checks ctx cooperatively and charges any govern.Budget
// it carries, so a cancelled or over-budget query stops mid-scan with no
// partial result. When ctx carries a span (obs.ContextWithSpan), the
// stages (cube.encode, cube.filter, cube.group, cube.assemble) hang
// under it; without one each stage pays one nil check.
func (e *Engine) ExecuteCtx(ctx context.Context, q Query) (*CellSet, error) {
	sp := obs.SpanFromContext(ctx)
	metricQueries.Inc()
	encode := sp.Start("cube.encode")
	axes := append(append([]AttrRef{}, q.Rows...), q.Cols...)
	axisCoded := make([]exec.CodedColumn, len(axes))
	for i, ref := range axes {
		cc, err := e.attrCoded(ref)
		if err != nil {
			encode.End()
			return nil, err
		}
		axisCoded[i] = cc
	}
	mcol, err := e.measureColumn(q.Measure)
	encode.Annotate("axes", len(axes))
	encode.End()
	if err != nil {
		return nil, err
	}

	// Try the aggregate lattice before scanning facts.
	if e.useLattice {
		if cs, ok := e.latticeLookup(q); ok {
			latticeHit.Inc()
			sp.Annotate("lattice", "hit")
			return cs, nil
		}
		latticeMiss.Inc()
	}

	filterSp := sp.Start("cube.filter")
	filter, err := e.filterBitmap(q.Slicers)
	filterSp.Annotate("slicers", len(q.Slicers))
	filterSp.End()
	if err != nil {
		return nil, err
	}

	// Group every filtered fact, including those with NA axis coordinates;
	// NA tuples are dropped at assembly time unless IncludeMissing is set.
	// Keeping them in the grouped form makes the cached lattice entry
	// correct for later roll-ups to coarser attribute subsets.
	in := exec.GroupInput{
		NumRows: e.schema.Fact().Len(),
		Keys:    axisCoded,
		Aggs:    []exec.AggInput{{Kind: q.Measure.Agg}},
		Filter:  filter.Get,
	}
	switch {
	case q.Measure.Attr != nil && q.Measure.Agg == storage.DistinctAgg:
		// Distinct attribute measures hand the kernel the coded column so
		// the dense path can count distinct dictionary codes in bitsets
		// instead of materialising Seen maps per group.
		cc, err := e.attrCoded(*q.Measure.Attr)
		if err != nil {
			return nil, err
		}
		in.Aggs[0].Measure = cc
	case mcol != nil:
		in.Aggs[0].Measure = exec.ValueSlice(mcol)
	}
	groupSp := sp.Start("cube.group")
	// Full-slice append: never mutate the shared opts backing array.
	opts := append(e.execOpts[:len(e.execOpts):len(e.execOpts)], exec.WithContext(obs.ContextWithSpan(ctx, groupSp)))
	groups, err := exec.GroupBy(in, opts...)
	groupSp.Annotate("groups", len(groups))
	groupSp.End()
	if err != nil {
		return nil, fmt.Errorf("cube: %w", err)
	}

	assemble := sp.Start("cube.assemble")
	cs := e.assembleCellSet(q, func(yield func(tuple []value.Value, cell value.Value)) {
		for _, g := range groups {
			if !q.IncludeMissing && tupleHasNA(g.Tuple) {
				continue
			}
			yield(g.Tuple, g.States[0].Result())
		}
	})
	assemble.End()

	if e.useLattice && latticeable(q.Measure) {
		e.latticeStore(q, groups)
	}
	return cs, nil
}

func tupleHasNA(tuple []value.Value) bool {
	for _, v := range tuple {
		if v.IsNA() {
			return true
		}
	}
	return false
}

// assembleCellSet lays grouped tuples out on the two axes.
func (e *Engine) assembleCellSet(q Query, emit func(yield func([]value.Value, value.Value))) *CellSet {
	nr, nc := len(q.Rows), len(q.Cols)
	rowSet := make(map[string][]value.Value)
	colSet := make(map[string][]value.Value)
	type pending struct {
		rk, ck string
		cell   value.Value
	}
	var cells []pending
	emit(func(tuple []value.Value, cell value.Value) {
		rt, ct := tuple[:nr], tuple[nr:nr+nc]
		rk, ck := exec.EncodeTuple(rt), exec.EncodeTuple(ct)
		if _, ok := rowSet[rk]; !ok {
			rowSet[rk] = append([]value.Value(nil), rt...)
		}
		if _, ok := colSet[ck]; !ok {
			colSet[ck] = append([]value.Value(nil), ct...)
		}
		cells = append(cells, pending{rk: rk, ck: ck, cell: cell})
	})

	rowHeaders := e.sortTuples(rowSet, q.Rows)
	colHeaders := e.sortTuples(colSet, q.Cols)
	rowIdx := make(map[string]int, len(rowHeaders))
	for i, t := range rowHeaders {
		rowIdx[exec.EncodeTuple(t)] = i
	}
	colIdx := make(map[string]int, len(colHeaders))
	for i, t := range colHeaders {
		colIdx[exec.EncodeTuple(t)] = i
	}
	matrix := make([][]value.Value, len(rowHeaders))
	for i := range matrix {
		matrix[i] = make([]value.Value, len(colHeaders))
		for j := range matrix[i] {
			matrix[i][j] = value.NA()
		}
	}
	for _, p := range cells {
		matrix[rowIdx[p.rk]][colIdx[p.ck]] = p.cell
	}
	return &CellSet{
		RowAttrs:   append([]AttrRef(nil), q.Rows...),
		ColAttrs:   append([]AttrRef(nil), q.Cols...),
		RowHeaders: rowHeaders,
		ColHeaders: colHeaders,
		Cells:      matrix,
		Measure:    q.Measure,
	}
}

// sortTuples orders axis header tuples, honouring declared member orders.
func (e *Engine) sortTuples(set map[string][]value.Value, attrs []AttrRef) [][]value.Value {
	out := make([][]value.Value, 0, len(set))
	for _, t := range set {
		out = append(out, t)
	}
	e.mu.Lock()
	orders := make([]map[value.Value]int, len(attrs))
	for i, ref := range attrs {
		orders[i] = e.memberOrder[ref]
	}
	e.mu.Unlock()
	sort.Slice(out, func(a, b int) bool {
		for k := range attrs {
			va, vb := out[a][k], out[b][k]
			if ord := orders[k]; ord != nil {
				ia, oka := ord[va]
				ib, okb := ord[vb]
				switch {
				case oka && okb:
					if ia != ib {
						return ia < ib
					}
					continue
				case oka:
					return true
				case okb:
					return false
				}
			}
			if c := va.Compare(vb); c != 0 {
				return c < 0
			}
		}
		return false
	})
	return out
}
