package mdx

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"github.com/ddgms/ddgms/internal/cube"
	"github.com/ddgms/ddgms/internal/obs"
	"github.com/ddgms/ddgms/internal/storage"
	"github.com/ddgms/ddgms/internal/value"
)

// Evaluator binds parsed MDX queries to a cube engine and executes them.
// Measures are registered by name under the [Measures] pseudo-dimension;
// an unregistered query defaults to the fact count.
type Evaluator struct {
	engine   *cube.Engine
	cubeName string
	measures map[string]cube.MeasureRef
}

// NewEvaluator creates an evaluator for the engine's schema. cubeName is
// what queries must name in FROM.
func NewEvaluator(engine *cube.Engine, cubeName string) *Evaluator {
	return &Evaluator{
		engine:   engine,
		cubeName: cubeName,
		measures: make(map[string]cube.MeasureRef),
	}
}

// RegisterMeasure exposes a measure under [Measures].[name]. Names are
// case-insensitive.
func (ev *Evaluator) RegisterMeasure(name string, m cube.MeasureRef) {
	ev.measures[strings.ToLower(name)] = m
}

// QueryCtx parses and executes an MDX query string under a caller
// context: a cancelled or over-budget context stops the cube scan
// mid-flight with no partial result, and a span the context carries
// (obs.ContextWithSpan) receives mdx.parse and the cube engine's stages.
func (ev *Evaluator) QueryCtx(ctx context.Context, src string) (*cube.CellSet, error) {
	parse := obs.SpanFromContext(ctx).Start("mdx.parse")
	q, err := Parse(src)
	parse.End()
	if err != nil {
		return nil, err
	}
	return ev.ExecuteCtx(ctx, q)
}

// axisBinding is the cube-level meaning of one axis: attribute refs, the
// member restrictions gathered from explicit member lists, measures named
// on the axis, and any TOPCOUNT restriction.
type axisBinding struct {
	refs     []cube.AttrRef
	filters  []cube.Slicer
	measures []namedMeasure
	topN     int
}

type namedMeasure struct {
	name string
	ref  cube.MeasureRef
}

// ExecuteCtx runs a parsed query against the engine under a caller
// context (see QueryCtx), which carries cancellation, budget and span
// down to the cube engine and execution kernel.
func (ev *Evaluator) ExecuteCtx(ctx context.Context, q *QueryExpr) (*cube.CellSet, error) {
	if !strings.EqualFold(q.CubeRef, ev.cubeName) {
		return nil, fmt.Errorf("mdx: unknown cube %q (have %q)", q.CubeRef, ev.cubeName)
	}

	cq := cube.Query{Measure: cube.MeasureRef{Agg: storage.CountAgg}}
	var nonEmptyRows, nonEmptyCols bool

	bindAxis := func(axis *AxisExpr) (*axisBinding, error) {
		b := &axisBinding{}
		for _, item := range axis.Set.Items {
			if err := ev.bindSetItem(item, b); err != nil {
				return nil, err
			}
		}
		return b, nil
	}

	colBinding, err := bindAxis(q.Columns)
	if err != nil {
		return nil, err
	}
	nonEmptyCols = q.Columns.NonEmpty
	cq.Cols = colBinding.refs
	cq.Slicers = append(cq.Slicers, colBinding.filters...)

	rowBinding := &axisBinding{}
	if q.Rows != nil {
		rowBinding, err = bindAxis(q.Rows)
		if err != nil {
			return nil, err
		}
		nonEmptyRows = q.Rows.NonEmpty
		cq.Rows = rowBinding.refs
		cq.Slicers = append(cq.Slicers, rowBinding.filters...)
	}

	for _, m := range q.Where {
		if err := ev.bindWhereMember(m, &cq); err != nil {
			return nil, err
		}
	}

	var cs *cube.CellSet
	allMeasures := append(append([]namedMeasure{}, colBinding.measures...), rowBinding.measures...)
	switch {
	case len(allMeasures) > 1:
		cs, err = ev.executeMultiMeasure(ctx, cq, colBinding, rowBinding)
		if err != nil {
			return nil, err
		}
	default:
		if len(allMeasures) == 1 {
			cq.Measure = allMeasures[0].ref
		}
		cs, err = ev.engine.ExecuteCtx(ctx, cq)
		if err != nil {
			return nil, err
		}
	}
	if nonEmptyRows {
		cs = dropEmptyRows(cs)
	}
	if nonEmptyCols {
		cs = dropEmptyCols(cs)
	}
	if rowBinding.topN > 0 {
		cs = topRows(cs, rowBinding.topN)
	}
	if colBinding.topN > 0 {
		cs = topRows(cs.Pivot(), colBinding.topN).Pivot()
	}
	return cs, nil
}

// executeMultiMeasure answers a query whose axis lists several measures:
// the axis carrying the measures must hold nothing else, and becomes one
// position per measure.
func (ev *Evaluator) executeMultiMeasure(ctx context.Context, cq cube.Query, colB, rowB *axisBinding) (*cube.CellSet, error) {
	var measures []namedMeasure
	var onCols bool
	switch {
	case len(colB.measures) > 1 && len(rowB.measures) == 0:
		measures, onCols = colB.measures, true
		if len(colB.refs) > 0 {
			return nil, fmt.Errorf("mdx: a multi-measure axis cannot also carry attributes")
		}
	case len(rowB.measures) > 1 && len(colB.measures) == 0:
		measures, onCols = rowB.measures, false
		if len(rowB.refs) > 0 {
			return nil, fmt.Errorf("mdx: a multi-measure axis cannot also carry attributes")
		}
	default:
		return nil, fmt.Errorf("mdx: measures must all appear on one axis")
	}

	var parts []*cube.CellSet
	for _, m := range measures {
		q := cq
		q.Measure = m.ref
		cs, err := ev.engine.ExecuteCtx(ctx, q)
		if err != nil {
			return nil, err
		}
		if !onCols {
			cs = cs.Pivot()
		}
		parts = append(parts, cs)
	}
	// Stitch: same slicers and axes ensure identical row headers across
	// measures; columns become one per measure.
	base := parts[0]
	out := &cube.CellSet{
		RowAttrs:   base.RowAttrs,
		RowHeaders: base.RowHeaders,
		Measure:    base.Measure,
	}
	for k, m := range measures {
		if parts[k].Rows() != base.Rows() {
			return nil, fmt.Errorf("mdx: measure %q produced mismatched axis", m.name)
		}
		out.ColHeaders = append(out.ColHeaders, []value.Value{value.Str(m.name)})
	}
	out.Cells = make([][]value.Value, base.Rows())
	for i := range out.Cells {
		out.Cells[i] = make([]value.Value, len(measures))
		for k := range measures {
			// Each part has the (all) pseudo-column.
			out.Cells[i][k] = parts[k].Cell(i, 0)
		}
	}
	if !onCols {
		out = out.Pivot()
	}
	return out, nil
}

// topRows keeps the n rows with the largest totals, ranked descending.
func topRows(cs *cube.CellSet, n int) *cube.CellSet {
	type ranked struct {
		idx   int
		total float64
	}
	rows := make([]ranked, cs.Rows())
	for i := range rows {
		var t float64
		for j := 0; j < cs.Columns(); j++ {
			t += cs.CellFloat(i, j)
		}
		rows[i] = ranked{idx: i, total: t}
	}
	sort.SliceStable(rows, func(a, b int) bool { return rows[a].total > rows[b].total })
	if n > len(rows) {
		n = len(rows)
	}
	out := *cs
	out.RowHeaders = make([][]value.Value, n)
	out.Cells = make([][]value.Value, n)
	for k := 0; k < n; k++ {
		out.RowHeaders[k] = cs.RowHeaders[rows[k].idx]
		out.Cells[k] = cs.Cells[rows[k].idx]
	}
	return &out
}

// bindSetItem resolves one set item onto an axis binding.
func (ev *Evaluator) bindSetItem(item SetItem, b *axisBinding) error {
	if item.Top != nil {
		if item.Top.N > b.topN {
			b.topN = item.Top.N
		}
		for _, it := range item.Top.Set.Items {
			if err := ev.bindSetItem(it, b); err != nil {
				return err
			}
		}
		return nil
	}
	if item.Cross != nil {
		for _, side := range []SetExpr{item.Cross.Left, item.Cross.Right} {
			for _, it := range side.Items {
				if err := ev.bindSetItem(it, b); err != nil {
					return err
				}
			}
		}
		return nil
	}
	m := *item.Member
	if isMeasurePath(m.Path) {
		mr, err := ev.lookupMeasure(m)
		if err != nil {
			return err
		}
		b.measures = append(b.measures, namedMeasure{name: m.Path[1], ref: mr})
		return nil
	}
	ref, memberVal, hasValue, err := ev.resolveMember(m)
	if err != nil {
		return err
	}
	// Ensure the attribute appears once on the axis.
	present := false
	for _, r := range b.refs {
		if r == ref {
			present = true
			break
		}
	}
	if !present {
		b.refs = append(b.refs, ref)
	}
	if m.AllMembers {
		// Remove any narrower filter: MEMBERS means the whole level.
		kept := b.filters[:0]
		for _, f := range b.filters {
			if f.Ref != ref {
				kept = append(kept, f)
			}
		}
		b.filters = kept
		return nil
	}
	if !hasValue {
		return fmt.Errorf("mdx: %s names a level; use .MEMBERS or a member value", m)
	}
	// Merge into an existing filter on the same attribute (an explicit
	// member list like {[G].[M], [G].[F]}).
	for i := range b.filters {
		if b.filters[i].Ref == ref {
			b.filters[i].Values = append(b.filters[i].Values, memberVal)
			return nil
		}
	}
	b.filters = append(b.filters, cube.Slicer{Ref: ref, Values: []value.Value{memberVal}})
	return nil
}

// bindWhereMember resolves one WHERE tuple element: a measure selection or
// a slicer member.
func (ev *Evaluator) bindWhereMember(m MemberExpr, cq *cube.Query) error {
	if isMeasurePath(m.Path) {
		mr, err := ev.lookupMeasure(m)
		if err != nil {
			return err
		}
		cq.Measure = mr
		return nil
	}
	ref, memberVal, hasValue, err := ev.resolveMember(m)
	if err != nil {
		return err
	}
	if !hasValue {
		return fmt.Errorf("mdx: WHERE member %s must name a value", m)
	}
	for i := range cq.Slicers {
		if cq.Slicers[i].Ref == ref {
			cq.Slicers[i].Values = append(cq.Slicers[i].Values, memberVal)
			return nil
		}
	}
	cq.Slicers = append(cq.Slicers, cube.Slicer{Ref: ref, Values: []value.Value{memberVal}})
	return nil
}

func isMeasurePath(path []string) bool {
	return len(path) > 0 && strings.EqualFold(path[0], "Measures")
}

func (ev *Evaluator) lookupMeasure(m MemberExpr) (cube.MeasureRef, error) {
	if len(m.Path) != 2 || m.AllMembers {
		return cube.MeasureRef{}, fmt.Errorf("mdx: measure reference %s must be [Measures].[Name]", m)
	}
	mr, ok := ev.measures[strings.ToLower(m.Path[1])]
	if !ok {
		return cube.MeasureRef{}, fmt.Errorf("mdx: unknown measure %q", m.Path[1])
	}
	return mr, nil
}

// resolveMember binds [Dim].[Attr] or [Dim].[Attr].[Value] against the
// star schema, coercing the value text to the attribute's kind.
func (ev *Evaluator) resolveMember(m MemberExpr) (ref cube.AttrRef, v value.Value, hasValue bool, err error) {
	if len(m.Path) < 2 || len(m.Path) > 3 {
		return ref, v, false, fmt.Errorf("mdx: member %s must be [Dim].[Attr] or [Dim].[Attr].[Value]", m)
	}
	dim, ok := ev.engine.Schema().Dimension(m.Path[0])
	if !ok {
		return ref, v, false, fmt.Errorf("mdx: unknown dimension %q", m.Path[0])
	}
	kind, ok := dim.AttrKind(m.Path[1])
	if !ok {
		return ref, v, false, fmt.Errorf("mdx: dimension %q has no attribute %q", m.Path[0], m.Path[1])
	}
	ref = cube.AttrRef{Dim: dim.Name(), Attr: m.Path[1]}
	if len(m.Path) == 2 {
		return ref, v, false, nil
	}
	v, err = value.ParseAs(m.Path[2], kind)
	if err != nil {
		return ref, v, false, fmt.Errorf("mdx: member value %q: %w", m.Path[2], err)
	}
	return ref, v, true, nil
}

func dropEmptyRows(cs *cube.CellSet) *cube.CellSet {
	out := *cs
	out.RowHeaders = nil
	out.Cells = nil
	for i := range cs.RowHeaders {
		empty := true
		for j := range cs.Cells[i] {
			if !cs.Cells[i][j].IsNA() {
				empty = false
				break
			}
		}
		if !empty {
			out.RowHeaders = append(out.RowHeaders, cs.RowHeaders[i])
			out.Cells = append(out.Cells, cs.Cells[i])
		}
	}
	return &out
}

func dropEmptyCols(cs *cube.CellSet) *cube.CellSet {
	keep := make([]int, 0, len(cs.ColHeaders))
	for j := range cs.ColHeaders {
		for i := range cs.Cells {
			if !cs.Cells[i][j].IsNA() {
				keep = append(keep, j)
				break
			}
		}
	}
	out := *cs
	out.ColHeaders = make([][]value.Value, len(keep))
	for k, j := range keep {
		out.ColHeaders[k] = cs.ColHeaders[j]
	}
	out.Cells = make([][]value.Value, len(cs.Cells))
	for i := range cs.Cells {
		out.Cells[i] = make([]value.Value, len(keep))
		for k, j := range keep {
			out.Cells[i][k] = cs.Cells[i][j]
		}
	}
	return &out
}
