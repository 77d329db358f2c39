package dgsql

import (
	"context"
	"fmt"
	"strings"

	"github.com/ddgms/ddgms/internal/exec"
	"github.com/ddgms/ddgms/internal/obs"
	"github.com/ddgms/ddgms/internal/storage"
	"github.com/ddgms/ddgms/internal/value"
)

// DB resolves table names for the executor.
type DB struct {
	tables map[string]*storage.Table
}

// NewDB creates an empty database.
func NewDB() *DB { return &DB{tables: make(map[string]*storage.Table)} }

// Register attaches a table under a name (case-insensitive).
func (db *DB) Register(name string, t *storage.Table) error {
	key := strings.ToLower(name)
	if _, dup := db.tables[key]; dup {
		return fmt.Errorf("dgsql: table %q already registered", name)
	}
	db.tables[key] = t
	return nil
}

// QueryCtx parses and executes a statement under a caller context,
// returning the result table. Aggregate scans check ctx cooperatively
// in the kernel and charge any govern.Budget it carries; a span the
// context carries (obs.ContextWithSpan) receives dgsql.parse,
// dgsql.execute and, for aggregate statements, the kernel phases.
func (db *DB) QueryCtx(ctx context.Context, src string) (*storage.Table, error) {
	parse := obs.SpanFromContext(ctx).Start("dgsql.parse")
	st, err := Parse(src)
	parse.End()
	if err != nil {
		return nil, err
	}
	return db.ExecuteCtx(ctx, st)
}

// ExecuteCtx runs a parsed statement under a caller context (see
// QueryCtx).
func (db *DB) ExecuteCtx(ctx context.Context, st *Stmt) (*storage.Table, error) {
	exe := obs.SpanFromContext(ctx).Start("dgsql.execute")
	defer exe.End()
	t, ok := db.tables[strings.ToLower(st.Table)]
	if !ok {
		return nil, fmt.Errorf("dgsql: unknown table %q", st.Table)
	}

	// Validate referenced columns up front for better errors.
	for _, c := range st.Where {
		if _, ok := t.Schema().Lookup(c.Column); !ok {
			return nil, fmt.Errorf("dgsql: unknown column %q in WHERE", c.Column)
		}
	}
	for _, g := range st.GroupBy {
		if _, ok := t.Schema().Lookup(g); !ok {
			return nil, fmt.Errorf("dgsql: unknown column %q in GROUP BY", g)
		}
	}

	var pred storage.RowPredicate
	if len(st.Where) > 0 {
		pred = func(tb *storage.Table, i int) bool {
			for _, c := range st.Where {
				if !evalCond(tb.MustValue(i, c.Column), c) {
					return false
				}
			}
			return true
		}
	}

	hasAgg := false
	for _, item := range st.Items {
		if item.IsAgg {
			hasAgg = true
		}
	}

	var out *storage.Table
	var err error
	switch {
	case hasAgg || len(st.GroupBy) > 0:
		// The WHERE predicate is pushed into the group-by kernel scan, so
		// the aggregate path never materialises a filtered copy of the
		// table.
		out, err = db.executeAggregate(obs.ContextWithSpan(ctx, exe), st, t, pred)
	default:
		filtered := t
		if pred != nil {
			filtered = t.Filter(pred)
		}
		cols := make([]string, len(st.Items))
		for i, item := range st.Items {
			cols[i] = item.Column
		}
		out, err = filtered.Project(cols...)
		if err != nil {
			return nil, fmt.Errorf("dgsql: %w", err)
		}
		out, err = renameColumns(out, st.Items)
	}
	if err != nil {
		return nil, err
	}

	if len(st.OrderBy) > 0 {
		keys := make([]storage.SortKey, len(st.OrderBy))
		for i, k := range st.OrderBy {
			col := k.Column
			// ORDER BY may reference an alias.
			if _, ok := out.Schema().Lookup(col); !ok {
				return nil, fmt.Errorf("dgsql: unknown ORDER BY column %q", col)
			}
			keys[i] = storage.SortKey{Column: col, Descending: k.Descending}
		}
		out, err = out.Sort(keys...)
		if err != nil {
			return nil, fmt.Errorf("dgsql: %w", err)
		}
	}
	if st.Limit >= 0 && out.Len() > st.Limit {
		limited := storage.MustTable(out.Schema())
		for i := 0; i < st.Limit; i++ {
			if err := limited.AppendRow(out.Row(i)); err != nil {
				return nil, err
			}
		}
		out = limited
	}
	return out, nil
}

// executeAggregate handles GROUP BY / aggregate projections. The WHERE
// predicate (nil when absent) is evaluated inside the kernel scan.
func (db *DB) executeAggregate(ctx context.Context, st *Stmt, t *storage.Table, pred storage.RowPredicate) (*storage.Table, error) {
	var aggs []storage.AggSpec
	groupSet := make(map[string]bool, len(st.GroupBy))
	for _, g := range st.GroupBy {
		groupSet[g] = true
	}
	outNames := make([]string, len(st.Items))
	for i, item := range st.Items {
		name := item.As
		if !item.IsAgg {
			if !groupSet[item.Column] {
				return nil, fmt.Errorf("dgsql: column %q must appear in GROUP BY or inside an aggregate", item.Column)
			}
			if name == "" {
				name = item.Column
			}
			outNames[i] = name
			continue
		}
		if name == "" {
			if item.Star {
				name = "count"
			} else {
				name = item.Agg.String() + "_" + item.Column
			}
		}
		spec := storage.AggSpec{Kind: item.Agg, As: name}
		if !item.Star {
			spec.Column = item.Column
		}
		aggs = append(aggs, spec)
		outNames[i] = name
	}
	groupSp := obs.SpanFromContext(ctx).Start("dgsql.group")
	grouped, err := t.GroupByFiltered(st.GroupBy, aggs, pred, exec.WithContext(obs.ContextWithSpan(ctx, groupSp)))
	groupSp.End()
	if err != nil {
		return nil, fmt.Errorf("dgsql: %w", err)
	}
	// Project into the SELECT order (GroupBy puts keys first, then aggs).
	projected, err := groupedProjection(grouped, st, outNames)
	if err != nil {
		return nil, err
	}
	return projected, nil
}

// groupedProjection reorders/renames the GroupBy output to match the
// SELECT list.
func groupedProjection(grouped *storage.Table, st *Stmt, outNames []string) (*storage.Table, error) {
	srcNames := make([]string, len(st.Items))
	for i, item := range st.Items {
		switch {
		case !item.IsAgg:
			srcNames[i] = item.Column
		default:
			srcNames[i] = outNames[i] // agg column already carries the out name
		}
	}
	proj, err := grouped.Project(srcNames...)
	if err != nil {
		return nil, fmt.Errorf("dgsql: %w", err)
	}
	items := make([]SelectItem, len(st.Items))
	for i := range st.Items {
		items[i] = SelectItem{As: outNames[i], Column: srcNames[i]}
	}
	return renameColumns(proj, items)
}

// renameColumns applies AS aliases by rebuilding the schema.
func renameColumns(t *storage.Table, items []SelectItem) (*storage.Table, error) {
	fields := t.Schema().Fields()
	changed := false
	for i, item := range items {
		name := item.As
		if name == "" || i >= len(fields) || fields[i].Name == name {
			continue
		}
		fields[i].Name = name
		changed = true
	}
	if !changed {
		return t, nil
	}
	schema, err := storage.NewSchema(fields...)
	if err != nil {
		return nil, fmt.Errorf("dgsql: %w", err)
	}
	out := storage.MustTable(schema)
	for i := 0; i < t.Len(); i++ {
		if err := out.AppendRow(t.Row(i)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// evalCond applies one comparison with SQL NULL semantics: any comparison
// against a missing value is false, except explicit "= NULL" / "!= NULL"
// (accepted as IS NULL / IS NOT NULL).
func evalCond(v value.Value, c Cond) bool {
	if c.IsNull {
		if c.Op == "=" {
			return v.IsNA()
		}
		return !v.IsNA()
	}
	if v.IsNA() {
		return false
	}
	lit := c.Literal
	// Numeric coercion so FBG > 7 works against float columns with an int
	// literal.
	if vf, ok := v.AsFloat(); ok {
		if lf, ok2 := lit.AsFloat(); ok2 {
			switch c.Op {
			case "=":
				return vf == lf
			case "!=":
				return vf != lf
			case "<":
				return vf < lf
			case "<=":
				return vf <= lf
			case ">":
				return vf > lf
			case ">=":
				return vf >= lf
			}
			return false
		}
	}
	cmp := v.Compare(lit)
	if v.Kind() != lit.Kind() {
		// Cross-kind comparisons other than numeric are only meaningful
		// for equality.
		switch c.Op {
		case "=":
			return false
		case "!=":
			return true
		}
		return false
	}
	switch c.Op {
	case "=":
		return cmp == 0
	case "!=":
		return cmp != 0
	case "<":
		return cmp < 0
	case "<=":
		return cmp <= 0
	case ">":
		return cmp > 0
	case ">=":
		return cmp >= 0
	}
	return false
}
