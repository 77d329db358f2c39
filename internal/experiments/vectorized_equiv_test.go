package experiments

// Equivalence of the dictionary-coded parallel execution kernel and the
// legacy scalar path, checked over the queries the paper's figures are
// built from. The two paths share no grouping code beyond the aggregate
// state type, so agreement here is a strong check on the kernel's key
// packing, partitioning and merge logic against realistic clinical data
// (mixed kinds, NA coordinates, non-additive aggregates).

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"github.com/ddgms/ddgms/internal/core"
	"github.com/ddgms/ddgms/internal/cube"
	"github.com/ddgms/ddgms/internal/exec"
	"github.com/ddgms/ddgms/internal/storage"
	"github.com/ddgms/ddgms/internal/value"
)

// sameCellSet requires two cell sets to agree exactly: same axes, same
// headers in the same order, same cells (NA matching NA).
func sameCellSet(t *testing.T, name string, got, want *cube.CellSet) {
	t.Helper()
	if got.Rows() != want.Rows() || got.Columns() != want.Columns() {
		t.Fatalf("%s: shape %dx%d, want %dx%d", name, got.Rows(), got.Columns(), want.Rows(), want.Columns())
	}
	for i := range want.RowHeaders {
		for k := range want.RowHeaders[i] {
			if !got.RowHeaders[i][k].Equal(want.RowHeaders[i][k]) {
				t.Fatalf("%s: row header %d = %v, want %v", name, i, got.RowHeaders[i], want.RowHeaders[i])
			}
		}
	}
	for j := range want.ColHeaders {
		for k := range want.ColHeaders[j] {
			if !got.ColHeaders[j][k].Equal(want.ColHeaders[j][k]) {
				t.Fatalf("%s: col header %d = %v, want %v", name, j, got.ColHeaders[j], want.ColHeaders[j])
			}
		}
	}
	for i := 0; i < want.Rows(); i++ {
		for j := 0; j < want.Columns(); j++ {
			g, w := got.Cell(i, j), want.Cell(i, j)
			if g.IsNA() != w.IsNA() || (!w.IsNA() && !g.Equal(w)) {
				t.Fatalf("%s: cell (%d,%d) = %v, want %v", name, i, j, g, w)
			}
		}
	}
}

// TestVectorizedCubeMatchesPaperFigures runs every figure query of the
// paper — the Fig 4 cross-tab, the Fig 5 coarse query and its 5-year
// drill-down, and the Fig 6 hypertension query with its drill-down —
// through a vectorized engine and a legacy scalar engine over the same
// warehouse, and requires identical cell sets. The aggregate lattice is
// off on both so every execution actually scans.
func TestVectorizedCubeMatchesPaperFigures(t *testing.T) {
	p := fullPlatform(t)
	vec := cube.NewEngine(p.Warehouse(), cube.WithAggregateCache(false))
	legacy := cube.NewEngine(p.Warehouse(),
		cube.WithAggregateCache(false), cube.WithVectorized(false))

	queries := map[string]cube.Query{
		"fig4": Fig4Query(),
		"fig5": Fig5Query(),
		"fig6": Fig6Query(),
	}
	if fine, err := vec.DrillDown(Fig5Query(), core.RefAgeBand10); err == nil {
		queries["fig5-drilldown"] = fine
	} else {
		t.Fatal(err)
	}
	if fine, err := vec.DrillDown(Fig6Query(), core.RefAgeBand10); err == nil {
		queries["fig6-drilldown"] = fine
	} else {
		t.Fatal(err)
	}

	for name, q := range queries {
		got, err := vec.ExecuteCtx(context.Background(), q)
		if err != nil {
			t.Fatalf("%s vectorized: %v", name, err)
		}
		want, err := legacy.ExecuteCtx(context.Background(), q)
		if err != nil {
			t.Fatalf("%s legacy: %v", name, err)
		}
		sameCellSet(t, name, got, want)
	}
}

// sameTable requires two tables to agree row for row (same schema, same
// order).
func sameTable(t *testing.T, name string, got, want *storage.Table) {
	t.Helper()
	if !got.Schema().Equal(want.Schema()) {
		t.Fatalf("%s: schema mismatch", name)
	}
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d rows, want %d", name, got.Len(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		gr, wr := got.Row(i), want.Row(i)
		for j := range wr {
			if gr[j].IsNA() != wr[j].IsNA() || (!wr[j].IsNA() && !gr[j].Equal(wr[j])) {
				t.Fatalf("%s: row %d col %d = %v, want %v", name, i, j, gr[j], wr[j])
			}
		}
	}
}

// TestVectorizedGroupByMatchesTableIGroupings re-runs the Table I
// discretisation groupings — distribution of every banded clinical
// attribute, plus a multivariate grouping with every aggregate kind —
// through the coded kernel and the scalar path over the full flat
// attendance table.
func TestVectorizedGroupByMatchesTableIGroupings(t *testing.T) {
	flat := fullPlatform(t).Flat()

	for _, band := range []string{"AgeBandClinical", "AgeBand10", "HTYearsBand", "FBGBand", "DBPBand"} {
		aggs := []storage.AggSpec{{Kind: storage.CountAgg}}
		want, err := flat.GroupBy([]string{band}, aggs, exec.WithVectorized(false))
		if err != nil {
			t.Fatal(err)
		}
		got, err := flat.GroupBy([]string{band}, aggs)
		if err != nil {
			t.Fatal(err)
		}
		sameTable(t, band, got, want)
	}

	keys := []string{"AgeBand10", "Gender", "DiabetesStatus"}
	aggs := []storage.AggSpec{
		{Kind: storage.CountAgg},
		{Kind: storage.SumAgg, Column: "FBG"},
		{Kind: storage.AvgAgg, Column: "FBG"},
		{Kind: storage.MinAgg, Column: "FBG"},
		{Kind: storage.MaxAgg, Column: "FBG"},
		{Kind: storage.DistinctAgg, Column: "PatientID"},
	}
	want, err := flat.GroupBy(keys, aggs, exec.WithVectorized(false))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		got, err := flat.GroupBy(keys, aggs, exec.WithParallelism(workers))
		if err != nil {
			t.Fatal(err)
		}
		sameTable(t, fmt.Sprintf("multivariate/workers=%d", workers), got, want)
	}
}

// TestRandomizedGroupBySpecs throws random group-by specs (random key
// subsets, aggregate kinds and worker counts) at random tables with NA
// holes and compares the kernel against the scalar path.
func TestRandomizedGroupBySpecs(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	colNames := []string{"K1", "K2", "K3", "M1", "M2"}
	aggKinds := []storage.AggKind{
		storage.CountAgg, storage.SumAgg, storage.AvgAgg,
		storage.MinAgg, storage.MaxAgg, storage.DistinctAgg,
	}
	for trial := 0; trial < 25; trial++ {
		tbl := storage.MustTable(storage.MustSchema(
			storage.Field{Name: "K1", Kind: value.StringKind},
			storage.Field{Name: "K2", Kind: value.IntKind},
			storage.Field{Name: "K3", Kind: value.BoolKind},
			storage.Field{Name: "M1", Kind: value.FloatKind},
			storage.Field{Name: "M2", Kind: value.IntKind},
		))
		rows := 50 + rng.Intn(500)
		card := 2 + rng.Intn(12)
		for i := 0; i < rows; i++ {
			row := []value.Value{
				value.Str(fmt.Sprintf("s%d", rng.Intn(card))),
				value.Int(int64(rng.Intn(card))),
				value.Bool(rng.Intn(2) == 0),
				value.Float(rng.NormFloat64() * 10),
				value.Int(int64(rng.Intn(100))),
			}
			for j := range row {
				if rng.Intn(10) == 0 {
					row[j] = value.NA()
				}
			}
			if err := tbl.AppendRow(row); err != nil {
				t.Fatal(err)
			}
		}

		nkeys := 1 + rng.Intn(3)
		keys := make([]string, 0, nkeys)
		for _, k := range rng.Perm(3)[:nkeys] {
			keys = append(keys, colNames[k])
		}
		naggs := rng.Intn(4)
		aggs := make([]storage.AggSpec, 0, naggs)
		for a := 0; a < naggs; a++ {
			kind := aggKinds[rng.Intn(len(aggKinds))]
			col := colNames[3+rng.Intn(2)]
			aggs = append(aggs, storage.AggSpec{
				Kind: kind, Column: col, As: fmt.Sprintf("a%d", a),
			})
		}

		want, err := tbl.GroupBy(keys, aggs, exec.WithVectorized(false))
		if err != nil {
			t.Fatal(err)
		}
		got, err := tbl.GroupBy(keys, aggs, exec.WithParallelism(1+rng.Intn(6)))
		if err != nil {
			t.Fatal(err)
		}
		sameTable(t, fmt.Sprintf("trial %d keys=%v", trial, keys), got, want)
	}
}
