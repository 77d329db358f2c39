package cube

import (
	"context"
	"testing"

	"github.com/ddgms/ddgms/internal/storage"
	"github.com/ddgms/ddgms/internal/value"
)

func totalsCellSet(t *testing.T) *CellSet {
	t.Helper()
	e := NewEngine(testStar(t))
	cs, err := e.ExecuteCtx(context.Background(), Query{
		Rows:    []AttrRef{refBand10},
		Cols:    []AttrRef{refGender},
		Measure: MeasureRef{Agg: storage.CountAgg},
	})
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

func TestRowAndColTotals(t *testing.T) {
	cs := totalsCellSet(t)
	rt := cs.RowTotals()
	ct := cs.ColTotals()
	var fromRows, fromCols float64
	for _, v := range rt {
		fromRows += v
	}
	for _, v := range ct {
		fromCols += v
	}
	if fromRows != cs.Total() || fromCols != cs.Total() {
		t.Errorf("row sum %g, col sum %g, total %g", fromRows, fromCols, cs.Total())
	}
	if len(rt) != cs.Rows() || len(ct) != cs.Columns() {
		t.Errorf("total lengths %d/%d", len(rt), len(ct))
	}
}

func TestPercentOfTotal(t *testing.T) {
	cs := totalsCellSet(t)
	pct := cs.PercentOfTotal()
	var sum float64
	for i := 0; i < pct.Rows(); i++ {
		for j := 0; j < pct.Columns(); j++ {
			v := pct.Cell(i, j)
			if cs.Cell(i, j).IsNA() {
				if !v.IsNA() {
					t.Error("NA cell became numeric")
				}
				continue
			}
			sum += v.Float()
		}
	}
	if sum < 99.999 || sum > 100.001 {
		t.Errorf("percents sum to %g", sum)
	}
	// Original untouched.
	if _, ok := cs.Cell(0, 0).AsFloat(); !ok && !cs.Cell(0, 0).IsNA() {
		t.Error("original cells mutated")
	}
}

func TestPercentOfRow(t *testing.T) {
	cs := totalsCellSet(t)
	pr := cs.PercentOfRow()
	for i := 0; i < pr.Rows(); i++ {
		var sum float64
		any := false
		for j := 0; j < pr.Columns(); j++ {
			if v := pr.Cell(i, j); !v.IsNA() {
				sum += v.Float()
				any = true
			}
		}
		if any && (sum < 99.999 || sum > 100.001) {
			t.Errorf("row %d percents sum to %g", i, sum)
		}
	}
}

func TestPercentOfTotalZero(t *testing.T) {
	cs := &CellSet{
		RowHeaders: [][]value.Value{{value.Str("a")}},
		ColHeaders: [][]value.Value{{value.Str("x")}},
		Cells:      [][]value.Value{{value.Int(0)}},
	}
	pct := cs.PercentOfTotal()
	if !pct.Cell(0, 0).IsNA() {
		t.Errorf("zero-total percent = %v, want NA", pct.Cell(0, 0))
	}
}
