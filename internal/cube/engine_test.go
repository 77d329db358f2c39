package cube

import (
	"context"
	"testing"

	"github.com/ddgms/ddgms/internal/star"
	"github.com/ddgms/ddgms/internal/storage"
	"github.com/ddgms/ddgms/internal/value"
)

// testStar builds a small DiScRi-like warehouse:
//
//	Gender  AgeBand10  AgeBand5  Diabetes  PatientID  FBG
//	M       70-80      70-75     Yes       1          7.2
//	M       70-80      70-75     Yes       1          7.8   (visit 2)
//	F       70-80      75-80     Yes       2          7.5
//	F       40-60      40-45     No        3          5.1
//	M       40-60      45-50     No        4          5.4
//	F       70-80      75-80     Yes       5          8.0
//	M       70-80      75-80     NA        6          NA
func testStar(t *testing.T) *star.Schema {
	t.Helper()
	flat := storage.MustTable(storage.MustSchema(
		storage.Field{Name: "Gender", Kind: value.StringKind},
		storage.Field{Name: "AgeBand10", Kind: value.StringKind},
		storage.Field{Name: "AgeBand5", Kind: value.StringKind},
		storage.Field{Name: "Diabetes", Kind: value.StringKind},
		storage.Field{Name: "PatientID", Kind: value.IntKind},
		storage.Field{Name: "FBG", Kind: value.FloatKind},
	))
	add := func(g, b10, b5, dia string, pid int64, fbg float64) {
		row := []value.Value{
			value.Str(g), value.Str(b10), value.Str(b5), value.Str(dia),
			value.Int(pid), value.Float(fbg),
		}
		if dia == "" {
			row[3] = value.NA()
		}
		if fbg < 0 {
			row[5] = value.NA()
		}
		if err := flat.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	add("M", "70-80", "70-75", "Yes", 1, 7.2)
	add("M", "70-80", "70-75", "Yes", 1, 7.8)
	add("F", "70-80", "75-80", "Yes", 2, 7.5)
	add("F", "40-60", "40-45", "No", 3, 5.1)
	add("M", "40-60", "45-50", "No", 4, 5.4)
	add("F", "70-80", "75-80", "Yes", 5, 8.0)
	add("M", "70-80", "75-80", "", 6, -1)

	s, err := star.NewBuilder("MedicalMeasures").
		Dimension("Personal",
			[]storage.Field{{Name: "Gender", Kind: value.StringKind},
				{Name: "AgeBand10", Kind: value.StringKind},
				{Name: "AgeBand5", Kind: value.StringKind}},
			[]string{"Gender", "AgeBand10", "AgeBand5"},
			star.Hierarchy{Name: "Age", Levels: []string{"AgeBand10", "AgeBand5"}}).
		Dimension("Condition",
			[]storage.Field{{Name: "Diabetes", Kind: value.StringKind}},
			[]string{"Diabetes"}).
		Dimension("Cardinality",
			[]storage.Field{{Name: "PatientID", Kind: value.IntKind}},
			[]string{"PatientID"}).
		Measure(storage.Field{Name: "FBG", Kind: value.FloatKind}, "FBG").
		Build(flat)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

var (
	refGender = AttrRef{Dim: "Personal", Attr: "Gender"}
	refBand10 = AttrRef{Dim: "Personal", Attr: "AgeBand10"}
	refBand5  = AttrRef{Dim: "Personal", Attr: "AgeBand5"}
	refDia    = AttrRef{Dim: "Condition", Attr: "Diabetes"}
	refPID    = AttrRef{Dim: "Cardinality", Attr: "PatientID"}
)

func cellAt(t *testing.T, cs *CellSet, rowLabel, colLabel string) value.Value {
	t.Helper()
	for i := 0; i < cs.Rows(); i++ {
		if cs.RowLabel(i) != rowLabel {
			continue
		}
		for j := 0; j < cs.Columns(); j++ {
			if cs.ColLabel(j) == colLabel {
				return cs.Cell(i, j)
			}
		}
	}
	t.Fatalf("no cell (%q, %q); rows=%v cols=%v", rowLabel, colLabel, labels(cs, true), labels(cs, false))
	return value.NA()
}

func labels(cs *CellSet, rows bool) []string {
	var out []string
	if rows {
		for i := 0; i < cs.Rows(); i++ {
			out = append(out, cs.RowLabel(i))
		}
	} else {
		for j := 0; j < cs.Columns(); j++ {
			out = append(out, cs.ColLabel(j))
		}
	}
	return out
}

func TestCountByGender(t *testing.T) {
	e := NewEngine(testStar(t))
	cs, err := e.ExecuteCtx(context.Background(), Query{Rows: []AttrRef{refGender}, Measure: MeasureRef{Agg: storage.CountAgg}})
	if err != nil {
		t.Fatal(err)
	}
	if cs.Rows() != 2 || cs.Columns() != 1 {
		t.Fatalf("shape %dx%d", cs.Rows(), cs.Columns())
	}
	if v := cellAt(t, cs, "F", "(all)"); v.Int() != 3 {
		t.Errorf("F count = %v", v)
	}
	if v := cellAt(t, cs, "M", "(all)"); v.Int() != 4 {
		t.Errorf("M count = %v", v)
	}
}

func TestCrossTabWithSlicer(t *testing.T) {
	// The Fig 5 query: diabetic patients by age band × gender, counting
	// distinct patients.
	e := NewEngine(testStar(t))
	q := Query{
		Rows:    []AttrRef{refBand10},
		Cols:    []AttrRef{refGender},
		Slicers: []Slicer{{Ref: refDia, Values: []value.Value{value.Str("Yes")}}},
		Measure: MeasureRef{Agg: storage.DistinctAgg, Attr: &refPID},
	}
	cs, err := e.ExecuteCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	// Diabetic facts: M/70-80 ×2 (patient 1), F/70-80 ×2 (patients 2, 5).
	if v := cellAt(t, cs, "70-80", "M"); v.Int() != 1 {
		t.Errorf("70-80/M distinct patients = %v, want 1", v)
	}
	if v := cellAt(t, cs, "70-80", "F"); v.Int() != 2 {
		t.Errorf("70-80/F distinct patients = %v, want 2", v)
	}
	// No diabetic 40-60 facts: the row exists only if some diabetic fact has
	// that band — here none, so the row should be absent.
	for i := 0; i < cs.Rows(); i++ {
		if cs.RowLabel(i) == "40-60" {
			t.Error("40-60 row should be absent under the Yes slicer")
		}
	}
}

func TestAvgMeasure(t *testing.T) {
	e := NewEngine(testStar(t))
	cs, err := e.ExecuteCtx(context.Background(), Query{
		Rows:    []AttrRef{refDia},
		Measure: MeasureRef{Agg: storage.AvgAgg, Column: "FBG"},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := (7.2 + 7.8 + 7.5 + 8.0) / 4
	if v := cellAt(t, cs, "Yes", "(all)"); !approx(v.Float(), want) {
		t.Errorf("avg FBG yes = %v, want %g", v, want)
	}
	if v := cellAt(t, cs, "No", "(all)"); !approx(v.Float(), (5.1+5.4)/2) {
		t.Errorf("avg FBG no = %v", v)
	}
}

func approx(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}

func TestMinMaxSum(t *testing.T) {
	e := NewEngine(testStar(t))
	for _, tc := range []struct {
		agg  storage.AggKind
		want float64
	}{
		{storage.MinAgg, 7.2},
		{storage.MaxAgg, 8.0},
		{storage.SumAgg, 7.2 + 7.8 + 7.5 + 8.0},
	} {
		cs, err := e.ExecuteCtx(context.Background(), Query{
			Rows:    []AttrRef{refDia},
			Measure: MeasureRef{Agg: tc.agg, Column: "FBG"},
		})
		if err != nil {
			t.Fatal(err)
		}
		if v := cellAt(t, cs, "Yes", "(all)"); !approx(v.Float(), tc.want) {
			t.Errorf("%v = %v, want %g", tc.agg, v, tc.want)
		}
	}
}

func TestIncludeMissing(t *testing.T) {
	e := NewEngine(testStar(t))
	// Fact 7 has NA Diabetes: dropped by default, kept with IncludeMissing.
	q := Query{Rows: []AttrRef{refDia}, Measure: MeasureRef{Agg: storage.CountAgg}}
	cs, err := e.ExecuteCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	total := cs.Total()
	if total != 6 {
		t.Errorf("default total = %g, want 6", total)
	}
	q.IncludeMissing = true
	cs, err = e.ExecuteCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Total() != 7 {
		t.Errorf("include-missing total = %g, want 7", cs.Total())
	}
	foundNA := false
	for i := 0; i < cs.Rows(); i++ {
		if cs.RowLabel(i) == "NA" {
			foundNA = true
		}
	}
	if !foundNA {
		t.Error("NA coordinate missing with IncludeMissing")
	}
}

func TestMemberOrder(t *testing.T) {
	e := NewEngine(testStar(t))
	e.SetMemberOrder(refBand10, []value.Value{value.Str("70-80"), value.Str("40-60")})
	cs, err := e.ExecuteCtx(context.Background(), Query{Rows: []AttrRef{refBand10}, Measure: MeasureRef{Agg: storage.CountAgg}})
	if err != nil {
		t.Fatal(err)
	}
	if cs.RowLabel(0) != "70-80" || cs.RowLabel(1) != "40-60" {
		t.Errorf("member order ignored: %v", labels(cs, true))
	}
}

func TestQueryErrors(t *testing.T) {
	e := NewEngine(testStar(t))
	cases := []Query{
		{Rows: []AttrRef{{Dim: "Nope", Attr: "X"}}, Measure: MeasureRef{Agg: storage.CountAgg}},
		{Rows: []AttrRef{{Dim: "Personal", Attr: "Nope"}}, Measure: MeasureRef{Agg: storage.CountAgg}},
		{Rows: []AttrRef{refGender}, Measure: MeasureRef{Agg: storage.SumAgg}},                                     // sum needs column
		{Rows: []AttrRef{refGender}, Measure: MeasureRef{Agg: storage.SumAgg, Attr: &refPID}},                      // sum over attr
		{Rows: []AttrRef{refGender}, Measure: MeasureRef{Agg: storage.CountAgg, Column: "FBG", Attr: &refPID}},     // both
		{Rows: []AttrRef{refGender}, Measure: MeasureRef{Agg: storage.CountAgg, Column: "Nope"}},                   // bad column
		{Rows: []AttrRef{refGender}, Slicers: []Slicer{{Ref: refDia}}, Measure: MeasureRef{Agg: storage.CountAgg}}, // empty slicer
	}
	for i, q := range cases {
		if _, err := e.ExecuteCtx(context.Background(), q); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestBitmapOnOffAgree(t *testing.T) {
	s := testStar(t)
	on := NewEngine(s, WithBitmapIndex(true))
	off := NewEngine(s, WithBitmapIndex(false))
	q := Query{
		Rows:    []AttrRef{refBand10},
		Cols:    []AttrRef{refGender},
		Slicers: []Slicer{{Ref: refDia, Values: []value.Value{value.Str("Yes"), value.Str("No")}}},
		Measure: MeasureRef{Agg: storage.CountAgg},
	}
	a, err := on.ExecuteCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := off.ExecuteCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if a.Total() != b.Total() || a.Rows() != b.Rows() || a.Columns() != b.Columns() {
		t.Errorf("bitmap on/off disagree: %g/%g", a.Total(), b.Total())
	}
}

func TestPivot(t *testing.T) {
	e := NewEngine(testStar(t))
	cs, err := e.ExecuteCtx(context.Background(), Query{
		Rows:    []AttrRef{refBand10},
		Cols:    []AttrRef{refGender},
		Measure: MeasureRef{Agg: storage.CountAgg},
	})
	if err != nil {
		t.Fatal(err)
	}
	p := cs.Pivot()
	if p.Rows() != cs.Columns() || p.Columns() != cs.Rows() {
		t.Fatalf("pivot shape %dx%d from %dx%d", p.Rows(), p.Columns(), cs.Rows(), cs.Columns())
	}
	for i := 0; i < cs.Rows(); i++ {
		for j := 0; j < cs.Columns(); j++ {
			if !cs.Cell(i, j).Equal(p.Cell(j, i)) {
				t.Errorf("pivot cell (%d,%d) mismatch", i, j)
			}
		}
	}
}

func TestDrillDownRollUp(t *testing.T) {
	e := NewEngine(testStar(t))
	q := Query{
		Rows:    []AttrRef{refBand10},
		Cols:    []AttrRef{refGender},
		Slicers: []Slicer{{Ref: refDia, Values: []value.Value{value.Str("Yes")}}},
		Measure: MeasureRef{Agg: storage.CountAgg},
	}
	fine, err := e.DrillDown(q, refBand10)
	if err != nil {
		t.Fatal(err)
	}
	if fine.Rows[0] != refBand5 {
		t.Fatalf("drill-down row attr = %v", fine.Rows[0])
	}
	cs, err := e.ExecuteCtx(context.Background(), fine)
	if err != nil {
		t.Fatal(err)
	}
	// Diabetic facts by AgeBand5: 70-75/M = 2 visits, 75-80/F = 2 visits.
	if v := cellAt(t, cs, "70-75", "M"); v.Int() != 2 {
		t.Errorf("70-75/M = %v", v)
	}
	if v := cellAt(t, cs, "75-80", "F"); v.Int() != 2 {
		t.Errorf("75-80/F = %v", v)
	}
	// Roll back up.
	coarse, err := e.RollUp(fine, refBand5)
	if err != nil {
		t.Fatal(err)
	}
	if coarse.Rows[0] != refBand10 {
		t.Errorf("roll-up attr = %v", coarse.Rows[0])
	}
	// Errors.
	if _, err := e.DrillDown(q, refBand5); err == nil {
		t.Error("drill-down on attr not on axis must fail")
	}
	if _, err := e.DrillDown(fine, refBand5); err == nil {
		t.Error("drill-down past finest level must fail")
	}
	if _, err := e.RollUp(q, refBand10); err == nil {
		t.Error("roll-up past coarsest level must fail")
	}
	if _, err := e.DrillDown(q, AttrRef{Dim: "Nope", Attr: "X"}); err == nil {
		t.Error("unknown dimension must fail")
	}
}

func TestSliceDiceUnslice(t *testing.T) {
	e := NewEngine(testStar(t))
	base := Query{Rows: []AttrRef{refGender}, Measure: MeasureRef{Agg: storage.CountAgg}}
	sliced := Slice(base, refDia, value.Str("Yes"))
	if len(base.Slicers) != 0 {
		t.Error("Slice modified the original query")
	}
	cs, err := e.ExecuteCtx(context.Background(), sliced)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Total() != 4 {
		t.Errorf("sliced total = %g, want 4", cs.Total())
	}
	diced := Dice(sliced, Slicer{Ref: refBand10, Values: []value.Value{value.Str("70-80")}})
	cs, err = e.ExecuteCtx(context.Background(), diced)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Total() != 4 {
		t.Errorf("diced total = %g", cs.Total())
	}
	back := Unslice(diced, refDia)
	if len(back.Slicers) != 1 || back.Slicers[0].Ref != refBand10 {
		t.Errorf("unslice left %v", back.Slicers)
	}
}

func TestInvalidateCachesAfterFeedback(t *testing.T) {
	s := testStar(t)
	e := NewEngine(s)
	// Warm caches.
	if _, err := e.ExecuteCtx(context.Background(), Query{Rows: []AttrRef{refGender}, Measure: MeasureRef{Agg: storage.CountAgg}}); err != nil {
		t.Fatal(err)
	}
	err := s.AddFeedbackDimension("Flag",
		[]storage.Field{{Name: "Flag", Kind: value.StringKind}},
		func(sc *star.Schema, i int) ([]value.Value, error) {
			return []value.Value{value.Str("ok")}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	e.InvalidateCaches()
	cs, err := e.ExecuteCtx(context.Background(), Query{
		Rows:    []AttrRef{{Dim: "Flag", Attr: "Flag"}},
		Measure: MeasureRef{Agg: storage.CountAgg},
	})
	if err != nil {
		t.Fatal(err)
	}
	if cs.Total() != 7 {
		t.Errorf("feedback-dimension query total = %g", cs.Total())
	}
}
