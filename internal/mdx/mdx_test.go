package mdx

import (
	"context"
	"strings"
	"testing"

	"github.com/ddgms/ddgms/internal/cube"
	"github.com/ddgms/ddgms/internal/star"
	"github.com/ddgms/ddgms/internal/storage"
	"github.com/ddgms/ddgms/internal/value"
)

func testEvaluator(t *testing.T) *Evaluator {
	t.Helper()
	flat := storage.MustTable(storage.MustSchema(
		storage.Field{Name: "Gender", Kind: value.StringKind},
		storage.Field{Name: "AgeBand10", Kind: value.StringKind},
		storage.Field{Name: "Diabetes", Kind: value.StringKind},
		storage.Field{Name: "PatientID", Kind: value.IntKind},
		storage.Field{Name: "FBG", Kind: value.FloatKind},
	))
	add := func(g, band, dia string, pid int64, fbg float64) {
		if err := flat.AppendRow([]value.Value{
			value.Str(g), value.Str(band), value.Str(dia), value.Int(pid), value.Float(fbg),
		}); err != nil {
			t.Fatal(err)
		}
	}
	add("M", "70-80", "Yes", 1, 7.2)
	add("M", "70-80", "Yes", 1, 7.8)
	add("F", "70-80", "Yes", 2, 7.5)
	add("F", "40-60", "No", 3, 5.1)
	add("M", "40-60", "No", 4, 5.4)

	s, err := star.NewBuilder("MedicalMeasures").
		Dimension("Personal",
			[]storage.Field{{Name: "Gender", Kind: value.StringKind}, {Name: "AgeBand10", Kind: value.StringKind}},
			[]string{"Gender", "AgeBand10"}).
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
	ev := NewEvaluator(cube.NewEngine(s), "MedicalMeasures")
	pid := cube.AttrRef{Dim: "Cardinality", Attr: "PatientID"}
	ev.RegisterMeasure("PatientCount", cube.MeasureRef{Agg: storage.DistinctAgg, Attr: &pid})
	ev.RegisterMeasure("AvgFBG", cube.MeasureRef{Agg: storage.AvgAgg, Column: "FBG"})
	ev.RegisterMeasure("Visits", cube.MeasureRef{Agg: storage.CountAgg})
	return ev
}

func TestParseBasics(t *testing.T) {
	q, err := Parse(`SELECT {[Personal].[Gender].MEMBERS} ON COLUMNS,
		{[Personal].[AgeBand10].MEMBERS} ON ROWS
		FROM [MedicalMeasures]
		WHERE ([Condition].[Diabetes].[Yes], [Measures].[PatientCount])`)
	if err != nil {
		t.Fatal(err)
	}
	if q.CubeRef != "MedicalMeasures" {
		t.Errorf("cube = %q", q.CubeRef)
	}
	if len(q.Where) != 2 {
		t.Errorf("where = %d members", len(q.Where))
	}
	if q.Rows == nil || q.Columns == nil {
		t.Fatal("missing axes")
	}
	if !q.Columns.Set.Items[0].Member.AllMembers {
		t.Error("MEMBERS flag lost")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"SELECT",
		"SELECT {[A].[B].MEMBERS} FROM [C]", // missing ON
		"SELECT {[A].[B].MEMBERS} ON SIDEWAYS FROM [C]",                              // bad axis
		"SELECT {[A].[B].MEMBERS} ON COLUMNS",                                        // missing FROM
		"SELECT {[A].[B].MEMBERS} ON COLUMNS FROM cube",                              // unbracketed cube
		"SELECT {[A].[B].MEMBERS} ON COLUMNS FROM [C] extra",                         // trailing input
		"SELECT {[A].[B} ON COLUMNS FROM [C]",                                        // unterminated bracket
		"SELECT {[A].[B].MEMBERS} ON COLUMNS, {[X].[Y].MEMBERS} ON COLUMNS FROM [C]", // duplicate axis
		"SELECT {[A].} ON COLUMNS FROM [C]",                                          // dangling dot
		"SELECT CROSSJOIN({[A].[B].MEMBERS}) ON COLUMNS FROM [C]",                    // crossjoin arity
		"SELECT {[A].[B].MEMBERS} ON ROWS FROM [C]",                                  // no COLUMNS axis
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestQueryFig4Style(t *testing.T) {
	// Family-history-style crosstab: age band × gender under a slicer.
	ev := testEvaluator(t)
	cs, err := ev.QueryCtx(context.Background(), `SELECT {[Personal].[Gender].MEMBERS} ON COLUMNS,
		{[Personal].[AgeBand10].MEMBERS} ON ROWS
		FROM [MedicalMeasures]
		WHERE ([Condition].[Diabetes].[Yes], [Measures].[PatientCount])`)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Rows() != 1 || cs.Columns() != 2 {
		t.Fatalf("shape %dx%d, want 1x2 (only 70-80 has diabetics)", cs.Rows(), cs.Columns())
	}
	if cs.RowLabel(0) != "70-80" {
		t.Errorf("row = %q", cs.RowLabel(0))
	}
	// F: patient 2; M: patient 1.
	var f, m int64
	for j := 0; j < cs.Columns(); j++ {
		switch cs.ColLabel(j) {
		case "F":
			f = cs.Cell(0, j).Int()
		case "M":
			m = cs.Cell(0, j).Int()
		}
	}
	if f != 1 || m != 1 {
		t.Errorf("patient counts F=%d M=%d", f, m)
	}
}

func TestQueryExplicitMemberList(t *testing.T) {
	ev := testEvaluator(t)
	cs, err := ev.QueryCtx(context.Background(), `SELECT {[Personal].[Gender].[M]} ON COLUMNS FROM [MedicalMeasures]`)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Columns() != 1 || cs.ColLabel(0) != "M" {
		t.Fatalf("columns = %v", cs.Columns())
	}
	// Default measure is fact count: 3 male visits.
	if cs.Cell(0, 0).Int() != 3 {
		t.Errorf("M count = %v", cs.Cell(0, 0))
	}
	// Multi-member list.
	cs, err = ev.QueryCtx(context.Background(), `SELECT {[Personal].[Gender].[M], [Personal].[Gender].[F]} ON COLUMNS FROM [MedicalMeasures]`)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Columns() != 2 {
		t.Errorf("columns = %d", cs.Columns())
	}
}

func TestQueryCrossJoin(t *testing.T) {
	ev := testEvaluator(t)
	cs, err := ev.QueryCtx(context.Background(), `SELECT CROSSJOIN({[Personal].[Gender].MEMBERS}, {[Condition].[Diabetes].MEMBERS}) ON COLUMNS
		FROM [MedicalMeasures] WHERE [Measures].[Visits]`)
	if err != nil {
		t.Fatal(err)
	}
	// Combinations present in data: (F,No),(F,Yes),(M,No),(M,Yes) = 4.
	if cs.Columns() != 4 {
		t.Fatalf("crossjoin columns = %d: %v", cs.Columns(), colLabels(cs))
	}
	if cs.Total() != 5 {
		t.Errorf("total visits = %g", cs.Total())
	}
}

func colLabels(cs *cube.CellSet) []string {
	out := make([]string, cs.Columns())
	for j := range out {
		out[j] = cs.ColLabel(j)
	}
	return out
}

func TestQueryMeasureOnAxis(t *testing.T) {
	ev := testEvaluator(t)
	cs, err := ev.QueryCtx(context.Background(), `SELECT {[Measures].[AvgFBG]} ON COLUMNS,
		{[Condition].[Diabetes].MEMBERS} ON ROWS FROM [MedicalMeasures]`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cs.Rows(); i++ {
		v := cs.Cell(i, 0)
		if cs.RowLabel(i) == "Yes" {
			want := (7.2 + 7.8 + 7.5) / 3
			if got := v.Float(); got < want-1e-9 || got > want+1e-9 {
				t.Errorf("avg FBG yes = %v, want %g", v, want)
			}
		}
	}
}

func TestQueryIntMemberValue(t *testing.T) {
	ev := testEvaluator(t)
	cs, err := ev.QueryCtx(context.Background(), `SELECT {[Cardinality].[PatientID].[1]} ON COLUMNS FROM [MedicalMeasures]`)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Cell(0, 0).Int() != 2 {
		t.Errorf("patient 1 visits = %v, want 2", cs.Cell(0, 0))
	}
}

func TestNonEmpty(t *testing.T) {
	ev := testEvaluator(t)
	// Without the diabetes slicer all bands appear; NON EMPTY prunes rows
	// that end up all-NA under a slicer.
	cs, err := ev.QueryCtx(context.Background(), `SELECT {[Personal].[Gender].[F]} ON COLUMNS,
		NON EMPTY {[Personal].[AgeBand10].MEMBERS} ON ROWS
		FROM [MedicalMeasures] WHERE [Condition].[Diabetes].[Yes]`)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Rows() != 1 || cs.RowLabel(0) != "70-80" {
		t.Errorf("non-empty rows = %d (%v)", cs.Rows(), cs.RowLabel(0))
	}
}

func TestEvalErrors(t *testing.T) {
	ev := testEvaluator(t)
	cases := []string{
		`SELECT {[Personal].[Gender].MEMBERS} ON COLUMNS FROM [WrongCube]`,
		`SELECT {[Nope].[X].MEMBERS} ON COLUMNS FROM [MedicalMeasures]`,
		`SELECT {[Personal].[Nope].MEMBERS} ON COLUMNS FROM [MedicalMeasures]`,
		`SELECT {[Personal].[Gender]} ON COLUMNS FROM [MedicalMeasures]`,                                   // level without MEMBERS
		`SELECT {[Measures].[Nope]} ON COLUMNS FROM [MedicalMeasures]`,                                     // unknown measure
		`SELECT {[Personal].[Gender].MEMBERS} ON COLUMNS FROM [MedicalMeasures] WHERE [Personal].[Gender]`, // valueless WHERE
		`SELECT {[Cardinality].[PatientID].[notanint]} ON COLUMNS FROM [MedicalMeasures]`,                  // bad coercion
		`SELECT {[Personal].[Gender].[M].[extra].[deep]} ON COLUMNS FROM [MedicalMeasures]`,                // path too long
	}
	for _, src := range cases {
		if _, err := ev.QueryCtx(context.Background(), src); err == nil {
			t.Errorf("Query(%q) should fail", src)
		}
	}
}

func TestCaseInsensitiveKeywords(t *testing.T) {
	ev := testEvaluator(t)
	if _, err := ev.QueryCtx(context.Background(), `select {[Personal].[Gender].members} on columns from [MedicalMeasures] where [Measures].[visits]`); err != nil {
		t.Errorf("lower-case keywords: %v", err)
	}
}

func TestMemberExprString(t *testing.T) {
	m := MemberExpr{Path: []string{"A", "B"}, AllMembers: true}
	if s := m.String(); s != "[A].[B].MEMBERS" {
		t.Errorf("String = %q", s)
	}
	if !strings.Contains(MemberExpr{Path: []string{"A"}}.String(), "[A]") {
		t.Error("plain path render")
	}
}
