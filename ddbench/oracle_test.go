package main

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"github.com/ddgms/ddgms/internal/dgsql"
	"github.com/ddgms/ddgms/internal/mdx"
	"github.com/ddgms/ddgms/internal/storage"
	"github.com/ddgms/ddgms/internal/value"
)

// handTable is six attendances of four patients with known answers:
//
//	pid gender diabetes fbgband   fbg
//	1   F      Yes      high      6.0
//	1   F      Yes      Diabetic  7.5
//	2   M      No       very good 5.0
//	3   M      Yes      NA        NA
//	4   F      No       high      5.8
//	4   F      No       high      NA
func handTable(t *testing.T) *oracleTable {
	t.Helper()
	str := func(n string) storage.Field { return storage.Field{Name: n, Kind: value.StringKind} }
	tbl, err := storage.NewTable(storage.MustSchema(
		storage.Field{Name: "PatientID", Kind: value.IntKind}, str("Gender"), str("DiabetesStatus"), str("FBGBand"),
		storage.Field{Name: "FBG", Kind: value.FloatKind}))
	if err != nil {
		t.Fatal(err)
	}
	s, na := value.Str, value.NA()
	for _, row := range [][]value.Value{
		{value.Int(1), s("F"), s("Yes"), s("high"), value.Float(6.0)},
		{value.Int(1), s("F"), s("Yes"), s("Diabetic"), value.Float(7.5)},
		{value.Int(2), s("M"), s("No"), s("very good"), value.Float(5.0)},
		{value.Int(3), s("M"), s("Yes"), na, na},
		{value.Int(4), s("F"), s("No"), s("high"), value.Float(5.8)},
		{value.Int(4), s("F"), s("No"), s("high"), na},
	} {
		if err := tbl.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	o, err := newOracleTable(tbl, []string{"PatientID", "Gender", "DiabetesStatus", "FBGBand", "FBG"})
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func key(labels ...string) string { return strings.Join(labels, keySep) }

func TestOracleKnownCounts(t *testing.T) {
	o := handTable(t)
	for _, tc := range []struct {
		name string
		sp   spec
		want answer
	}{
		{"count by gender", spec{Rows: []string{"Gender"}, Agg: "count"}, answer{"F": 4, "M": 2}},
		{"count by gender where diabetic", spec{Rows: []string{"Gender"}, Filters: []eq{{"DiabetesStatus", "Yes"}}, Agg: "count"}, answer{"F": 2, "M": 1}},
		{"avg fbg by gender skips missing", spec{Rows: []string{"Gender"}, Agg: "avg", Measure: "FBG"}, answer{"F": (6.0 + 7.5 + 5.8) / 3, "M": 5.0}},
		{"distinct patients by gender", spec{Rows: []string{"Gender"}, Agg: "distinct", Measure: "PatientID"}, answer{"F": 2, "M": 2}},
		{"missing key is its own group", spec{Rows: []string{"FBGBand"}, Agg: "count"}, answer{"high": 3, "Diabetic": 1, "very good": 1, naLabel: 1}},
		{"avg over no values is missing", spec{Rows: []string{"FBGBand"}, Filters: []eq{{"Gender", "M"}}, Agg: "avg", Measure: "FBG"}, answer{"very good": 5.0, naLabel: math.NaN()}},
		{"two keys", spec{Rows: []string{"Gender"}, Cols: []string{"DiabetesStatus"}, Agg: "count"}, answer{key("F", "Yes"): 2, key("F", "No"): 2, key("M", "No"): 1, key("M", "Yes"): 1}},
	} {
		got, err := o.eval(tc.sp)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if d := diff(got, tc.want); d != "" {
			t.Errorf("%s: %s", tc.name, d)
		}
	}
}

func TestLanguageNARules(t *testing.T) {
	o := handTable(t)
	sp := spec{Rows: []string{"FBGBand"}, Filters: []eq{{"Gender", "M"}}, Agg: "avg", Measure: "FBG"}
	mdxWant, _ := o.expected(request{Class: classMDX, Spec: sp})
	if d := diff(mdxWant, answer{"very good": 5.0}); d != "" {
		t.Errorf("cube drops missing keys and empty cells: %s", d)
	}
	flatWant, _ := o.expected(request{Class: classFlat, Spec: sp})
	if d := diff(flatWant, answer{"very good": 5.0}); d != "" {
		t.Errorf("flatquery drops missing keys: %s", d)
	}
	sqlWant, _ := o.expected(request{Class: classSQL, Spec: sp})
	if d := diff(sqlWant, answer{"very good": 5.0, naLabel: math.NaN()}); d != "" {
		t.Errorf("DG-SQL keeps the missing group: %s", d)
	}
}

func TestVerifyResponses(t *testing.T) {
	o := handTable(t)
	sql := sqlRequest(spec{Rows: []string{"Gender"}, Agg: "avg", Measure: "FBG"})
	good := `{"columns":["Gender","n","v"],"rows":[["F",4,6.433333333333333],["M",2,5]]}`
	if err := o.verify(sql, []byte(good)); err != nil {
		t.Errorf("correct DG-SQL answer rejected: %v", err)
	}
	for _, bad := range []string{
		`{"columns":["Gender","n","v"],"rows":[["F",4,6.5],["M",2,5]]}`,               // wrong mean
		`{"columns":["Gender","n","v"],"rows":[["F",3,6.433333333333333],["M",2,5]]}`, // wrong count(*)
		`{"columns":["Gender","n","v"],"rows":[["F",4,6.433333333333333]]}`,           // missing group
	} {
		if err := o.verify(sql, []byte(bad)); err == nil {
			t.Errorf("wrong DG-SQL answer accepted: %s", bad)
		}
	}
	m := mdxRequest(spec{Rows: []string{"FBGBand"}, Cols: []string{"Gender"}, Agg: "distinct", Measure: "PatientID"})
	cs := `{"row_headers":["very good","high","Diabetic"],"col_headers":["F","M"],"cells":[[null,1],[2,null],[1,null]]}`
	if err := o.verify(m, []byte(cs)); err != nil {
		t.Errorf("correct cell set rejected: %v", err)
	}
	if err := o.verify(m, []byte(`{"row_headers":["high"],"col_headers":["F"],"cells":[[2]]}`)); err == nil {
		t.Error("cell set missing cells accepted")
	}
	f := flatRequest(spec{Rows: []string{"FBGBand"}, Agg: "count"})
	if err := o.verify(f, []byte(`{"columns":["FBGBand","agg"],"rows":[["Diabetic",1],["high",3],["very good",1]]}`)); err != nil {
		t.Errorf("correct flatquery answer rejected: %v", err)
	}
}

func TestDiffTolerance(t *testing.T) {
	if d := diff(answer{"a": 1 + 1e-12}, answer{"a": 1}); d != "" {
		t.Errorf("sum-order rounding flagged: %s", d)
	}
	if d := diff(answer{"a": 1.001}, answer{"a": 1}); d == "" {
		t.Error("a 0.1% error passed")
	}
	if d := diff(answer{"a": math.NaN()}, answer{"a": 0}); d == "" {
		t.Error("missing vs zero passed")
	}
}

func TestFigureShapes(t *testing.T) {
	fig5 := answer{key("70-75", "M"): 30, key("70-75", "F"): 20, key("75-80", "M"): 20, key("75-80", "F"): 30, key("80-85", "F"): 10}
	if err := fig5Shape(fig5); err != nil {
		t.Errorf("paper's Fig 5 shape rejected: %v", err)
	}
	fig5[key("80-85", "F")] = 40
	if fig5Shape(fig5) == nil {
		t.Error("Fig 5 without the drop past 80 accepted")
	}
	fig6 := answer{}
	for _, band := range []string{"70-75", "75-80"} {
		fig6[key(band, "2-5")], fig6[key(band, "5-10")], fig6[key(band, "10-20")] = 9, 5, 20
	}
	if err := fig6Shape(fig6); err != nil {
		t.Errorf("paper's Fig 6 shape rejected: %v", err)
	}
	fig6[key("75-80", "5-10")] = 15
	if fig6Shape(fig6) == nil {
		t.Error("Fig 6 without the 5-10 year dip accepted")
	}
}

func TestStreamsAreSeededAndParse(t *testing.T) {
	a, b, c := newStream(7, 0), newStream(7, 0), newStream(7, 1)
	differs := false
	for i := 0; i < 500; i++ {
		ra, rb, rc := a.next(), b.next(), c.next()
		if ra.key() != rb.key() {
			t.Fatalf("request %d differs between equal seeds", i)
		}
		if ra.key() != rc.key() {
			differs = true
		}
		switch ra.Class {
		case classMDX:
			if _, err := mdx.Parse(ra.Text); err != nil {
				t.Fatalf("generated MDX does not parse: %v\n%s", err, ra.Text)
			}
		case classSQL:
			if _, err := dgsql.Parse(ra.Text); err != nil {
				t.Fatalf("generated DG-SQL does not parse: %v\n%s", err, ra.Text)
			}
		default:
			var doc map[string]any
			if err := json.Unmarshal(ra.Body, &doc); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !differs {
		t.Error("two clients drew the same stream")
	}
}

// TestShapeShares checks that the generator's branches come out in the
// weights README.md states, and that each shape names its class.
func TestShapeShares(t *testing.T) {
	st := newStream(3, 0)
	byClass, byShape := map[string]int{}, map[string]int{}
	const n = 40000
	for i := 0; i < n; i++ {
		r := st.next()
		s := r.shape()
		if !strings.HasPrefix(s, r.Class+"-") {
			t.Fatalf("shape %s of a %s request", s, r.Class)
		}
		byClass[r.Class]++
		byShape[s]++
	}
	within := func(name string, got, want float64) {
		if math.Abs(got-want) > 0.02 {
			t.Errorf("%s: share %.3f, want %.3f", name, got, want)
		}
	}
	for _, w := range mixWeights {
		within(w.class, float64(byClass[w.class])/n, float64(w.weight)/10)
	}
	for shape, want := range map[string]float64{
		"mdx-fig": 0.2, "mdx-crosstab": 0.4, "mdx-slice": 0.4,
		"sql-avg": 1.0 / 3, "sql-where-count": 1.0 / 3, "sql-2key-distinct": 1.0 / 3,
	} {
		class, _, _ := strings.Cut(shape, "-")
		within(shape, float64(byShape[shape])/float64(byClass[class]), want)
	}
}
