package flatquery

import (
	"bytes"
	"context"
	"testing"

	"github.com/ddgms/ddgms/internal/obs"
	"github.com/ddgms/ddgms/internal/storage"
	"github.com/ddgms/ddgms/internal/value"
)

func flatTable(t *testing.T) *storage.Table {
	t.Helper()
	tbl := storage.MustTable(storage.MustSchema(
		storage.Field{Name: "Gender", Kind: value.StringKind},
		storage.Field{Name: "Band", Kind: value.StringKind},
		storage.Field{Name: "Diabetes", Kind: value.StringKind},
		storage.Field{Name: "FBG", Kind: value.FloatKind},
	))
	add := func(g, b, d string, fbg float64) {
		row := []value.Value{value.Str(g), value.Str(b), value.Str(d), value.Float(fbg)}
		if g == "" {
			row[0] = value.NA()
		}
		if err := tbl.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	add("M", "70-80", "Yes", 7.2)
	add("M", "70-80", "Yes", 7.8)
	add("F", "70-80", "Yes", 7.5)
	add("F", "40-60", "No", 5.1)
	add("", "40-60", "No", 5.4) // NA gender dropped from gender groupings
	return tbl
}

func TestExecuteCount(t *testing.T) {
	r, err := ExecuteCtx(context.Background(), flatTable(t), Query{
		Rows: []string{"Band"},
		Cols: []string{"Gender"},
		Agg:  storage.CountAgg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := r.Cell([]value.Value{value.Str("70-80"), value.Str("M")}); !ok || v.Int() != 2 {
		t.Errorf("70-80/M = %v, %v", v, ok)
	}
	if v, ok := r.Cell([]value.Value{value.Str("40-60"), value.Str("F")}); !ok || v.Int() != 1 {
		t.Errorf("40-60/F = %v, %v", v, ok)
	}
	// NA-gender row excluded.
	if r.Total() != 4 {
		t.Errorf("total = %g, want 4", r.Total())
	}
}

func TestExecuteFilteredAvg(t *testing.T) {
	r, err := ExecuteCtx(context.Background(), flatTable(t), Query{
		Rows:    []string{"Gender"},
		Filters: []Filter{{Column: "Diabetes", Values: []value.Value{value.Str("Yes")}}},
		Agg:     storage.AvgAgg,
		Measure: "FBG",
	})
	if err != nil {
		t.Fatal(err)
	}
	v, ok := r.Cell([]value.Value{value.Str("M")})
	if !ok {
		t.Fatal("missing M cell")
	}
	want := (7.2 + 7.8) / 2
	if got := v.Float(); got != want {
		t.Errorf("avg = %g, want %g", got, want)
	}
	// Coordinates that were filtered out are absent.
	if _, ok := r.Cell([]value.Value{value.Str("X")}); ok {
		t.Error("phantom cell")
	}
	if _, ok := r.Cell([]value.Value{value.Str("M"), value.Str("extra")}); ok {
		t.Error("wrong-arity coordinate must miss")
	}
}

func TestExecuteErrors(t *testing.T) {
	tbl := flatTable(t)
	cases := []Query{
		{Rows: []string{"Nope"}, Agg: storage.CountAgg},
		{Rows: []string{"Gender"}, Filters: []Filter{{Column: "Nope", Values: []value.Value{value.Str("x")}}}, Agg: storage.CountAgg},
		{Rows: []string{"Gender"}, Filters: []Filter{{Column: "Diabetes"}}, Agg: storage.CountAgg},
		{Rows: []string{"Gender"}, Agg: storage.SumAgg}, // sum without measure
	}
	for i, q := range cases {
		if _, err := ExecuteCtx(context.Background(), tbl, q); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestMultiValueFilter(t *testing.T) {
	r, err := ExecuteCtx(context.Background(), flatTable(t), Query{
		Rows:    []string{"Diabetes"},
		Filters: []Filter{{Column: "Gender", Values: []value.Value{value.Str("M"), value.Str("F")}}},
		Agg:     storage.CountAgg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Total() != 4 {
		t.Errorf("total = %g", r.Total())
	}
}

// TestExecuteSpans: a span in the context receives flatquery.compile and
// flatquery.group, with the kernel's scan under the group stage, and
// tracing does not change the answer.
func TestExecuteSpans(t *testing.T) {
	tbl := flatTable(t)
	q := Query{
		Rows:    []string{"Band"},
		Cols:    []string{"Gender"},
		Filters: []Filter{{Column: "Diabetes", Values: []value.Value{value.Str("Yes")}}},
		Agg:     storage.AvgAgg,
		Measure: "FBG",
	}
	plain, err := ExecuteCtx(context.Background(), tbl, q)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer(1).StartTrace("query")
	traced, err := ExecuteCtx(obs.ContextWithSpan(context.Background(), tr.Root()), tbl, q)
	if err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	root := tr.Doc().Root
	for _, name := range []string{"flatquery.compile", "flatquery.group", "exec.scan"} {
		if _, ok := root.FindSpan(name); !ok {
			t.Errorf("span %q missing from trace", name)
		}
	}
	group, _ := root.FindSpan("flatquery.group")
	if _, ok := group.FindSpan("exec.scan"); !ok {
		t.Error("exec.scan not nested under flatquery.group")
	}
	var a, b bytes.Buffer
	if err := plain.Grouped.WriteCSV(&a); err != nil {
		t.Fatal(err)
	}
	if err := traced.Grouped.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("traced result differs:\n%s\nwant:\n%s", b.String(), a.String())
	}
}
