package dgsql

import (
	"bytes"
	"context"
	"testing"

	"github.com/ddgms/ddgms/internal/obs"
	"github.com/ddgms/ddgms/internal/storage"
	"github.com/ddgms/ddgms/internal/value"
)

func testDB(t *testing.T) *DB {
	t.Helper()
	tbl := storage.MustTable(storage.MustSchema(
		storage.Field{Name: "PatientID", Kind: value.IntKind},
		storage.Field{Name: "Gender", Kind: value.StringKind},
		storage.Field{Name: "FBG", Kind: value.FloatKind},
		storage.Field{Name: "Diabetes", Kind: value.BoolKind},
	))
	add := func(id int64, g string, fbg float64, dia bool) {
		row := []value.Value{value.Int(id), value.Str(g), value.Float(fbg), value.Bool(dia)}
		if fbg < 0 {
			row[2] = value.NA()
		}
		if err := tbl.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	add(1, "M", 7.2, true)
	add(2, "F", 5.1, false)
	add(3, "F", 7.9, true)
	add(4, "M", 5.4, false)
	add(5, "F", -1, false) // NA FBG
	db := NewDB()
	if err := db.Register("visits", tbl); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestSelectProjection(t *testing.T) {
	db := testDB(t)
	out, err := db.QueryCtx(context.Background(), "SELECT PatientID, Gender FROM visits")
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 5 || out.Schema().Len() != 2 {
		t.Errorf("shape %dx%d", out.Len(), out.Schema().Len())
	}
}

func TestSelectWhere(t *testing.T) {
	db := testDB(t)
	cases := []struct {
		src  string
		want int
	}{
		{"SELECT PatientID FROM visits WHERE FBG >= 7", 2},
		{"SELECT PatientID FROM visits WHERE FBG > 7 AND Gender = 'F'", 1},
		{"SELECT PatientID FROM visits WHERE Gender = 'M'", 2},
		{"SELECT PatientID FROM visits WHERE Gender != 'M'", 3},
		{"SELECT PatientID FROM visits WHERE Gender <> 'M'", 3},
		{"SELECT PatientID FROM visits WHERE Diabetes = true", 2},
		{"SELECT PatientID FROM visits WHERE FBG = NULL", 1},
		{"SELECT PatientID FROM visits WHERE FBG != NULL", 4},
		{"SELECT PatientID FROM visits WHERE FBG < 6", 2}, // NA excluded
		{"SELECT PatientID FROM visits WHERE PatientID <= 2", 2},
	}
	for _, c := range cases {
		out, err := db.QueryCtx(context.Background(), c.src)
		if err != nil {
			t.Fatalf("%s: %v", c.src, err)
		}
		if out.Len() != c.want {
			t.Errorf("%s -> %d rows, want %d", c.src, out.Len(), c.want)
		}
	}
}

func TestGroupByAggregates(t *testing.T) {
	db := testDB(t)
	out, err := db.QueryCtx(context.Background(), "SELECT Gender, count(*) AS n, avg(FBG) AS meanfbg FROM visits GROUP BY Gender ORDER BY Gender")
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 {
		t.Fatalf("groups = %d", out.Len())
	}
	// F: 3 rows, FBG 5.1 and 7.9 (NA excluded from avg).
	if out.MustValue(0, "Gender").Str() != "F" || out.MustValue(0, "n").Int() != 3 {
		t.Errorf("F group: %v, %v", out.MustValue(0, "Gender"), out.MustValue(0, "n"))
	}
	wantAvg := (5.1 + 7.9) / 2
	if got := out.MustValue(0, "meanfbg").Float(); got < wantAvg-1e-9 || got > wantAvg+1e-9 {
		t.Errorf("F avg = %g, want %g", got, wantAvg)
	}
}

func TestAggregateWithoutGroupBy(t *testing.T) {
	db := testDB(t)
	out, err := db.QueryCtx(context.Background(), "SELECT count(*) AS n, max(FBG) AS peak, distinct(Gender) AS genders FROM visits")
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 {
		t.Fatalf("rows = %d", out.Len())
	}
	if out.MustValue(0, "n").Int() != 5 {
		t.Errorf("n = %v", out.MustValue(0, "n"))
	}
	if out.MustValue(0, "peak").Float() != 7.9 {
		t.Errorf("peak = %v", out.MustValue(0, "peak"))
	}
	if out.MustValue(0, "genders").Int() != 2 {
		t.Errorf("genders = %v", out.MustValue(0, "genders"))
	}
}

func TestOrderByAndLimit(t *testing.T) {
	db := testDB(t)
	out, err := db.QueryCtx(context.Background(), "SELECT PatientID, FBG FROM visits WHERE FBG != NULL ORDER BY FBG DESC LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 {
		t.Fatalf("rows = %d", out.Len())
	}
	if out.MustValue(0, "FBG").Float() != 7.9 || out.MustValue(1, "FBG").Float() != 7.2 {
		t.Errorf("order: %v, %v", out.MustValue(0, "FBG"), out.MustValue(1, "FBG"))
	}
	// LIMIT larger than result.
	out, err = db.QueryCtx(context.Background(), "SELECT PatientID FROM visits LIMIT 100")
	if err != nil || out.Len() != 5 {
		t.Errorf("big limit: %d, %v", out.Len(), err)
	}
	// LIMIT 0.
	out, err = db.QueryCtx(context.Background(), "SELECT PatientID FROM visits LIMIT 0")
	if err != nil || out.Len() != 0 {
		t.Errorf("limit 0: %d, %v", out.Len(), err)
	}
}

func TestCountColumnSkipsNA(t *testing.T) {
	db := testDB(t)
	out, err := db.QueryCtx(context.Background(), "SELECT count(FBG) AS n FROM visits")
	if err != nil {
		t.Fatal(err)
	}
	if out.MustValue(0, "n").Int() != 4 {
		t.Errorf("count(FBG) = %v, want 4 (one NA)", out.MustValue(0, "n"))
	}
}

func TestErrors(t *testing.T) {
	db := testDB(t)
	cases := []string{
		"",
		"SELECT FROM visits",
		"SELECT PatientID",           // no FROM
		"SELECT PatientID FROM nope", // unknown table
		"SELECT Nope FROM visits",    // unknown column
		"SELECT PatientID FROM visits WHERE Nope = 1",               // unknown where column
		"SELECT PatientID FROM visits GROUP BY Nope",                // unknown group column
		"SELECT PatientID FROM visits WHERE FBG >",                  // missing literal
		"SELECT PatientID FROM visits WHERE FBG < NULL",             // NULL with <
		"SELECT sum(*) FROM visits",                                 // sum(*)
		"SELECT Gender, count(*) FROM visits",                       // bare column without group by
		"SELECT PatientID FROM visits LIMIT -1",                     // negative limit (lexes '-1' as number... must fail)
		"SELECT PatientID FROM visits ORDER BY Nope",                // unknown order column
		"SELECT PatientID FROM visits WHERE Gender = 'unterminated", // bad string
		"SELECT PatientID FROM visits extra",                        // trailing
	}
	for _, src := range cases {
		if _, err := db.QueryCtx(context.Background(), src); err == nil {
			t.Errorf("Query(%q) should fail", src)
		}
	}
}

func TestRegisterDuplicate(t *testing.T) {
	db := testDB(t)
	tbl := storage.MustTable(storage.MustSchema(storage.Field{Name: "X", Kind: value.IntKind}))
	if err := db.Register("VISITS", tbl); err == nil {
		t.Error("case-insensitive duplicate must fail")
	}
}

func TestCrossKindComparisons(t *testing.T) {
	db := testDB(t)
	// String literal against an int column: equality false, inequality true.
	out, err := db.QueryCtx(context.Background(), "SELECT PatientID FROM visits WHERE PatientID = 'x'")
	if err != nil || out.Len() != 0 {
		t.Errorf("cross-kind equality: %d, %v", out.Len(), err)
	}
	out, err = db.QueryCtx(context.Background(), "SELECT PatientID FROM visits WHERE PatientID != 'x'")
	if err != nil || out.Len() != 5 {
		t.Errorf("cross-kind inequality: %d, %v", out.Len(), err)
	}
	// Int literal against float column works numerically.
	out, err = db.QueryCtx(context.Background(), "SELECT PatientID FROM visits WHERE FBG > 7")
	if err != nil || out.Len() != 2 {
		t.Errorf("numeric coercion: %d, %v", out.Len(), err)
	}
}

// TestQuerySpans: a span in the context receives the DG-SQL stages, with
// the kernel's scan under dgsql.execute, and tracing does not change the
// answer.
func TestQuerySpans(t *testing.T) {
	db := testDB(t)
	const src = "SELECT Gender, count(*) AS n FROM visits WHERE FBG > 5 GROUP BY Gender ORDER BY Gender"
	plain, err := db.QueryCtx(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer(1).StartTrace("query")
	traced, err := db.QueryCtx(obs.ContextWithSpan(context.Background(), tr.Root()), src)
	if err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	root := tr.Doc().Root
	for _, name := range []string{"dgsql.parse", "dgsql.execute", "exec.scan"} {
		if _, ok := root.FindSpan(name); !ok {
			t.Errorf("span %q missing from trace", name)
		}
	}
	exe, _ := root.FindSpan("dgsql.execute")
	if _, ok := exe.FindSpan("exec.scan"); !ok {
		t.Error("exec.scan not nested under dgsql.execute")
	}
	var a, b bytes.Buffer
	if err := plain.WriteCSV(&a); err != nil {
		t.Fatal(err)
	}
	if err := traced.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("traced result differs:\n%s\nwant:\n%s", b.String(), a.String())
	}
}
