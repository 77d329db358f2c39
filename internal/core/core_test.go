package core

import (
	"context"
	"strings"
	"testing"

	"github.com/ddgms/ddgms/internal/cube"
	"github.com/ddgms/ddgms/internal/discri"
	"github.com/ddgms/ddgms/internal/etl"
	"github.com/ddgms/ddgms/internal/mining"
	"github.com/ddgms/ddgms/internal/star"
	"github.com/ddgms/ddgms/internal/storage"
	"github.com/ddgms/ddgms/internal/value"
)

// smallPlatform builds a DiScRi platform with a reduced cohort; shared
// across tests because the full ETL + load pipeline is the expensive part.
func smallPlatform(t *testing.T) *Platform {
	t.Helper()
	dcfg := discri.DefaultConfig()
	dcfg.Patients = 220
	p, err := NewDiScRiPlatform(Config{}, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

func TestPhaseOrderEnforced(t *testing.T) {
	p := New(Config{})
	if err := p.Transform(NewDiScRiPipeline()); err == nil {
		t.Error("Transform before Acquire must fail")
	}
	if err := p.BuildWarehouse(NewDiScRiBuilder()); err == nil {
		t.Error("BuildWarehouse before Transform must fail")
	}
	if _, err := p.QueryCtx(context.Background(), cube.Query{}); err == nil {
		t.Error("Query before warehouse must fail")
	}
	if _, err := p.QueryMDXCtx(context.Background(), "SELECT {[X].[Y].MEMBERS} ON COLUMNS FROM [MedicalMeasures]"); err == nil {
		t.Error("MDX before warehouse must fail")
	}
	if _, err := p.Mine(nil, "X"); err == nil {
		t.Error("Mine before transform must fail")
	}
	if err := p.RegisterMeasure("X", cube.MeasureRef{}); err == nil {
		t.Error("RegisterMeasure before warehouse must fail")
	}
	if err := p.AddFeedbackDimension("X", nil, nil); err == nil {
		t.Error("feedback before warehouse must fail")
	}
	if err := p.Close(); err != nil {
		t.Errorf("Close on empty platform: %v", err)
	}
}

func TestDiScRiPlatformEndToEnd(t *testing.T) {
	p := smallPlatform(t)
	// The warehouse has the eight Fig 3 dimensions.
	dims := p.Warehouse().Dimensions()
	if len(dims) != 8 {
		t.Errorf("dimensions = %d, want 8", len(dims))
	}
	names := map[string]bool{}
	for _, d := range dims {
		names[d.Name()] = true
	}
	for _, want := range []string{"PersonalInformation", "MedicalCondition", "FastingBloods",
		"LimbHealth", "ExerciseRoutine", "BloodPressure", "ECG", "Cardinality"} {
		if !names[want] {
			t.Errorf("missing dimension %q", want)
		}
	}
	// OLTP store retains the raw rows; facts match attendance count.
	if p.Store().Len() != p.Warehouse().Fact().Len() {
		t.Errorf("store %d rows vs %d facts", p.Store().Len(), p.Warehouse().Fact().Len())
	}
	// Describe mentions the Age hierarchy.
	if !strings.Contains(p.Warehouse().Describe(), "hierarchy Age") {
		t.Error("Describe missing hierarchy")
	}
}

func TestDiScRiOLAPQuery(t *testing.T) {
	p := smallPlatform(t)
	cs, err := p.QueryCtx(context.Background(), cube.Query{
		Rows:    []cube.AttrRef{RefAgeBand10},
		Cols:    []cube.AttrRef{RefGender},
		Slicers: []cube.Slicer{{Ref: RefDiabetes, Values: []value.Value{value.Str("Yes")}}},
		Measure: PatientCountMeasure(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if cs.Rows() == 0 || cs.Columns() != 2 {
		t.Fatalf("shape %dx%d", cs.Rows(), cs.Columns())
	}
	if cs.Total() == 0 {
		t.Error("no diabetic patients found")
	}
	// Age bands obey the declared member order (lexicographic would put
	// "<30" somewhere else).
	if cs.Rows() > 1 && cs.RowLabel(0) == ">=90" {
		t.Errorf("member order not applied: first row %q", cs.RowLabel(0))
	}
}

func TestDiScRiMDXQuery(t *testing.T) {
	p := smallPlatform(t)
	cs, err := p.QueryMDXCtx(context.Background(), `SELECT {[PersonalInformation].[Gender].MEMBERS} ON COLUMNS,
		NON EMPTY {[PersonalInformation].[AgeBand10].MEMBERS} ON ROWS
		FROM [MedicalMeasures]
		WHERE ([MedicalCondition].[DiabetesStatus].[Yes], [Measures].[PatientCount])`)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Total() == 0 {
		t.Error("MDX query returned nothing")
	}
}

func TestPatientRecordOLTPReport(t *testing.T) {
	p := smallPlatform(t)
	// Patient 1 exists in every generated cohort; the report returns all
	// of their attendances in insertion order.
	rows, err := p.PatientRecord("PatientID", value.Int(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no attendances for patient 1")
	}
	pidIdx, _ := p.Store().Schema().Lookup("PatientID")
	for _, r := range rows {
		if r[pidIdx].Int() != 1 {
			t.Errorf("foreign row in patient record: %v", r[pidIdx])
		}
	}
	// Second call reuses the index.
	rows2, err := p.PatientRecord("PatientID", value.Int(1))
	if err != nil || len(rows2) != len(rows) {
		t.Errorf("second lookup: %d rows, %v", len(rows2), err)
	}
	// Unknown patient: empty, not an error.
	none, err := p.PatientRecord("PatientID", value.Int(999999))
	if err != nil || len(none) != 0 {
		t.Errorf("unknown patient: %d rows, %v", len(none), err)
	}
	// Unknown column.
	if _, err := p.PatientRecord("Nope", value.Int(1)); err == nil {
		t.Error("unknown column must fail")
	}
	// Before acquisition.
	empty := New(Config{})
	if _, err := empty.PatientRecord("PatientID", value.Int(1)); err == nil {
		t.Error("record before acquire must fail")
	}
}

func TestDiScRiMine(t *testing.T) {
	p := smallPlatform(t)
	ds, err := p.Mine([]string{"FBGBand", "ReflexStatus", "Gender"}, "DiabetesStatus")
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() == 0 {
		t.Fatal("empty dataset")
	}
	cm, err := mining.CrossValidate(func() mining.Classifier { return mining.NewNaiveBayes() }, ds, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	// FBGBand almost determines the label; accuracy should be high.
	if cm.Accuracy() < 0.85 {
		t.Errorf("CV accuracy on warehouse features = %.3f", cm.Accuracy())
	}
}

func TestFBGTrendDimension(t *testing.T) {
	p := smallPlatform(t)
	cs, err := p.QueryCtx(context.Background(), cube.Query{
		Rows:    []cube.AttrRef{RefFBGTrend},
		Cols:    []cube.AttrRef{RefDiabetes},
		Measure: cube.MeasureRef{Agg: storage.CountAgg},
	})
	if err != nil {
		t.Fatal(err)
	}
	labels := map[string]bool{}
	for i := 0; i < cs.Rows(); i++ {
		labels[cs.RowLabel(i)] = true
	}
	if !labels["baseline"] {
		t.Errorf("missing baseline trend row: %v", labels)
	}
	// Revisiting patients exist, so at least one non-baseline trend label
	// must appear.
	if !labels["steady"] && !labels["increasing"] && !labels["decreasing"] {
		t.Errorf("no trend labels beyond baseline: %v", labels)
	}
	if cs.Total() == 0 {
		t.Error("empty trend crosstab")
	}
}

func TestDiScRiTrajectoryModel(t *testing.T) {
	p := smallPlatform(t)
	m, err := p.TrajectoryModel("PatientID", "VisitDate", "FBG", FBGScheme)
	if err != nil {
		t.Fatal(err)
	}
	// Diabetic is near-absorbing in the generator; its self-transition
	// should dominate.
	pDD, err := m.TransitionProb("Diabetic", "Diabetic")
	if err != nil {
		t.Fatal(err)
	}
	if pDD < 0.5 {
		t.Errorf("P(Diabetic|Diabetic) = %.2f, want majority", pDD)
	}
	if _, err := p.TrajectoryModel("Nope", "VisitDate", "FBG", FBGScheme); err == nil {
		t.Error("unknown column must fail")
	}
}

func TestDiScRiStability(t *testing.T) {
	p := smallPlatform(t)
	base := cube.Query{
		Rows:    []cube.AttrRef{RefGender},
		Measure: cube.MeasureRef{Agg: storage.CountAgg},
	}
	rep, err := p.ValidateStability(base, []cube.AttrRef{RefExercise, RefFBGBand}, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 2 {
		t.Fatalf("results = %d", len(rep.Results))
	}
	// The roll-up identity must hold for additive measures.
	if !rep.Stable() {
		t.Errorf("aggregates unstable: %+v", rep.Results)
	}
}

func TestFeedbackLoop(t *testing.T) {
	p := smallPlatform(t)
	// Clinician flags high-FBG attendances for review; the flag becomes a
	// dimension and is immediately queryable.
	err := p.AddFeedbackDimension("ClinicianReview",
		[]storage.Field{{Name: "Flag", Kind: value.StringKind}},
		func(s *star.Schema, i int) ([]value.Value, error) {
			fbg, err := s.Fact().MeasureValue(i, "FBG")
			if err != nil {
				return nil, err
			}
			if f, ok := fbg.AsFloat(); ok && f >= 7 {
				return []value.Value{value.Str("review")}, nil
			}
			return []value.Value{value.Str("routine")}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	cs, err := p.QueryCtx(context.Background(), cube.Query{
		Rows:    []cube.AttrRef{{Dim: "ClinicianReview", Attr: "Flag"}},
		Measure: cube.MeasureRef{Agg: storage.CountAgg},
	})
	if err != nil {
		t.Fatal(err)
	}
	if cs.Rows() != 2 {
		t.Errorf("feedback dimension rows = %d", cs.Rows())
	}
	// Findings accumulate in the knowledge base and promote.
	id, err := p.RecordFinding("diabetes", "male dominance in 70-75 diabetic subgroup", "olap")
	if err != nil {
		t.Fatal(err)
	}
	p.KB().Reinforce(id)
	p.KB().Reinforce(id)
	f, err := p.KB().Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if f.Status != "established" {
		t.Errorf("finding status = %s", f.Status)
	}
}

func TestDurablePlatformRecovers(t *testing.T) {
	dir := t.TempDir()
	dcfg := discri.DefaultConfig()
	dcfg.Patients = 40
	p, err := NewDiScRiPlatform(Config{DataDir: dir}, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	rows := p.Store().Len()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the raw data must come back from the WAL without
	// regenerating.
	p2 := New(Config{DataDir: dir})
	defer p2.Close()
	empty := storage.MustTable(discri.Schema())
	if err := p2.Acquire(empty); err != nil {
		t.Fatal(err)
	}
	if p2.Store().Len() != rows {
		t.Errorf("recovered %d rows, want %d", p2.Store().Len(), rows)
	}
	if err := p2.Transform(NewDiScRiPipeline()); err != nil {
		t.Fatal(err)
	}
	if err := p2.BuildWarehouse(NewDiScRiBuilder()); err != nil {
		t.Fatal(err)
	}
	if p2.Warehouse().Fact().Len() != rows {
		t.Errorf("rebuilt facts = %d, want %d", p2.Warehouse().Fact().Len(), rows)
	}
}

func TestTableISchemes(t *testing.T) {
	// Spot-check the published scheme boundaries.
	cases := []struct {
		scheme etl.Discretizer
		in     float64
		want   string
	}{
		{AgeScheme, 39.9, "<40"},
		{AgeScheme, 80, ">80"},
		{HTYearsScheme, 7, "5-10"},
		{HTYearsScheme, 25, ">20"},
		{FBGScheme, 5.4, "very good"},
		{FBGScheme, 6.5, "preDiabetic"},
		{DBPScheme, 95, "hypertension"},
		{DBPScheme, 70, "normal"},
	}
	for _, c := range cases {
		got, err := c.scheme.Apply(value.Float(c.in))
		if err != nil {
			t.Fatal(err)
		}
		if got.Str() != c.want {
			t.Errorf("%g -> %q, want %q", c.in, got.Str(), c.want)
		}
	}
}
