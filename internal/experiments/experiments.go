// Package experiments regenerates every table and figure of the paper's
// evaluation (§V) against the synthetic DiScRi warehouse, and checks that
// the qualitative shapes the paper reports hold. cmd/figures prints them;
// the root benchmark suite times them; the tests assert the shapes.
package experiments

import (
	"context"
	"fmt"
	"io"

	"github.com/ddgms/ddgms/internal/core"
	"github.com/ddgms/ddgms/internal/cube"
	"github.com/ddgms/ddgms/internal/etl"
	"github.com/ddgms/ddgms/internal/star"
	"github.com/ddgms/ddgms/internal/storage"
	"github.com/ddgms/ddgms/internal/value"
	"github.com/ddgms/ddgms/internal/viz"
)

// TableI prints the clinical discretisation schemes of the paper's Table
// I, the resulting bin distributions over the cohort, and the ablation the
// section discusses: clinical schemes versus algorithmic (MDLP, ChiMerge,
// equal-width) discretisation, scored by residual class entropy against
// the diabetes label.
func TableI(w io.Writer, p *core.Platform) error {
	fmt.Fprintln(w, "TABLE I — clinical discretisation schemes")
	schemes := []struct {
		attr   string
		desc   string
		scheme *etl.ManualScheme
	}{
		{"Age", "Participant's age on test date", core.AgeScheme},
		{"DiagnosticHTYears", "Years since diagnosis of hypertension", core.HTYearsScheme},
		{"FBG", "Fasting blood glucose level", core.FBGScheme},
		{"LyingDBPAverage", "Diastolic blood pressure when lying down", core.DBPScheme},
	}
	flat := p.Flat()
	for _, s := range schemes {
		fmt.Fprintf(w, "\n%s — %s\n  bins: %v (cuts %v)\n", s.attr, s.desc, s.scheme.Bins(), s.scheme.Cuts)
		col, err := flat.Column(s.attr)
		if err != nil {
			return err
		}
		counts := make(map[string]int)
		for i := 0; i < col.Len(); i++ {
			b, err := s.scheme.Apply(col.Value(i))
			if err != nil {
				return err
			}
			if b.IsNA() {
				counts["(missing)"]++
				continue
			}
			counts[b.Str()]++
		}
		labels := append(s.scheme.Bins(), "(missing)")
		values := make([]float64, len(labels))
		for i, l := range labels {
			values[i] = float64(counts[l])
		}
		if err := viz.BarChart(w, "  distribution:", labels, values); err != nil {
			return err
		}
	}

	// Ablation: clinical vs algorithmic schemes on FBG against the
	// diabetes label.
	fmt.Fprintln(w, "\nClinical vs algorithmic discretisation of FBG (residual class entropy, lower is better):")
	fbgCol, err := flat.Column("FBG")
	if err != nil {
		return err
	}
	diaCol, err := flat.Column("DiabetesStatus")
	if err != nil {
		return err
	}
	var vals, labels []value.Value
	for i := 0; i < flat.Len(); i++ {
		vals = append(vals, fbgCol.Value(i))
		labels = append(labels, diaCol.Value(i))
	}
	report := func(name string, d etl.Discretizer, err error) error {
		if err != nil {
			return err
		}
		ent, err := etl.BinEntropy(d, vals, labels)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %-22s %d bins, entropy %.4f bits\n", name, len(d.Bins()), ent)
		return nil
	}
	if err := report("clinical (Table I)", core.FBGScheme, nil); err != nil {
		return err
	}
	mdlp, err := etl.FitMDLP(vals, labels)
	if err := report("MDLP (supervised)", mdlp, err); err != nil {
		return err
	}
	chi, err := etl.FitChiMerge(vals, labels, 3.84, 6)
	if err := report("ChiMerge (supervised)", chi, err); err != nil {
		return err
	}
	ew, err := etl.FitEqualWidth(vals, 4)
	if err := report("equal-width k=4", ew, err); err != nil {
		return err
	}
	return nil
}

// Fig1 prints the generic clinical-data-warehouse star schema of the
// paper's Fig 1: four dimensions around a Medical Measures fact.
func Fig1(w io.Writer) error {
	flat := storage.MustTable(storage.MustSchema(
		storage.Field{Name: "Person", Kind: value.StringKind},
		storage.Field{Name: "Condition", Kind: value.StringKind},
		storage.Field{Name: "Bloods", Kind: value.StringKind},
		storage.Field{Name: "Limb", Kind: value.StringKind},
		storage.Field{Name: "Measure", Kind: value.FloatKind},
	))
	if err := flat.AppendRow([]value.Value{
		value.Str("p"), value.Str("c"), value.Str("b"), value.Str("l"), value.Float(1),
	}); err != nil {
		return err
	}
	str := func(n string) storage.Field { return storage.Field{Name: n, Kind: value.StringKind} }
	s, err := star.NewBuilder("MedicalMeasures").
		Dimension("PersonalInformation", []storage.Field{str("Person")}, []string{"Person"}).
		Dimension("MedicalCondition", []storage.Field{str("Condition")}, []string{"Condition"}).
		Dimension("FastingBloods", []storage.Field{str("Bloods")}, []string{"Bloods"}).
		Dimension("LimbHealth", []storage.Field{str("Limb")}, []string{"Limb"}).
		Measure(storage.Field{Name: "Measure", Kind: value.FloatKind}, "Measure").
		Build(flat)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "FIG 1 — dimensional model for a Clinical Data Warehouse")
	fmt.Fprint(w, s.Describe())
	return nil
}

// Fig2 traces one pass of the DD-DGMS closed loop (the architecture of
// the paper's Fig 2) on the live platform, naming each component as it
// participates.
func Fig2(w io.Writer, p *core.Platform) error {
	fmt.Fprintln(w, "FIG 2 — DD-DGMS architecture, one closed-loop pass")
	fmt.Fprintf(w, "  DB (OLTP store):        %d raw attendance records\n", p.Store().Len())
	fmt.Fprintf(w, "  Transformation:         %d columns after discretisation/cardinality\n", p.Flat().Schema().Len())
	fmt.Fprintf(w, "  Data warehouse:         %d facts, %d dimensions\n",
		p.Warehouse().Fact().Len(), len(p.Warehouse().Dimensions()))
	cs, err := p.QueryCtx(context.TODO(), cube.Query{
		Rows:    []cube.AttrRef{core.RefDiabetes},
		Measure: core.PatientCountMeasure(),
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  Reporting (OLAP):       diabetes status × distinct patients = %g total\n", cs.Total())
	m, err := p.TrajectoryModel("PatientID", "VisitDate", "FBG", core.FBGScheme)
	if err != nil {
		return err
	}
	next, err := m.PredictNext("preDiabetic")
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  Prediction:             preDiabetic -> %s (most likely next state)\n", next)
	rep, err := p.ValidateStability(cube.Query{
		Rows:    []cube.AttrRef{core.RefGender},
		Measure: cube.MeasureRef{Agg: storage.CountAgg},
	}, []cube.AttrRef{core.RefExercise}, 1e-9)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  Decision optimisation:  aggregate stable under dimension ablation = %v\n", rep.Stable())
	id, err := p.RecordFinding("loop", "closed-loop smoke finding", "fig2")
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  Knowledge base:         finding %s recorded (%d total)\n", id, p.KB().Len())
	err = p.AddFeedbackDimension("Fig2Feedback",
		[]storage.Field{{Name: "Flag", Kind: value.StringKind}},
		func(s *star.Schema, i int) ([]value.Value, error) {
			return []value.Value{value.Str("seen")}, nil
		})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  Feedback:               dimension Fig2Feedback attached (%d dimensions now)\n",
		len(p.Warehouse().Dimensions()))
	return nil
}

// Fig3 prints the trial's dimensional model (the paper's Fig 3) and the
// cardinality evidence: attendances versus distinct patients.
func Fig3(w io.Writer, p *core.Platform) error {
	fmt.Fprintln(w, "FIG 3 — dimensional model used in the prototypical trial")
	fmt.Fprint(w, p.Warehouse().Describe())
	cs, err := p.QueryCtx(context.TODO(), cube.Query{
		Rows:    []cube.AttrRef{core.RefVisitNo},
		Measure: core.PatientCountMeasure(),
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Cardinality dimension: patients by visit number (why the fact table alone cannot distinguish patients):")
	return viz.CrossTab(w, "", cs)
}
