// Package report generates the strategic-level deliverable of the
// DD-DGMS: a screening-programme summary combining OLAP aggregates,
// trajectory projections, the Ewing/CAN assessment and established
// knowledge-base findings into one document. The paper distinguishes
// operational users (short-term outcomes) from strategic users
// (long-term planning); this report is what the second group reads.
package report

import (
	"context"
	"fmt"
	"io"

	"github.com/ddgms/ddgms/internal/core"
	"github.com/ddgms/ddgms/internal/cube"
	"github.com/ddgms/ddgms/internal/ewing"

	"github.com/ddgms/ddgms/internal/value"
	"github.com/ddgms/ddgms/internal/viz"
)

// Options selects report sections. The zero value renders everything.
type Options struct {
	SkipDemographics bool
	SkipConditions   bool
	SkipTrajectory   bool
	SkipCAN          bool
	SkipFindings     bool
}

// Write renders the programme report to w.
func Write(w io.Writer, p *core.Platform, opts Options) error {
	fmt.Fprintln(w, "=== DD-DGMS screening programme report ===")
	fmt.Fprintf(w, "attendances: %d, dimensions: %d\n",
		p.Warehouse().Fact().Len(), len(p.Warehouse().Dimensions()))

	if !opts.SkipDemographics {
		if err := demographics(w, p); err != nil {
			return fmt.Errorf("report: demographics: %w", err)
		}
	}
	if !opts.SkipConditions {
		if err := conditions(w, p); err != nil {
			return fmt.Errorf("report: conditions: %w", err)
		}
	}
	if !opts.SkipTrajectory {
		if err := trajectory(w, p); err != nil {
			return fmt.Errorf("report: trajectory: %w", err)
		}
	}
	if !opts.SkipCAN {
		if err := can(w, p); err != nil {
			return fmt.Errorf("report: CAN: %w", err)
		}
	}
	if !opts.SkipFindings {
		findings(w, p)
	}
	return nil
}

func demographics(w io.Writer, p *core.Platform) error {
	fmt.Fprintln(w, "\n--- cohort demographics ---")
	cs, err := p.QueryCtx(context.TODO(), cube.Query{
		Rows:    []cube.AttrRef{core.RefAgeBand10},
		Cols:    []cube.AttrRef{core.RefGender},
		Measure: core.PatientCountMeasure(),
	})
	if err != nil {
		return err
	}
	return viz.CrossTabWithTotals(w, "distinct patients by age band and gender (with margins):", cs)
}

func conditions(w io.Writer, p *core.Platform) error {
	fmt.Fprintln(w, "\n--- condition burden ---")
	cs, err := p.QueryCtx(context.TODO(), cube.Query{
		Rows:    []cube.AttrRef{core.RefDiabetes},
		Cols:    []cube.AttrRef{core.RefHTStatus},
		Measure: core.PatientCountMeasure(),
	})
	if err != nil {
		return err
	}
	if err := viz.CrossTab(w, "patients by diabetes × hypertension status:", cs); err != nil {
		return err
	}
	pct := cs.PercentOfTotal()
	if err := viz.CrossTab(w, "as percent of cohort:", roundCells(pct)); err != nil {
		return err
	}
	return nil
}

// roundCells renders percents with one decimal for stable report output.
func roundCells(cs *cube.CellSet) *cube.CellSet {
	out := *cs
	out.Cells = make([][]value.Value, len(cs.Cells))
	for i := range cs.Cells {
		out.Cells[i] = make([]value.Value, len(cs.Cells[i]))
		for j, c := range cs.Cells[i] {
			if f, ok := c.AsFloat(); ok {
				out.Cells[i][j] = value.Float(float64(int(f*10+0.5)) / 10)
			} else {
				out.Cells[i][j] = c
			}
		}
	}
	return &out
}

func trajectory(w io.Writer, p *core.Platform) error {
	fmt.Fprintln(w, "\n--- disease-course projection (fasting glucose states) ---")
	m, err := p.TrajectoryModel("PatientID", "VisitDate", "FBG", core.FBGScheme)
	if err != nil {
		return err
	}
	dist, err := m.Next("preDiabetic")
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "  next state from preDiabetic:")
	for _, sp := range dist {
		fmt.Fprintf(w, "    %-12s %.3f\n", sp.State, sp.P)
	}
	// Projected prevalence: start from the cohort's current FBG-state mix
	// and simulate five screening cycles under the status quo.
	initial, err := currentStateMix(p)
	if err != nil {
		return err
	}
	// A band can appear in the warehouse without ever appearing in a
	// multi-visit sequence; the chain does not know such states.
	known := make(map[string]bool)
	for _, s := range m.States() {
		known[s] = true
	}
	for s := range initial {
		if !known[s] {
			delete(initial, s)
		}
	}
	proj, err := m.Project(initial, 5)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "  projected state mix after 5 screening cycles (status quo):")
	for _, sp := range proj[len(proj)-1] {
		fmt.Fprintf(w, "    %-12s %.3f\n", sp.State, sp.P)
	}
	stat, err := m.Stationary(500)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "  long-run occupancy:")
	for _, sp := range stat {
		fmt.Fprintf(w, "    %-12s %.3f\n", sp.State, sp.P)
	}
	return nil
}

// currentStateMix reads the latest FBG band distribution from the
// warehouse as the projection's starting point.
func currentStateMix(p *core.Platform) (map[string]float64, error) {
	cs, err := p.QueryCtx(context.TODO(), cube.Query{
		Rows:    []cube.AttrRef{core.RefFBGBand},
		Measure: core.PatientCountMeasure(),
	})
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, cs.Rows())
	for i := 0; i < cs.Rows(); i++ {
		out[cs.RowLabel(i)] = cs.CellFloat(i, 0)
	}
	return out, nil
}

func can(w io.Writer, p *core.Platform) error {
	fmt.Fprintln(w, "\n--- cardiovascular autonomic neuropathy (Ewing battery) ---")
	sum, err := ewing.Summarise(p.Flat(), ewing.StandardBattery())
	if err != nil {
		return err
	}
	for _, r := range []ewing.Risk{ewing.RiskNormal, ewing.RiskEarly, ewing.RiskDefinite, ewing.RiskSevere, ewing.RiskUnknown} {
		fmt.Fprintf(w, "  %-10s %d\n", r, sum.ByRisk[r])
	}
	fmt.Fprintf(w, "  hand-grip test missing: %d of %d attendances\n", sum.MissingGrip, sum.Total)
	return nil
}

func findings(w io.Writer, p *core.Platform) {
	fmt.Fprintln(w, "\n--- established knowledge-base findings ---")
	est := p.KB().Established()
	if len(est) == 0 {
		fmt.Fprintln(w, "  (none yet — findings promote after repeated evidence)")
		return
	}
	for _, f := range est {
		fmt.Fprintf(w, "  [%s] %s: %s (evidence %d)\n", f.ID, f.Topic, f.Statement, f.Evidence)
	}
}

// Interventions derives a treatment-candidate list with warehouse-
// estimated exposures, ready for optimize.OptimizeRegimen — the bridge
// from reporting to decision optimisation.
func Interventions(p *core.Platform) (map[string]float64, error) {
	exposure := func(ref cube.AttrRef, val string) (float64, error) {
		cs, err := p.QueryCtx(context.TODO(), cube.Query{
			Rows:    []cube.AttrRef{ref},
			Slicers: []cube.Slicer{{Ref: ref, Values: []value.Value{value.Str(val)}}},
			Measure: core.PatientCountMeasure(),
		})
		if err != nil {
			return 0, err
		}
		return cs.Total(), nil
	}
	out := make(map[string]float64)
	for name, target := range map[string]struct {
		ref cube.AttrRef
		val string
	}{
		"preDiabetic":  {core.RefFBGBand, "preDiabetic"},
		"diabetic":     {core.RefFBGBand, "Diabetic"},
		"sedentary":    {core.RefExercise, "none"},
		"hypertensive": {core.RefHTStatus, "Yes"},
		"lowRRVar":     {core.RefRRVarBand, "low"},
	} {
		v, err := exposure(target.ref, target.val)
		if err != nil {
			return nil, err
		}
		out[name] = v
	}
	return out, nil
}
