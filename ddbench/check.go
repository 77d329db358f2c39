package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strings"
)

// Response documents of the three query endpoints, as served.
type cellSetDoc struct {
	RowHeaders []string     `json:"row_headers"`
	ColHeaders []string     `json:"col_headers"`
	Cells      [][]*float64 `json:"cells"`
}

type tableDoc struct {
	Columns []string `json:"columns"`
	Rows    [][]any  `json:"rows"`
}

// mdxAnswer reads a cell set as an answer keyed rows-then-columns. A
// query without a rows axis has the single row "(all)", which is left
// out of the key. Null cells are absent groups.
func mdxAnswer(body []byte, hasRows bool) (answer, error) {
	var doc cellSetDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, fmt.Errorf("decoding cell set: %w", err)
	}
	if len(doc.Cells) != len(doc.RowHeaders) {
		return nil, fmt.Errorf("cell set has %d rows of cells for %d row headers", len(doc.Cells), len(doc.RowHeaders))
	}
	if err := distinctLabels(doc.RowHeaders); err != nil {
		return nil, err
	}
	if err := distinctLabels(doc.ColHeaders); err != nil {
		return nil, err
	}
	out := answer{}
	for i, row := range doc.Cells {
		if len(row) != len(doc.ColHeaders) {
			return nil, fmt.Errorf("cell set row %d has %d cells for %d columns", i, len(row), len(doc.ColHeaders))
		}
		for j, c := range row {
			if c == nil {
				continue
			}
			k := doc.ColHeaders[j]
			if hasRows {
				k = doc.RowHeaders[i] + keySep + k
			}
			out[k] = *c
		}
	}
	return out, nil
}

func distinctLabels(ls []string) error {
	seen := map[string]bool{}
	for _, l := range ls {
		if seen[l] {
			return fmt.Errorf("header %q appears twice", l)
		}
		seen[l] = true
	}
	return nil
}

// tableAnswers reads a grouped table whose first nkeys columns are the
// group key, returning one answer per remaining column, by column name.
func tableAnswers(body []byte, nkeys int) (map[string]answer, error) {
	var doc tableDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, fmt.Errorf("decoding table: %w", err)
	}
	if len(doc.Columns) <= nkeys {
		return nil, fmt.Errorf("table has %d columns, want more than %d", len(doc.Columns), nkeys)
	}
	out := map[string]answer{}
	for _, c := range doc.Columns[nkeys:] {
		out[c] = answer{}
	}
	labels := make([]string, nkeys)
	for i, row := range doc.Rows {
		if len(row) != len(doc.Columns) {
			return nil, fmt.Errorf("table row %d has %d values for %d columns", i, len(row), len(doc.Columns))
		}
		for j := 0; j < nkeys; j++ {
			switch v := row[j].(type) {
			case nil:
				labels[j] = naLabel
			case string:
				labels[j] = v
			default:
				labels[j] = fmt.Sprint(v)
			}
		}
		k := strings.Join(labels, keySep)
		for j, c := range doc.Columns[nkeys:] {
			a := out[c]
			if _, dup := a[k]; dup {
				return nil, fmt.Errorf("group %q appears twice", k)
			}
			switch v := row[nkeys+j].(type) {
			case nil:
				a[k] = math.NaN()
			case float64:
				a[k] = v
			default:
				return nil, fmt.Errorf("column %s holds %T, want a number", c, v)
			}
		}
	}
	return out, nil
}

// queryAnswer reads a response to r as the answer comparable with the
// oracle's answer to r.Spec (after the language's own NA rules).
func queryAnswer(r request, body []byte) (answer, error) {
	switch r.Class {
	case classMDX:
		return mdxAnswer(body, len(r.Spec.Rows) > 0)
	case classSQL:
		as, err := tableAnswers(body, len(r.Spec.Rows))
		if err != nil {
			return nil, err
		}
		col := "n"
		if r.Spec.Agg != "count" {
			col = "v"
		}
		a, ok := as[col]
		if !ok {
			return nil, fmt.Errorf("table has no column %q", col)
		}
		return a, nil
	default:
		as, err := tableAnswers(body, len(r.Spec.Rows)+len(r.Spec.Cols))
		if err != nil {
			return nil, err
		}
		a, ok := as["agg"]
		if !ok {
			return nil, fmt.Errorf("table has no agg column")
		}
		return a, nil
	}
}

// expected is the oracle's answer to r under its language's NA rules:
// the cube has no member for a missing key and renders empty cells as
// null; flatquery skips rows with a missing key; DG-SQL keeps them as a
// null group.
func (o *oracleTable) expected(r request) (answer, error) {
	want, err := o.eval(r.Spec)
	if err != nil {
		return nil, err
	}
	switch r.Class {
	case classMDX:
		return want.withoutNA().withoutMissing(), nil
	case classFlat:
		return want.withoutNA(), nil
	}
	return want, nil
}

// verify checks one response body against the oracle. DG-SQL responses
// also have their count(*) column checked.
func (o *oracleTable) verify(r request, body []byte) error {
	got, err := queryAnswer(r, body)
	if err != nil {
		return err
	}
	want, err := o.expected(r)
	if err != nil {
		return err
	}
	if d := diff(got, want); d != "" {
		return fmt.Errorf("%s %s: %s", r.Class, r.label(), d)
	}
	if r.Class == classSQL && r.Spec.Agg != "count" {
		as, err := tableAnswers(body, len(r.Spec.Rows))
		if err != nil {
			return err
		}
		wantN, err := o.rowCounts(r.Spec)
		if err != nil {
			return err
		}
		if d := diff(as["n"], wantN); d != "" {
			return fmt.Errorf("sql %s: count(*): %s", r.label(), d)
		}
	}
	return nil
}

// label is a short human-readable rendering of a request.
func (r request) label() string {
	if r.Text != "" {
		return r.Text
	}
	return string(r.Body)
}

// poster sends one query to a serving platform, over HTTP or in-process.
type poster func(path string, body []byte) ([]byte, error)

// httpPoster posts to a serve process.
func httpPoster(client *http.Client, base string) poster {
	return func(path string, body []byte) ([]byte, error) {
		status, b, err := postJSON(client, base+path, body)
		if err != nil {
			return nil, err
		}
		if status != http.StatusOK {
			return nil, fmt.Errorf("HTTP %d: %s", status, strings.TrimSpace(string(b)))
		}
		return b, nil
	}
}

// agreementGroups are the groupings the three languages are asked in the
// same form after a run: each grouping under each filter, counting
// attendances and distinct patients.
var agreementGroups = []string{"Gender", "FBGBand", "AgeBand10", "ExerciseFrequency"}

// agreementRequests renders one grouping as MDX, DG-SQL and flatquery.
func agreementRequests(g string, f eq, agg string) [3]request {
	base := spec{Filters: []eq{f}, Agg: agg}
	if agg == "distinct" {
		base.Measure = "PatientID"
	}
	m, s := base, base
	m.Cols, s.Rows = []string{g}, []string{g}
	return [3]request{mdxRequest(m), sqlRequest(s), flatRequest(s)}
}

// checkQueries is the fixed battery run after every workload: the
// figure queries and every agreement grouping.
func checkQueries() []request {
	var out []request
	for _, name := range figNames {
		out = append(out, figRequest(name))
	}
	for _, g := range agreementGroups {
		for _, f := range []eq{{"DiabetesStatus", "Yes"}, {"Gender", "F"}} {
			if f.Col == g {
				continue
			}
			for _, agg := range []string{"count", "distinct"} {
				rs := agreementRequests(g, f, agg)
				out = append(out, rs[:]...)
			}
		}
	}
	return out
}

// checkServed runs the check battery against one serving platform: every
// answer must equal the oracle's, the three languages must agree on each
// grouping, and the planted Fig 5 and Fig 6 shapes must hold. For a
// following node that took the writer's new patients (following set),
// only the MDX answers are checked: its DG-SQL and flatquery answers come
// from the flat table as of bootstrap (see CHANGES.md), and the figure
// shapes are a property of the paper cohort, which the new patients may
// tip.
func checkServed(post poster, o *oracleTable, following bool) []string {
	var errs []string
	answers := map[string]answer{}
	for _, r := range checkQueries() {
		if following && r.Class != classMDX {
			continue
		}
		body, err := post(r.Path, r.Body)
		if err != nil {
			errs = append(errs, fmt.Sprintf("%s %s: %v", r.Class, r.label(), err))
			continue
		}
		if err := o.verify(r, body); err != nil {
			errs = append(errs, err.Error())
		}
		a, err := queryAnswer(r, body)
		if err != nil {
			errs = append(errs, err.Error())
			continue
		}
		answers[r.key()] = a
	}
	for _, g := range agreementGroups {
		for _, f := range []eq{{"DiabetesStatus", "Yes"}, {"Gender", "F"}} {
			if f.Col == g {
				continue
			}
			for _, agg := range []string{"count", "distinct"} {
				rs := agreementRequests(g, f, agg)
				mdx, sql, flat := answers[rs[0].key()], answers[rs[1].key()], answers[rs[2].key()]
				if mdx == nil || sql == nil || flat == nil {
					continue
				}
				if d := diff(sql.withoutNA().withoutMissing(), mdx); d != "" {
					errs = append(errs, fmt.Sprintf("DG-SQL and MDX disagree on %s by %s where %s=%s: %s", agg, g, f.Col, f.Val, d))
				}
				if d := diff(flat.withoutMissing(), mdx); d != "" {
					errs = append(errs, fmt.Sprintf("flatquery and MDX disagree on %s by %s where %s=%s: %s", agg, g, f.Col, f.Val, d))
				}
			}
		}
	}
	if following {
		return errs
	}
	if err := fig5Shape(answers[figRequest("fig5-fine").key()]); err != nil {
		errs = append(errs, err.Error())
	}
	if err := fig6Shape(answers[figRequest("fig6-fine").key()]); err != nil {
		errs = append(errs, err.Error())
	}
	return errs
}

func at(a answer, row, col string) float64 { return a[row+keySep+col] }

// fig5Shape is the paper's reading of Fig 5 at 5-year bands: among
// diabetic patients, men outnumber women at 70-75, women outnumber men
// at 75-80, and diabetic women fall away past 80.
func fig5Shape(a answer) error {
	m7075, f7075 := at(a, "70-75", "M"), at(a, "70-75", "F")
	m7580, f7580 := at(a, "75-80", "M"), at(a, "75-80", "F")
	f8085 := at(a, "80-85", "F")
	if !(m7075 > f7075 && f7580 > m7580 && f8085 < f7580) {
		return fmt.Errorf("fig5 shape does not hold: 70-75 M=%g F=%g, 75-80 M=%g F=%g, 80-85 F=%g", m7075, f7075, m7580, f7580, f8085)
	}
	return nil
}

// fig6Shape is the paper's reading of Fig 6 at 5-year bands: in the
// 70-75 and 75-80 groups, hypertension diagnosed 5-10 years ago is rarer
// per year of bucket width than 2-5 or 10-20 years ago.
func fig6Shape(a answer) error {
	for _, band := range []string{"70-75", "75-80"} {
		dip := at(a, band, "5-10") / 5
		under, over := at(a, band, "2-5")/3, at(a, band, "10-20")/10
		if !(dip < under && dip < over) {
			return fmt.Errorf("fig6 shape does not hold in %s: per-year density 2-5y=%.2f 5-10y=%.2f 10-20y=%.2f", band, under, dip, over)
		}
	}
	return nil
}
