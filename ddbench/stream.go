package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
)

// The request streams are generated here, from the benchmark's own seed
// and parameter pools, so that a change to the program (its load
// generator included) cannot change what is measured. Every request
// carries the specification the scalar oracle evaluates it against.

// Request classes, the keys of the per-language latency metrics.
const (
	classMDX  = "mdx"
	classSQL  = "sql"
	classFlat = "flat"
)

var classes = []string{classMDX, classSQL, classFlat}

// request is one query of a stream.
type request struct {
	Class string
	Path  string // HTTP path on a serve process
	Body  []byte // JSON body
	Text  string // the MDX or SQL text; empty for flatquery
	Spec  spec   // what the oracle computes for it
	Fig   bool   // one of the paper's figure queries
}

// key identifies a distinct query; responses to equal keys must agree.
func (r request) key() string { return string(r.Body) }

// shape names the generator branch a request came from, so that each
// branch's share and latency can be reported beside its class's.
func (r request) shape() string {
	sp := r.Spec
	switch r.Class {
	case classMDX:
		switch {
		case r.Fig:
			return "mdx-fig"
		case sp.Agg == "distinct":
			return "mdx-slice"
		}
		return "mdx-crosstab"
	case classSQL:
		switch sp.Agg {
		case "avg":
			return "sql-avg"
		case "distinct":
			return "sql-2key-distinct"
		}
		return "sql-where-count"
	}
	s := fmt.Sprintf("flat-%dkey", len(sp.Rows)+len(sp.Cols))
	if len(sp.Filters) > 0 {
		s += "-where"
	}
	return s + "-" + sp.Agg
}

// spec is a grouping query over the transformed table: group-by columns
// on two axes, an equality conjunction, and one aggregate.
type spec struct {
	Rows    []string
	Cols    []string
	Filters []eq
	Agg     string // count, avg or distinct
	Measure string // column aggregated by avg and distinct
}

type eq struct{ Col, Val string }

// attrDim maps each queryable attribute to its dimension in the Fig 3
// star schema; MDX addresses attributes as [Dim].[Attr], DG-SQL and
// flatquery by the same name as a column of the flat table.
var attrDim = map[string]string{
	"Gender":             "PersonalInformation",
	"AgeBand10":          "PersonalInformation",
	"AgeBand5":           "PersonalInformation",
	"AgeBandClinical":    "PersonalInformation",
	"FamilyHistDiabetes": "PersonalInformation",
	"DiabetesStatus":     "MedicalCondition",
	"HypertensionStatus": "MedicalCondition",
	"HTYearsBand":        "MedicalCondition",
	"FBGBand":            "FastingBloods",
	"ReflexStatus":       "LimbHealth",
	"ExerciseFrequency":  "ExerciseRoutine",
	"DBPBand":            "BloodPressure",
	"RRVarBand":          "ECG",
}

// Parameter pools. Row and column pools are disjoint so that a generated
// crosstab never puts one attribute on both axes.
var (
	mdxRowPool  = []string{"AgeBand10", "AgeBand5", "AgeBandClinical", "HypertensionStatus", "FBGBand", "RRVarBand", "DBPBand"}
	mdxColPool  = []string{"Gender", "DiabetesStatus", "ExerciseFrequency", "ReflexStatus", "FamilyHistDiabetes"}
	slicerPool  = []eq{{"DiabetesStatus", "Yes"}, {"DiabetesStatus", "No"}, {"Gender", "F"}, {"Gender", "M"}, {"HypertensionStatus", "Yes"}, {"FamilyHistDiabetes", "Yes"}}
	flatColPool = []string{"Gender", "DiabetesStatus", "FBGBand", "ExerciseFrequency", "HypertensionStatus", "ReflexStatus", "AgeBandClinical", "AgeBand10", "DBPBand", "RRVarBand"}
	filterPool  = []eq{{"DiabetesStatus", "Yes"}, {"DiabetesStatus", "No"}, {"Gender", "F"}, {"Gender", "M"}, {"HypertensionStatus", "Yes"}, {"HypertensionStatus", "No"}, {"ReflexStatus", "absent"}}
)

// mixWeights is the request mix: classes in proportion, out of 10. The
// paper reports no usage log, so these weights, and the branch weights
// in mdx, sql and flat, are the benchmark's assumption; each branch's
// share and median are reported per run (see setEndToEnd).
var mixWeights = []struct {
	class  string
	weight int
}{{classMDX, 4}, {classSQL, 4}, {classFlat, 2}}

// figSpecs are the paper's Fig 4, 5 and 6 queries, each at its coarse
// and (for 5 and 6) drilled-down granularity.
var figSpecs = map[string]spec{
	"fig4":      {Rows: []string{"AgeBandClinical"}, Cols: []string{"Gender"}, Filters: []eq{{"FamilyHistDiabetes", "Yes"}}, Agg: "distinct", Measure: "PatientID"},
	"fig5":      {Rows: []string{"AgeBand10"}, Cols: []string{"Gender"}, Filters: []eq{{"DiabetesStatus", "Yes"}}, Agg: "distinct", Measure: "PatientID"},
	"fig5-fine": {Rows: []string{"AgeBand5"}, Cols: []string{"Gender"}, Filters: []eq{{"DiabetesStatus", "Yes"}}, Agg: "distinct", Measure: "PatientID"},
	"fig6":      {Rows: []string{"AgeBand10"}, Cols: []string{"HTYearsBand"}, Filters: []eq{{"HypertensionStatus", "Yes"}}, Agg: "distinct", Measure: "PatientID"},
	"fig6-fine": {Rows: []string{"AgeBand5"}, Cols: []string{"HTYearsBand"}, Filters: []eq{{"HypertensionStatus", "Yes"}}, Agg: "distinct", Measure: "PatientID"},
}

var figNames = []string{"fig4", "fig5", "fig5-fine", "fig6", "fig6-fine"}

// stream is one client's seeded request sequence.
type stream struct {
	rng *rand.Rand
}

// newStream seeds client c's stream of a run with the given seed. The
// streams of different clients, and of the writer, never share a source.
func newStream(seed int64, client int) *stream {
	return &stream{rng: rand.New(rand.NewSource(seed*7919 + int64(client)*104729 + 1))}
}

func (s *stream) pick(pool []string) string { return pool[s.rng.Intn(len(pool))] }

// pickEq draws a filter or slicer on a column not in use.
func (s *stream) pickEq(pool []eq, used ...string) eq {
	var ok []eq
	for _, e := range pool {
		if !contains(used, e.Col) {
			ok = append(ok, e)
		}
	}
	return ok[s.rng.Intn(len(ok))]
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// next draws the stream's next request.
func (s *stream) next() request {
	n := s.rng.Intn(10)
	for _, w := range mixWeights {
		if n < w.weight {
			switch w.class {
			case classMDX:
				return s.mdx()
			case classSQL:
				return s.sql()
			default:
				return s.flat()
			}
		}
		n -= w.weight
	}
	panic("unreachable")
}

func (s *stream) mdx() request {
	switch n := s.rng.Intn(10); {
	case n < 2:
		return figRequest(figNames[s.rng.Intn(len(figNames))])
	case n < 6:
		return mdxRequest(spec{Rows: []string{s.pick(mdxRowPool)}, Cols: []string{s.pick(mdxColPool)}, Agg: "count"})
	default:
		row, col := s.pick(mdxRowPool), s.pick(mdxColPool)
		sl := s.pickEq(slicerPool, row, col)
		return mdxRequest(spec{Rows: []string{row}, Cols: []string{col}, Filters: []eq{sl}, Agg: "distinct", Measure: "PatientID"})
	}
}

// mdxText renders a spec as MDX: one attribute per axis, equality
// filters as slicer members, PatientCount for distinct patients and
// AvgFBG for mean glucose.
func mdxText(sp spec) string {
	member := func(attr string) string { return fmt.Sprintf("[%s].[%s]", attrDim[attr], attr) }
	var b strings.Builder
	fmt.Fprintf(&b, "SELECT {%s.MEMBERS} ON COLUMNS", member(sp.Cols[0]))
	if len(sp.Rows) > 0 {
		fmt.Fprintf(&b, ", NON EMPTY {%s.MEMBERS} ON ROWS", member(sp.Rows[0]))
	}
	b.WriteString(" FROM [MedicalMeasures]")
	var where []string
	for _, f := range sp.Filters {
		where = append(where, fmt.Sprintf("%s.[%s]", member(f.Col), f.Val))
	}
	switch sp.Agg {
	case "distinct":
		where = append(where, "[Measures].[PatientCount]")
	case "avg":
		where = append(where, "[Measures].[AvgFBG]")
	}
	if len(where) > 0 {
		fmt.Fprintf(&b, " WHERE (%s)", strings.Join(where, ", "))
	}
	return b.String()
}

// The request constructors marshal maps of strings and string slices,
// which cannot fail.

func mdxRequest(sp spec) request {
	text := mdxText(sp)
	body, _ := json.Marshal(map[string]string{"mdx": text})
	return request{Class: classMDX, Path: "/query", Body: body, Text: text, Spec: sp}
}

// figRequest is the named figure query as MDX.
func figRequest(name string) request {
	r := mdxRequest(figSpecs[name])
	r.Fig = true
	return r
}

func (s *stream) sql() request {
	switch s.rng.Intn(3) {
	case 0:
		g := s.pick(flatColPool)
		return sqlRequest(spec{Rows: []string{g}, Agg: "avg", Measure: "FBG"})
	case 1:
		g := s.pick(flatColPool)
		return sqlRequest(spec{Rows: []string{g}, Filters: []eq{s.pickEq(filterPool, g)}, Agg: "count"})
	default:
		g1 := s.pick(flatColPool)
		g2 := s.pick(flatColPool)
		for g2 == g1 {
			g2 = s.pick(flatColPool)
		}
		return sqlRequest(spec{Rows: []string{g1, g2}, Filters: []eq{s.pickEq(filterPool, g1, g2)}, Agg: "distinct", Measure: "PatientID"})
	}
}

// sqlText renders a spec as DG-SQL. Every statement counts rows; avg and
// distinct specs add their aggregate as a second output column.
func sqlText(sp spec) string {
	keys := strings.Join(sp.Rows, ", ")
	sel := keys + ", count(*) AS n"
	switch sp.Agg {
	case "avg":
		sel += fmt.Sprintf(", avg(%s) AS v", sp.Measure)
	case "distinct":
		sel += fmt.Sprintf(", distinct(%s) AS v", sp.Measure)
	}
	var where []string
	for _, f := range sp.Filters {
		where = append(where, fmt.Sprintf("%s = '%s'", f.Col, f.Val))
	}
	q := "SELECT " + sel + " FROM visits"
	if len(where) > 0 {
		q += " WHERE " + strings.Join(where, " AND ")
	}
	return q + " GROUP BY " + keys
}

func sqlRequest(sp spec) request {
	text := sqlText(sp)
	body, _ := json.Marshal(map[string]string{"sql": text})
	return request{Class: classSQL, Path: "/sql", Body: body, Text: text, Spec: sp}
}

func (s *stream) flat() request {
	sp := spec{Rows: []string{s.pick(flatColPool)}, Agg: "count"}
	if s.rng.Intn(2) == 0 {
		c := s.pick(flatColPool)
		for c == sp.Rows[0] {
			c = s.pick(flatColPool)
		}
		sp.Cols = []string{c}
	}
	if s.rng.Intn(2) == 0 {
		sp.Filters = []eq{s.pickEq(filterPool, append(sp.Rows, sp.Cols...)...)}
	}
	if s.rng.Intn(3) == 0 {
		sp.Agg, sp.Measure = "avg", "FBG"
	}
	return flatRequest(sp)
}

func flatRequest(sp spec) request {
	doc := map[string]any{"rows": sp.Rows, "agg": sp.Agg}
	if len(sp.Cols) > 0 {
		doc["cols"] = sp.Cols
	}
	if sp.Measure != "" {
		doc["measure"] = sp.Measure
	}
	if len(sp.Filters) > 0 {
		var fs []map[string]any
		for _, f := range sp.Filters {
			fs = append(fs, map[string]any{"column": f.Col, "values": []string{f.Val}})
		}
		doc["filters"] = fs
	}
	body, _ := json.Marshal(doc)
	return request{Class: classFlat, Path: "/flatquery", Body: body, Spec: sp}
}
