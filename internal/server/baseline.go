// The /sql and /flatquery endpoints: the DG-SQL surface and the
// no-warehouse flat-scan baseline, served over HTTP under the same
// governance pipeline as /query. Exposing all three query languages
// lets a load generator drive a realistic endpoint mix — and lets
// operators compare cube vs baseline latency on a live instance
// instead of only in offline benchmarks.

package server

import (
	"context"
	"net/http"

	"github.com/ddgms/ddgms/internal/flatquery"
	"github.com/ddgms/ddgms/internal/storage"
	"github.com/ddgms/ddgms/internal/value"
)

// tableDoc is the JSON form of a grouped result table.
type tableDoc struct {
	Columns []string `json:"columns"`
	Rows    [][]any  `json:"rows"` // numbers, strings, or null for NA
	Agg     string   `json:"agg,omitempty"`
}

func tableToDoc(t *storage.Table) tableDoc {
	doc := tableDoc{Columns: t.Schema().Names()}
	doc.Rows = make([][]any, t.Len())
	for i := 0; i < t.Len(); i++ {
		row := t.Row(i)
		out := make([]any, len(row))
		for j, v := range row {
			switch {
			case v.IsNA():
				out[j] = nil
			default:
				if f, ok := v.AsFloat(); ok {
					out[j] = f
				} else {
					out[j] = v.String()
				}
			}
		}
		doc.Rows[i] = out
	}
	return doc
}

// sqlRequest is the POST /sql body.
type sqlRequest struct {
	SQL string `json:"sql"`
}

// handleSQL runs one DG-SQL query over the flat analysis table
// (registered as "visits", matching the ddgms sql subcommand) under
// the governance pipeline.
func (s *Server) handleSQL(w http.ResponseWriter, r *http.Request) {
	var req sqlRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if req.SQL == "" {
		s.writeError(w, http.StatusBadRequest, "missing sql field")
		return
	}
	s.runGoverned(w, r, "/sql", func(ctx context.Context) (any, error) {
		t, err := s.platform.QuerySQLCtx(ctx, req.SQL)
		if err != nil {
			return nil, err
		}
		return tableToDoc(t), nil
	})
}

// flatFilterDoc is one filter clause in a POST /flatquery body.
type flatFilterDoc struct {
	Column string   `json:"column"`
	Values []string `json:"values"`
}

// flatQueryRequest is the POST /flatquery body: group-by columns split
// over two axes (mirroring the cube API), filters, and one aggregate.
type flatQueryRequest struct {
	Rows    []string        `json:"rows"`
	Cols    []string        `json:"cols"`
	Filters []flatFilterDoc `json:"filters"`
	Agg     string          `json:"agg"`     // count|sum|avg|min|max|distinct; default count
	Measure string          `json:"measure"` // measure column; empty means count rows
}

// handleFlatQuery runs one flat-scan baseline query under the
// governance pipeline.
func (s *Server) handleFlatQuery(w http.ResponseWriter, r *http.Request) {
	var req flatQueryRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if len(req.Rows)+len(req.Cols) == 0 {
		s.writeError(w, http.StatusBadRequest, "need at least one rows or cols group-by column")
		return
	}
	agg := storage.CountAgg
	if req.Agg != "" {
		var err error
		if agg, err = storage.ParseAggKind(req.Agg); err != nil {
			s.writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	q := flatquery.Query{Rows: req.Rows, Cols: req.Cols, Agg: agg, Measure: req.Measure}
	for _, f := range req.Filters {
		vals := make([]value.Value, 0, 2*len(f.Values))
		for _, raw := range f.Values {
			// Filter values arrive as strings; the column may hold
			// typed values. Offer both the inferred-type parse and the
			// literal string to the allowed set — it is an OR, so the
			// extra candidate can only match, never exclude.
			parsed := value.Parse(raw)
			vals = append(vals, parsed)
			if lit := value.Str(raw); !parsed.Equal(lit) {
				vals = append(vals, lit)
			}
		}
		q.Filters = append(q.Filters, flatquery.Filter{Column: f.Column, Values: vals})
	}
	s.runGoverned(w, r, "/flatquery", func(ctx context.Context) (any, error) {
		res, err := s.platform.QueryFlatCtx(ctx, q)
		if err != nil {
			return nil, err
		}
		doc := tableToDoc(res.Grouped)
		doc.Agg = res.AggName
		return doc, nil
	})
}
