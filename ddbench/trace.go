package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"github.com/ddgms/ddgms/internal/core"
	"github.com/ddgms/ddgms/internal/cube"
	"github.com/ddgms/ddgms/internal/dgsql"
	"github.com/ddgms/ddgms/internal/flatquery"
	"github.com/ddgms/ddgms/internal/govern"
	"github.com/ddgms/ddgms/internal/mdx"
	"github.com/ddgms/ddgms/internal/storage"
	"github.com/ddgms/ddgms/internal/value"
)

// The traced run. Its spans are recorded by the benchmark's own code,
// around its calls into each layer's public functions; nothing inside
// the program is instrumented for it. Counts come from diffing the
// program's /metrics exposition before and after the measured drive.

// span is one timed call. Spans of one request share its id.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 for a root
	Request string `json:"request"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"` // since the trace began
	End     int64  `json:"end_ns"`
}

// layerTrace collects the spans and per-layer metrics of a traced run.
type layerTrace struct {
	origin  time.Time
	spans   []span
	durs    map[string][]time.Duration // span name -> durations
	metrics map[string]metric
	extras  map[string]metric // reference figures, for the result file
}

func newLayerTrace() *layerTrace {
	return &layerTrace{origin: time.Now(), durs: map[string][]time.Duration{}, metrics: map[string]metric{}, extras: map[string]metric{}}
}

// timed runs f as a span named name under parent, and returns its id.
func (lt *layerTrace) timed(name, req string, parent int, f func(id int) error) (int, error) {
	id := len(lt.spans) + 1
	lt.spans = append(lt.spans, span{ID: id, Parent: parent, Request: req, Name: name})
	start := time.Now()
	err := f(id)
	end := time.Now()
	sp := &lt.spans[id-1]
	sp.Start, sp.End = int64(start.Sub(lt.origin)), int64(end.Sub(lt.origin))
	lt.durs[name] = append(lt.durs[name], end.Sub(start))
	return id, err
}

func (lt *layerTrace) set(name string, v float64, unit string) {
	lt.metrics[name] = metric{Value: v, Unit: unit}
}

func (lt *layerTrace) extra(name string, v float64, unit string) {
	lt.extras[name] = metric{Value: v, Unit: unit}
}

// medianUS sets name to the median duration of spans named span, in µs.
func (lt *layerTrace) medianUS(name, span string) {
	lt.set(name, us(quantile(lt.durs[span], 0.5)), "us")
}

// finish writes the spans file and moves the per-layer metrics into res.
func (lt *layerTrace) finish(e *env, res *result) error {
	dir := filepath.Join(e.work, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.spans.jsonl", res.Workload, res.Seed)))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, sp := range lt.spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	res.Metrics = lt.metrics
	for name, m := range lt.extras {
		res.extra(name, m.Value, m.Unit)
	}
	return nil
}

// serverLayers derives the server-side per-layer metrics from the
// /metrics difference over the measured drive.
// Ratios per request are over every query the server answered.
func serverLayers(lt *layerTrace, d delta) {
	var hsum, hcount float64
	for _, route := range []string{"/query", "/sql", "/flatquery"} {
		l := fmt.Sprintf(`route=%q`, route)
		hsum += d.sum("ddgms_http_request_seconds_sum", l)
		hcount += d.sum("ddgms_http_request_seconds_count", l)
	}
	reqs := hcount
	lt.set("server.handler_us", ratio(hsum, hcount)*1e6, "us")
	hit, miss := d.sum("ddgms_cube_lattice_total", `result="hit"`), d.sum("ddgms_cube_lattice_total", `result="miss"`)
	lt.set("cube.lattice_hit_ratio", ratio(hit, hit+miss), "ratio")
	lt.set("exec.rows_scanned_per_req", ratio(d.sum("ddgms_exec_rows_scanned_total"), reqs), "rows")
	lt.set("exec.kernel_calls_per_req", ratio(d.sum("ddgms_exec_kernel_invocations_total"), reqs), "count")
	hit, miss = d.sum("ddgms_exec_dict_cache_total", `result="hit"`), d.sum("ddgms_exec_dict_cache_total", `result="miss"`)
	lt.set("exec.dict_hit_ratio", ratio(hit, hit+miss), "ratio")
	lt.set("storage.column_bytes", d.after.sum("ddgms_storage_column_bytes"), "bytes")
	// The server's admission histogram records only requests that
	// queued; with at most nproc closed-loop clients and 2×GOMAXPROCS
	// slots none do, so these read 0 (govern.admit_us times the call).
	lt.extra("govern.queued_requests", d.sum("ddgms_govern_wait_seconds_count"), "count")
	lt.extra("govern.queued_wait_us", ratio(d.sum("ddgms_govern_wait_seconds_sum"), d.sum("ddgms_govern_admitted_total"))*1e6, "us")
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// replayLayers stands the workload's platform up in-process the way
// `ddgms serve -in` does, timing each set-up layer, then replays the
// measured request streams, clients interleaved, in three passes over
// the same requests: a warm-up pass (cut at half the run length, which
// fixes how many requests are replayed), a pass through the platform's
// query surfaces as the server calls them, and a pass through each
// layer's public functions with spans. The second pass pairs with the
// HTTP latencies (server overhead); the last two give the tracing
// overhead.
func replayLayers(e *env, lt *layerTrace, cf cohortFiles, logs []*clientLog) error {
	ctx := context.Background()
	p, err := setupLayers(lt, cf)
	if err != nil {
		return err
	}
	defer p.Close()

	ev := mdx.NewEvaluator(p.Engine(), "MedicalMeasures")
	ev.RegisterMeasure("Attendances", cube.MeasureRef{Agg: storage.CountAgg})
	ev.RegisterMeasure("PatientCount", core.PatientCountMeasure())
	ev.RegisterMeasure("AvgFBG", cube.MeasureRef{Agg: storage.AvgAgg, Column: "FBG"})
	// The admission controller `ddgms serve` stands in front of every
	// query by default: 2×GOMAXPROCS slots, a 64-deep queue, 1s wait.
	adm := govern.NewAdmission(2*runtime.GOMAXPROCS(0), 64, time.Second)

	type item struct {
		req    request
		client int
		http   time.Duration
	}
	var items []item
	streams := make([]*stream, len(logs))
	for c := range streams {
		streams[c] = newStream(e.seed, c)
	}
	budget := time.Now().Add(e.seconds / 2)
	for i := 0; time.Now().Before(budget); i++ {
		progressed := false
		for c, st := range streams {
			if i >= len(logs[c].seq) {
				continue
			}
			progressed = true
			r := st.next()
			if _, err := platformCall(ctx, p, r); err != nil {
				return err
			}
			items = append(items, item{req: r, client: c, http: logs[c].seq[i]})
		}
		if !progressed {
			break
		}
	}
	// Each request runs untraced and traced back to back, in alternating
	// order, so that drift in the host's speed falls on both alike.
	var overhead []time.Duration
	var untraced, traced time.Duration
	for i, it := range items {
		var du, dt time.Duration
		var err error
		runUntraced := func() { du, err = platformCall(ctx, p, it.req) }
		runTraced := func() { dt, err = tracedCall(ctx, lt, p, ev, adm, it.req, fmt.Sprintf("c%d-%d", it.client, i)) }
		first, second := runUntraced, runTraced
		if i%2 == 1 {
			first, second = runTraced, runUntraced
		}
		if first(); err != nil {
			return err
		}
		if second(); err != nil {
			return err
		}
		overhead = append(overhead, it.http-du)
		untraced += du
		traced += dt
	}
	lt.set("server.overhead_us", us(quantile(overhead, 0.5)), "us")
	lt.set("bench.trace_overhead_pct", 100*(float64(traced)/float64(untraced)-1), "%")
	lt.set("bench.replayed_requests", float64(len(items)), "count")
	lt.medianUS("govern.admit_us", "govern.admit")
	for _, name := range []string{"mdx.parse", "mdx.execute", "cube.execute", "dgsql.register", "dgsql.parse", "dgsql.execute", "flatquery.execute", "storage.groupby"} {
		lt.medianUS(name+"_us", name)
	}
	return nil
}

// setupLayers builds the platform from the cohort's transformed table
// step by step, timing each layer: the table read, the OLTP load, the
// store snapshot, the star build and the cube's lazy set-up (its first,
// cold, execution of the figure queries). The DiScRi ETL pipeline is
// timed over the raw cohort, as a replica's bootstrap runs it.
func setupLayers(lt *layerTrace, cf cohortFiles) (*core.Platform, error) {
	raw, err := readTable(cf.RawPath)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if _, err := core.NewDiScRiPipeline().Run(raw); err != nil {
		return nil, err
	}
	lt.set("etl.transform_s", time.Since(t0).Seconds(), "s")
	raw = nil
	runtime.GC()
	debug.FreeOSMemory()

	t0 = time.Now()
	flat, err := readTable(cf.FlatPath)
	if err != nil {
		return nil, err
	}
	lt.set("storage.read_s", time.Since(t0).Seconds(), "s")
	p := core.New(core.Config{})
	t0 = time.Now()
	if err := p.Acquire(flat); err != nil {
		return nil, err
	}
	lt.set("oltp.load_s", time.Since(t0).Seconds(), "s")
	t0 = time.Now()
	if err := p.Transform(core.NewPassthroughPipeline()); err != nil {
		p.Close()
		return nil, err
	}
	lt.set("oltp.snapshot_s", time.Since(t0).Seconds(), "s")
	t0 = time.Now()
	if err := p.BuildWarehouse(core.NewDiScRiBuilder()); err != nil {
		p.Close()
		return nil, err
	}
	lt.set("star.build_s", time.Since(t0).Seconds(), "s")
	t0 = time.Now()
	if err := core.FinishDiScRiSetup(p); err != nil {
		p.Close()
		return nil, err
	}
	for _, name := range figNames {
		if _, err := p.QueryCtx(context.Background(), cubeQuery(figSpecs[name])); err != nil {
			p.Close()
			return nil, err
		}
	}
	lt.set("cube.setup_s", time.Since(t0).Seconds(), "s")
	return p, nil
}

// platformCall answers r through the platform surface the server calls
// for its endpoint, and returns the time taken.
func platformCall(ctx context.Context, p *core.Platform, r request) (time.Duration, error) {
	t0 := time.Now()
	var err error
	switch r.Class {
	case classMDX:
		_, err = p.QueryMDXCtx(ctx, r.Text)
	case classSQL:
		_, err = p.QuerySQLCtx(ctx, r.Text)
	default:
		_, err = p.QueryFlatCtx(ctx, flatQuery(r.Spec))
	}
	d := time.Since(t0)
	if err != nil {
		return 0, fmt.Errorf("in-process %s %s: %w", r.Class, r.label(), err)
	}
	return d, nil
}

// tracedCall answers r through the layers' own entry points, one span
// each, under a "query" span whose duration is comparable with the
// untraced platform call. The request first passes admission, as in the
// server. Figure queries also run through the cube directly, and DG-SQL
// groupings through the storage group-by, as sibling spans outside
// "query".
func tracedCall(ctx context.Context, lt *layerTrace, p *core.Platform, ev *mdx.Evaluator, adm *govern.Admission, r request, req string) (time.Duration, error) {
	var queryDur time.Duration
	_, err := lt.timed("request", req, 0, func(root int) error {
		var release func()
		if _, err := lt.timed("govern.admit", req, root, func(int) (err error) { release, err = adm.Acquire(ctx); return }); err != nil {
			return err
		}
		defer release()
		qid, err := lt.timed("query", req, root, func(q int) error {
			switch r.Class {
			case classMDX:
				var ast *mdx.QueryExpr
				if _, err := lt.timed("mdx.parse", req, q, func(int) (err error) { ast, err = mdx.Parse(r.Text); return }); err != nil {
					return err
				}
				_, err := lt.timed("mdx.execute", req, q, func(int) error { _, err := ev.ExecuteCtx(ctx, ast); return err })
				return err
			case classSQL:
				var db *dgsql.DB
				if _, err := lt.timed("dgsql.register", req, q, func(int) error {
					db = dgsql.NewDB()
					return db.Register(core.FlatTableName, p.Flat())
				}); err != nil {
					return err
				}
				var st *dgsql.Stmt
				if _, err := lt.timed("dgsql.parse", req, q, func(int) (err error) { st, err = dgsql.Parse(r.Text); return }); err != nil {
					return err
				}
				_, err := lt.timed("dgsql.execute", req, q, func(int) error { _, err := db.ExecuteCtx(ctx, st); return err })
				return err
			default:
				_, err := lt.timed("flatquery.execute", req, q, func(int) error {
					_, err := flatquery.ExecuteCtx(ctx, p.Flat(), flatQuery(r.Spec))
					return err
				})
				return err
			}
		})
		if err != nil {
			return err
		}
		sp := lt.spans[qid-1]
		queryDur = time.Duration(sp.End - sp.Start)
		switch {
		case r.Fig:
			_, err = lt.timed("cube.execute", req, root, func(int) error { _, err := p.QueryCtx(ctx, cubeQuery(r.Spec)); return err })
		case r.Class == classSQL:
			_, err = lt.timed("storage.groupby", req, root, func(int) error { return groupBy(p.Flat(), r.Spec) })
		}
		return err
	})
	if err != nil {
		return 0, fmt.Errorf("traced %s %s: %w", r.Class, r.label(), err)
	}
	return queryDur, nil
}

// cubeQuery is a spec as a cube query over the Fig 3 star schema.
func cubeQuery(sp spec) cube.Query {
	ref := func(attr string) cube.AttrRef { return cube.AttrRef{Dim: attrDim[attr], Attr: attr} }
	q := cube.Query{Measure: cube.MeasureRef{Agg: storage.CountAgg}}
	for _, a := range sp.Rows {
		q.Rows = append(q.Rows, ref(a))
	}
	for _, a := range sp.Cols {
		q.Cols = append(q.Cols, ref(a))
	}
	for _, f := range sp.Filters {
		q.Slicers = append(q.Slicers, cube.Slicer{Ref: ref(f.Col), Values: []value.Value{value.Str(f.Val)}})
	}
	switch sp.Agg {
	case "distinct":
		q.Measure = core.PatientCountMeasure()
	case "avg":
		q.Measure = cube.MeasureRef{Agg: storage.AvgAgg, Column: sp.Measure}
	}
	return q
}

// flatQuery is a spec as a flatquery query, with filter values typed the
// way the /flatquery endpoint types them.
func flatQuery(sp spec) flatquery.Query {
	agg := map[string]storage.AggKind{"count": storage.CountAgg, "avg": storage.AvgAgg, "distinct": storage.DistinctAgg}[sp.Agg]
	q := flatquery.Query{Rows: sp.Rows, Cols: sp.Cols, Agg: agg, Measure: sp.Measure}
	for _, f := range sp.Filters {
		vals := []value.Value{value.Parse(f.Val)}
		if lit := value.Str(f.Val); !vals[0].Equal(lit) {
			vals = append(vals, lit)
		}
		q.Filters = append(q.Filters, flatquery.Filter{Column: f.Col, Values: vals})
	}
	return q
}

// groupBy runs a DG-SQL spec's grouping through the storage layer's
// group-by directly: count(*) plus the spec's aggregate, filtered by its
// equality conjunction.
func groupBy(t *storage.Table, sp spec) error {
	aggs := []storage.AggSpec{{Kind: storage.CountAgg, As: "n"}}
	switch sp.Agg {
	case "avg":
		aggs = append(aggs, storage.AggSpec{Kind: storage.AvgAgg, Column: sp.Measure, As: "v"})
	case "distinct":
		aggs = append(aggs, storage.AggSpec{Kind: storage.DistinctAgg, Column: sp.Measure, As: "v"})
	}
	if len(sp.Filters) == 0 {
		_, err := t.GroupBy(sp.Rows, aggs)
		return err
	}
	pred := func(t *storage.Table, i int) bool {
		for _, f := range sp.Filters {
			if v := t.MustValue(i, f.Col); v.IsNA() || v.String() != f.Val {
				return false
			}
		}
		return true
	}
	_, err := t.GroupByFiltered(sp.Rows, aggs, pred)
	return err
}
