package obs

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestMetricsConcurrent hammers every instrument kind from many
// goroutines; correctness is the exact totals, race-cleanliness comes
// from running the suite under -race (scripts/check.sh does).
func TestMetricsConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h_seconds", "", []float64{1, 10, 100})
	cv := r.CounterVec("cv_total", "", "worker")

	const workers, perWorker = 16, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			child := cv.WithLabelValues("w")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i % 150))
				child.Inc()
			}
		}(w)
	}
	wg.Wait()

	const total = workers * perWorker
	if c.Value() != total {
		t.Errorf("counter = %d, want %d", c.Value(), total)
	}
	if g.Value() != total {
		t.Errorf("gauge = %g, want %d", g.Value(), total)
	}
	if cv.WithLabelValues("w").Value() != total {
		t.Errorf("vec counter = %d, want %d", cv.WithLabelValues("w").Value(), total)
	}
	if s := h.Snapshot(); s.Count != total {
		t.Errorf("histogram count = %d, want %d", s.Count, total)
	}
}

// TestHistogramMergeExact verifies the striped shards merge exactly:
// the snapshot must equal a single-threaded reference accumulation of
// the same observations, bucket by bucket and in the exact sum.
func TestHistogramMergeExact(t *testing.T) {
	bounds := []float64{0.5, 1, 2, 4}
	r := NewRegistry()
	h := r.Histogram("m_seconds", "", bounds)

	// Integer-valued observations keep float addition associative, so
	// the sharded sum must match the reference bit-for-bit.
	obs := make([]float64, 0, 64*257)
	for i := 0; i < 64*257; i++ {
		obs = append(obs, float64(i%7))
	}
	var wg sync.WaitGroup
	for w := 0; w < 64; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, v := range obs[w*257 : (w+1)*257] {
				h.Observe(v)
			}
		}(w)
	}
	wg.Wait()

	wantCounts := make([]uint64, len(bounds)+1)
	var wantSum float64
	for _, v := range obs {
		i := 0
		for i < len(bounds) && v > bounds[i] {
			i++
		}
		wantCounts[i]++
		wantSum += v
	}
	s := h.Snapshot()
	for i := range wantCounts {
		if s.Counts[i] != wantCounts[i] {
			t.Errorf("bucket %d = %d, want %d", i, s.Counts[i], wantCounts[i])
		}
	}
	if s.Sum != wantSum {
		t.Errorf("sum = %v, want %v", s.Sum, wantSum)
	}
	if s.Count != uint64(len(obs)) {
		t.Errorf("count = %d, want %d", s.Count, len(obs))
	}
}

func TestHistogramBucketEdges(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("e", "", []float64{1, 2})
	for _, v := range []float64{1, 1.5, 2, 3} { // le semantics: 1 -> bucket0, 2 -> bucket1
		h.Observe(v)
	}
	s := h.Snapshot()
	want := []uint64{1, 2, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("counts = %v, want %v", s.Counts, want)
			break
		}
	}
}

// TestPrometheusGolden pins the exposition format byte-for-byte.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("app_requests_total", "Requests served.")
	c.Add(3)
	g := r.Gauge("app_temperature", "")
	g.Set(36.6)
	r.GaugeFunc("app_up", "Liveness.", func() float64 { return 1 })
	cv := r.CounterVec("app_errors_total", "Errors by route.", "route", "code")
	cv.WithLabelValues("/query", "500").Inc()
	cv.WithLabelValues(`/a"b\c`, "400").Add(2)
	h := r.Histogram("app_latency_seconds", "Latency.", []float64{0.1, 1})
	h.Observe(0.25) // binary-exact observations keep the _sum line stable
	h.Observe(0.5)
	h.Observe(5)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP app_requests_total Requests served.
# TYPE app_requests_total counter
app_requests_total 3
# TYPE app_temperature gauge
app_temperature 36.6
# HELP app_up Liveness.
# TYPE app_up gauge
app_up 1
# HELP app_errors_total Errors by route.
# TYPE app_errors_total counter
app_errors_total{route="/query",code="500"} 1
app_errors_total{route="/a\"b\\c",code="400"} 2
# HELP app_latency_seconds Latency.
# TYPE app_latency_seconds histogram
app_latency_seconds_bucket{le="0.1"} 0
app_latency_seconds_bucket{le="1"} 2
app_latency_seconds_bucket{le="+Inf"} 3
app_latency_seconds_sum 5.75
app_latency_seconds_count 3
`
	if got := sb.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestRegisterIdempotentAndMismatch(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "")
	if b := r.Counter("x_total", ""); a != b {
		t.Error("re-registering identical counter returned a new instance")
	}
	defer func() {
		if recover() == nil {
			t.Error("shape mismatch did not panic")
		}
	}()
	r.Gauge("x_total", "")
}

func TestGaugeFloat(t *testing.T) {
	var g Gauge
	g.Set(1.5)
	g.Add(-0.25)
	if v := g.Value(); math.Abs(v-1.25) > 1e-12 {
		t.Errorf("gauge = %v", v)
	}
}

func TestTraceNesting(t *testing.T) {
	tracer := NewTracer(4)
	tr := tracer.StartTrace("query")
	root := tr.Root()
	a := root.Start("parse")
	a.End()
	b := root.Start("execute")
	b.Annotate("rows", 42)
	c := b.Start("scan")
	time.Sleep(time.Millisecond)
	c.End()
	b.End()
	tr.Finish()

	doc := tr.Doc()
	if doc.Root.Name != "query" || len(doc.Root.Children) != 2 {
		t.Fatalf("root = %+v", doc.Root)
	}
	exe, ok := doc.Root.FindSpan("execute")
	if !ok || exe.Attrs["rows"] != 42 {
		t.Fatalf("execute span = %+v (found %v)", exe, ok)
	}
	scan, ok := doc.Root.FindSpan("scan")
	if !ok {
		t.Fatal("scan span missing")
	}
	if scan.DurationUS <= 0 || scan.DurationUS > exe.DurationUS {
		t.Errorf("scan %dus not within execute %dus", scan.DurationUS, exe.DurationUS)
	}
	if doc.Root.DurationUS < exe.DurationUS {
		t.Errorf("root %dus shorter than child %dus", doc.Root.DurationUS, exe.DurationUS)
	}
}

func TestTracerRingBounded(t *testing.T) {
	tracer := NewTracer(3)
	for i := 0; i < 10; i++ {
		tracer.StartTrace("q").Finish()
	}
	recent := tracer.Recent()
	if len(recent) != 3 {
		t.Fatalf("ring holds %d, want 3", len(recent))
	}
	// Newest first: ids 10, 9, 8.
	for i, want := range []uint64{10, 9, 8} {
		if recent[i].ID != want {
			t.Errorf("recent[%d].ID = %d, want %d", i, recent[i].ID, want)
		}
	}
}

// TestNilSafety: the whole tracing API must be inert on nil receivers —
// that is the "tracing off" fast path every instrumented call site uses.
func TestNilSafety(t *testing.T) {
	var tracer *Tracer
	tr := tracer.StartTrace("q")
	if tr != nil {
		t.Fatal("nil tracer produced a trace")
	}
	sp := tr.Root()
	child := sp.Start("stage")
	if child != nil {
		t.Fatal("nil span produced a child")
	}
	child.Annotate("k", "v")
	child.End()
	tr.Finish()
	if docs := tracer.Recent(); docs != nil {
		t.Errorf("nil tracer Recent = %v", docs)
	}
}

// TestSpanContext: a span travels in the context, a nil span leaves the
// context untouched (no allocation on the untraced path), and a context
// without a span reads back as the nil no-op span.
func TestSpanContext(t *testing.T) {
	ctx := context.Background()
	if got := ContextWithSpan(ctx, nil); got != ctx {
		t.Error("ContextWithSpan(ctx, nil) did not return ctx unchanged")
	}
	if sp := SpanFromContext(ctx); sp != nil {
		t.Errorf("span from bare context = %v, want nil", sp)
	}
	if sp := SpanFromContext(nil); sp != nil {
		t.Errorf("span from nil context = %v, want nil", sp)
	}
	if n := testing.AllocsPerRun(100, func() { _ = ContextWithSpan(ctx, nil) }); n != 0 {
		t.Errorf("untraced ContextWithSpan allocates %v times", n)
	}

	tr := NewTracer(1).StartTrace("query")
	parent := ContextWithSpan(ctx, tr.Root())
	if SpanFromContext(parent) != tr.Root() {
		t.Fatal("span did not round-trip through the context")
	}
	stage := SpanFromContext(parent).Start("stage")
	child := ContextWithSpan(parent, stage)
	SpanFromContext(child).Start("kernel").End()
	stage.End()
	tr.Finish()
	got, ok := tr.Doc().Root.FindSpan("stage")
	if !ok {
		t.Fatal("stage span missing")
	}
	if _, ok := got.FindSpan("kernel"); !ok {
		t.Error("kernel span not nested under the stage span passed down in the context")
	}
}

func TestUnfinishedSpansClosedByFinish(t *testing.T) {
	tracer := NewTracer(1)
	tr := tracer.StartTrace("q")
	tr.Root().Start("leaked") // never ended
	tr.Finish()
	doc := tracer.Recent()[0]
	leaked, ok := doc.Root.FindSpan("leaked")
	if !ok {
		t.Fatal("leaked span missing")
	}
	if leaked.DurationUS < 0 {
		t.Errorf("leaked duration = %d", leaked.DurationUS)
	}
}

// TestGovernExpositionGolden pins the governance metric family shapes
// (ddgms_govern_*) byte-for-byte, including the labeled-gauge vector
// that backs breaker state — the family set the resource-governance
// layer exposes and the operator's guide documents.
func TestGovernExpositionGolden(t *testing.T) {
	r := NewRegistry()
	admitted := r.Counter("ddgms_govern_admitted_total", "Requests admitted past the concurrency gate.")
	admitted.Add(7)
	shed := r.CounterVec("ddgms_govern_shed_total", "Requests shed by the admission controller, by reason.", "reason")
	shed.WithLabelValues("queue_full").Add(3)
	shed.WithLabelValues("wait_timeout").Inc()
	cancelled := r.CounterVec("ddgms_govern_cancelled_total", "Admitted queries stopped before completion, by cause.", "cause")
	cancelled.WithLabelValues("deadline").Add(2)
	state := r.GaugeVec("ddgms_govern_breaker_state", "Circuit breaker position (0=closed, 1=half-open, 2=open).", "breaker")
	state.WithLabelValues("query").Set(2)
	state.WithLabelValues("refresh").Set(0)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP ddgms_govern_admitted_total Requests admitted past the concurrency gate.
# TYPE ddgms_govern_admitted_total counter
ddgms_govern_admitted_total 7
# HELP ddgms_govern_shed_total Requests shed by the admission controller, by reason.
# TYPE ddgms_govern_shed_total counter
ddgms_govern_shed_total{reason="queue_full"} 3
ddgms_govern_shed_total{reason="wait_timeout"} 1
# HELP ddgms_govern_cancelled_total Admitted queries stopped before completion, by cause.
# TYPE ddgms_govern_cancelled_total counter
ddgms_govern_cancelled_total{cause="deadline"} 2
# HELP ddgms_govern_breaker_state Circuit breaker position (0=closed, 1=half-open, 2=open).
# TYPE ddgms_govern_breaker_state gauge
ddgms_govern_breaker_state{breaker="query"} 2
ddgms_govern_breaker_state{breaker="refresh"} 0
`
	if got := sb.String(); got != want {
		t.Errorf("govern exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
