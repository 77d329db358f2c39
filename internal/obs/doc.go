// Package obs is the observability layer of the DD-DGMS platform: a
// dependency-free (stdlib-only) metrics registry and a per-query trace
// facility, shared by every subsystem.
//
// Healthcare-warehouse work stresses that evaluating the warehouse
// itself — load times, query latencies, refresh behaviour — is part of
// the architecture; this package is how the repo's warehouse answers
// "how was this query executed and what did it cost".
//
// # Metrics
//
// A Registry holds named metric families. Three instrument kinds cover
// the platform's needs:
//
//   - Counter — a monotonically increasing atomic uint64 (requests
//     served, WAL fsyncs, rows scanned).
//   - Gauge — an instantaneous float64 (in-flight requests); GaugeFunc
//     samples a callback at exposition time (store health).
//   - Histogram — cumulative-bucket distribution with an exact sum and
//     count. Observations are lock-striped across shards (TryLock over a
//     small shard ring, so concurrent observers almost never contend)
//     and shards merge exactly at read time: bucket counts, sum and
//     count are plain sums, so the merged snapshot is identical to what
//     a single-shard histogram would have recorded.
//
// Labeled families (CounterVec, HistogramVec) intern one child per
// label-value tuple; callers on hot paths pre-resolve children once
// (WithLabelValues) and then pay a single atomic per event.
//
// Metrics are registered once, at package init, via the get-or-create
// constructors on the Default registry (or a private Registry in
// tests). The Prometheus text exposition format is hand-rolled in
// WritePrometheus; Handler serves it for GET /metrics.
//
// # Traces
//
// A Tracer owns a bounded ring buffer of recently finished traces. A
// Trace is a tree of Spans; each span carries a name, monotonic
// start/duration (time.Time's monotonic reading, so wall-clock steps
// cannot corrupt timings), optional key/value annotations, and child
// spans. Starting a child of a nil span returns nil, and every method
// of a nil *Span or *Trace is a no-op — instrumented code reads its
// optional parent span from the query context (SpanFromContext) and
// pays only a nil check when tracing is off. The server starts a trace
// per /query; for ?trace=1 it puts the root span into the query context
// (ContextWithSpan), the MDX evaluator, cube engine and execution
// kernel hang their stage spans under it (mdx.parse → cube.group →
// exec.scan/exec.merge), and the finished tree is attached to the
// query response. Every trace, stage spans or not, is served as JSON
// on /debug/traces.
package obs
