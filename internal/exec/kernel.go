package exec

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ddgms/ddgms/internal/govern"
	"github.com/ddgms/ddgms/internal/obs"
	"github.com/ddgms/ddgms/internal/value"
)

// Options configures a kernel invocation.
type Options struct {
	// Vectorized selects the coded parallel kernel (default). When false
	// the legacy scalar path runs: one string-keyed map over materialised
	// values on a single goroutine — the ablation baseline.
	Vectorized bool
	// Parallelism bounds the worker pool; 0 means GOMAXPROCS.
	Parallelism int
	// Ctx, when non-nil, is checked cooperatively every cancelCheckRows
	// rows by every scan worker (and between merge batches), so a
	// cancelled query releases its CPU within one check interval instead
	// of running to completion. The context also carries the optional
	// per-query resource budget (govern.WithBudget) and the optional
	// parent span (obs.ContextWithSpan) that receives the kernel phase
	// spans (exec.scan, exec.merge, exec.sort); without one each phase
	// costs one nil check.
	Ctx context.Context
}

// Option mutates Options.
type Option func(*Options)

// WithVectorized enables or disables the coded parallel kernel (default
// on). Disabling it is the ablation baseline for benchmarks.
func WithVectorized(on bool) Option { return func(o *Options) { o.Vectorized = on } }

// WithParallelism bounds the kernel's worker pool. 0 (the default) sizes
// the pool by GOMAXPROCS.
func WithParallelism(n int) Option { return func(o *Options) { o.Parallelism = n } }

// WithContext threads the caller's context into the kernel for
// cooperative cancellation, budget enforcement and tracing. All scan
// workers share one check cadence (cancelCheckRows), so cancellation
// latency is bounded by a few thousand rows of work per worker, not by
// query size.
func WithContext(ctx context.Context) Option { return func(o *Options) { o.Ctx = ctx } }

func buildOptions(opts []Option) Options {
	o := Options{Vectorized: true}
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// AggInput is one aggregate to compute per group: its kind and the
// measure it reads. A nil Measure counts rows.
type AggInput struct {
	Kind    AggKind
	Measure Measure
}

// GroupInput is one group-by over a row range [0, NumRows).
type GroupInput struct {
	NumRows int
	// Keys are the grouping columns, dictionary-encoded. Each must have at
	// least NumRows rows.
	Keys []CodedColumn
	// Aggs are the aggregates computed per group.
	Aggs []AggInput
	// Filter, when non-nil, restricts the rows that participate. It must
	// be safe for concurrent calls (the parallel kernel evaluates it from
	// several workers).
	Filter func(i int) bool
}

// Group is one output group: its key tuple (decoded, in key order) and
// one finalised accumulator per aggregate.
type Group struct {
	Tuple  []value.Value
	States []*AggState
}

// maxDenseBits bounds the direct-indexed accumulator table: when the
// packed key fits this many bits each worker addresses groups with a
// single array index, no hashing at all. 2^16 slots of one int32 each
// is small enough to allocate per worker.
const maxDenseBits = 16

// minRowsPerWorker keeps the pool from fanning out over trivially small
// inputs, where goroutine startup would dominate.
const minRowsPerWorker = 2048

// cancelCheckRows is the cooperative-cancellation cadence: every scan
// worker re-checks its context (and charges the row budget) once per
// this many rows, bounding both cancellation latency and the per-row
// overhead of governance (one atomic load per batch when idle). It is
// also the kernel's decode block size: compressed code vectors are
// expanded into per-worker buffers one block at a time on the same
// cadence.
const cancelCheckRows = 4096

// wideEntryBytes approximates the heap cost of one wide-path hash map
// entry beyond its key bytes: map bucket share, the entry struct, the
// codes slice header and the states slice. Charged against the byte
// budget so a pathological high-cardinality wide group-by is stopped
// before it exhausts memory.
const wideEntryBytes = 96

// scanCtl coordinates cooperative cancellation and budget charging
// across the kernel's worker pool. The stop flag is the only state the
// hot path reads (one atomic load per cancelCheckRows rows); the first
// failure wins and every other worker drains at its next check.
type scanCtl struct {
	ctx    context.Context
	budget *govern.Budget
	stop   atomic.Bool
	mu     sync.Mutex
	err    error
}

func newScanCtl(o Options) *scanCtl {
	c := &scanCtl{ctx: o.Ctx}
	if o.Ctx != nil {
		c.budget = govern.BudgetFrom(o.Ctx)
	}
	return c
}

// fail records the first abort cause and stops every worker.
func (c *scanCtl) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.mu.Unlock()
	c.stop.Store(true)
}

// aborted returns the recorded abort cause, if any.
func (c *scanCtl) aborted() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// next gates one chunk of nRows: it reports false when the scan must
// stop (another worker failed, the context ended, or the row budget is
// exhausted by this chunk).
func (c *scanCtl) next(nRows int) bool {
	if c.stop.Load() {
		return false
	}
	if c.ctx != nil {
		if err := c.ctx.Err(); err != nil {
			c.fail(err)
			return false
		}
	}
	if err := c.budget.AddRows(int64(nRows)); err != nil {
		c.fail(err)
		return false
	}
	return true
}

// cell charges one newly materialised group against the cell budget.
func (c *scanCtl) cell() bool {
	if c.budget == nil {
		return true
	}
	if err := c.budget.AddCells(1); err != nil {
		c.fail(err)
		return false
	}
	return true
}

// wideCell charges one wide-path group: a cell plus its estimated hash
// map bytes.
func (c *scanCtl) wideCell(keyBytes int) bool {
	if c.budget == nil {
		return true
	}
	if err := c.budget.AddCells(1); err != nil {
		c.fail(err)
		return false
	}
	if err := c.budget.AddBytes(int64(keyBytes + wideEntryBytes)); err != nil {
		c.fail(err)
		return false
	}
	return true
}

// checkEvery gates long single-threaded loops (merge, assembly) on the
// same cadence as the scan.
func (c *scanCtl) checkEvery(i int) bool {
	if i%cancelCheckRows != 0 {
		return true
	}
	return c.next(0)
}

// GroupBy groups the input rows by their key codes and computes the
// requested aggregates per group. Groups are returned sorted ascending by
// key tuple (value.Compare, lexicographic), which makes the result
// deterministic regardless of worker count or merge order.
//
// When the options carry a context (WithContext), the scan is
// cooperatively cancellable: workers re-check the context every
// cancelCheckRows rows and the call returns the context's error with no
// partial result. A budget attached to that context (govern.WithBudget)
// is charged as the scan proceeds and aborts the call with an error
// matching govern.ErrBudgetExceeded when a ceiling is crossed.
func GroupBy(in GroupInput, opts ...Option) ([]Group, error) {
	o := buildOptions(opts)
	for k, key := range in.Keys {
		if key.Len() < in.NumRows {
			return nil, fmt.Errorf("exec: key column %d has %d rows, input has %d", k, key.Len(), in.NumRows)
		}
	}
	sp := obs.SpanFromContext(o.Ctx)
	c := newScanCtl(o)
	if !c.next(0) { // already-cancelled contexts never start scanning
		return nil, abortErr(c)
	}
	metricRowsScanned.Add(uint64(in.NumRows))
	var groups []Group
	var err error
	if !o.Vectorized {
		invokeScalar.Inc()
		scan := sp.Start("exec.scan")
		scan.Annotate("rows", in.NumRows)
		groups, err = groupScalar(in, c)
		scan.End()
	} else {
		groups, err = groupVectorized(in, o, c, sp)
	}
	if err != nil {
		return nil, err
	}
	if !c.next(0) {
		return nil, abortErr(c)
	}
	sortSp := sp.Start("exec.sort")
	sort.Slice(groups, func(a, b int) bool {
		return CompareTuples(groups[a].Tuple, groups[b].Tuple) < 0
	})
	sortSp.Annotate("groups", len(groups))
	sortSp.End()
	metricGroups.Add(uint64(len(groups)))
	return groups, nil
}

// abortErr wraps the controller's recorded cause so callers can match
// context and budget errors with errors.Is while still seeing the
// kernel in the message.
func abortErr(c *scanCtl) error {
	err := c.aborted()
	if err == nil {
		// next() can only fail after recording a cause; this is a
		// defensive fallback.
		err = context.Canceled
	}
	return fmt.Errorf("exec: group-by aborted: %w", err)
}

// --- legacy scalar path ----------------------------------------------------

// groupScalar is the pre-vectorization algorithm kept as the ablation
// baseline: materialise the key tuple of every row, encode it to a string
// and accumulate in one map on the calling goroutine. It shares the
// vectorized paths' cancellation cadence and budget.
func groupScalar(in GroupInput, c *scanCtl) ([]Group, error) {
	type entry struct {
		tuple  []value.Value
		states []*AggState
	}
	groups := make(map[string]*entry)
	keyBuf := make([]value.Value, len(in.Keys))
	for lo := 0; lo < in.NumRows; {
		hi := lo + cancelCheckRows
		if hi > in.NumRows {
			hi = in.NumRows
		}
		if !c.next(hi - lo) {
			return nil, abortErr(c)
		}
		for i := lo; i < hi; i++ {
			if in.Filter != nil && !in.Filter(i) {
				continue
			}
			for k, key := range in.Keys {
				keyBuf[k] = key.Value(i)
			}
			gk := EncodeTuple(keyBuf)
			g, ok := groups[gk]
			if !ok {
				if !c.cell() {
					return nil, abortErr(c)
				}
				g = &entry{tuple: append([]value.Value(nil), keyBuf...), states: newStates(in.Aggs)}
				groups[gk] = g
			}
			observeRow(g.states, in.Aggs, i)
		}
		lo = hi
	}
	out := make([]Group, 0, len(groups))
	for _, g := range groups {
		out = append(out, Group{Tuple: g.tuple, States: g.states})
	}
	return out, nil
}

func newStates(aggs []AggInput) []*AggState {
	states := make([]*AggState, len(aggs))
	for k, a := range aggs {
		states[k] = NewAggState(a.Kind)
	}
	return states
}

func observeRow(states []*AggState, aggs []AggInput, i int) {
	for k, a := range aggs {
		if a.Measure == nil {
			states[k].ObserveRow()
		} else {
			states[k].Observe(a.Measure.Value(i))
		}
	}
}

// --- vectorized path -------------------------------------------------------

// keyLayout packs one code per key column into a uint64: column k
// occupies width[k] bits at shift[k]. Packable reports whether the whole
// tuple fits 64 bits; when it does not, the kernel falls back to a
// byte-string key over the raw codes.
type keyLayout struct {
	shift    []uint
	width    []uint
	total    uint
	packable bool
}

func layoutFor(keys []CodedColumn) keyLayout {
	l := keyLayout{shift: make([]uint, len(keys)), width: make([]uint, len(keys)), packable: true}
	for k, key := range keys {
		w := uint(bits.Len(uint(key.Card() - 1)))
		if w == 0 {
			w = 1
		}
		l.shift[k] = l.total
		l.width[k] = w
		l.total += w
	}
	if l.total > 64 {
		l.packable = false
	}
	return l
}

// appendTuple decodes a packed key into dst using the per-key
// dictionaries, appending one value per key. Output assembly uses it to
// build every tuple inside one shared backing array.
func (l keyLayout) appendTuple(dst []value.Value, packed uint64, keyValues [][]value.Value) []value.Value {
	for k := range keyValues {
		code := (packed >> l.shift[k]) & (1<<l.width[k] - 1)
		dst = append(dst, keyValues[k][code])
	}
	return dst
}

func (l keyLayout) unpack(packed uint64, keys []CodedColumn) []value.Value {
	tuple := make([]value.Value, len(keys))
	for k, key := range keys {
		code := (packed >> l.shift[k]) & (1<<l.width[k] - 1)
		tuple[k] = key.Values()[code]
	}
	return tuple
}

// workerCount sizes the pool: bounded by Parallelism (or GOMAXPROCS) and
// by the number of minimum-size row chunks available.
func workerCount(numRows int, o Options) int {
	p := o.Parallelism
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if byRows := numRows / minRowsPerWorker; byRows < p {
		p = byRows
	}
	if p < 1 {
		p = 1
	}
	return p
}

func groupVectorized(in GroupInput, o Options, c *scanCtl, sp *obs.Span) ([]Group, error) {
	layout := layoutFor(in.Keys)
	workers := workerCount(in.NumRows, o)
	metricWorkers.Observe(float64(workers))
	switch {
	case layout.packable && layout.total <= maxDenseBits:
		invokeDense.Inc()
		return groupDense(in, layout, workers, c, sp)
	case layout.packable:
		invokeHashed.Inc()
		return groupHashed(in, layout, workers, c, sp)
	default:
		invokeWide.Inc()
		return groupWide(in, workers, c, sp)
	}
}

// scanSpan opens the exec.scan phase span shared by the vectorized
// paths, annotated with the fan-out.
func scanSpan(sp *obs.Span, rows, workers int) *obs.Span {
	scan := sp.Start("exec.scan")
	scan.Annotate("rows", rows)
	scan.Annotate("workers", workers)
	return scan
}

// partition splits [0, n) into one contiguous chunk per worker.
func partition(n, workers int) [][2]int {
	chunks := make([][2]int, workers)
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo > hi {
			lo = hi
		}
		chunks[w] = [2]int{lo, hi}
	}
	return chunks
}

// runWorkers executes fn(worker, lo, hi) on the pool. With one worker it
// runs inline, avoiding goroutine overhead for small inputs.
func runWorkers(n, workers int, fn func(w, lo, hi int)) {
	if workers == 1 {
		fn(0, 0, n)
		return
	}
	chunks := partition(n, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fn(w, chunks[w][0], chunks[w][1])
		}(w)
	}
	wg.Wait()
}

// allRLE reports whether every key column is run-length encoded, which
// enables the fused per-run dense scan.
func allRLE(keys []CodedColumn) bool {
	if len(keys) == 0 {
		return false
	}
	for _, key := range keys {
		if _, ok := key.(*RLEColumn); !ok {
			return false
		}
	}
	return true
}

// groupDense is the fast path for low-cardinality keys (the clinical
// norm): per-worker arenas addressed directly by the packed code — no
// hashing, no per-group heap allocation. Key codes are consumed in their
// compressed form: flat vectors zero-copy, packed words decoded a word
// at a time, and all-RLE key sets grouped per run intersection instead
// of per row.
func groupDense(in GroupInput, layout keyLayout, workers int, c *scanCtl, sp *obs.Span) ([]Group, error) {
	size := 1 << layout.total
	plan, distWords := planAggs(in.Aggs, in.NumRows, size)
	arenas := make([]*denseArena, workers)
	scan := scanSpan(sp, in.NumRows, workers)
	fused := allRLE(in.Keys)
	runWorkers(in.NumRows, workers, func(w, lo, hi int) {
		a := newDenseArena(size, plan, distWords)
		arenas[w] = a
		if fused {
			scanDenseRuns(in, layout, a, c, lo, hi)
		} else {
			scanDenseBlocks(in, layout, a, c, lo, hi)
		}
	})
	scan.End()
	if err := c.aborted(); err != nil {
		return nil, abortErr(c)
	}

	mergeStart := time.Now()
	merge := sp.Start("exec.merge")
	keyValues := make([][]value.Value, len(in.Keys))
	for k, key := range in.Keys {
		keyValues[k] = key.Values()
	}
	capGroups := 0
	for _, a := range arenas {
		capGroups += a.groups
	}
	tuples := make([]value.Value, 0, capGroups*len(in.Keys))
	ptrs := make([]*AggState, 0, capGroups*len(in.Aggs))
	out := make([]Group, 0, capGroups)
	for slot := 0; slot < size; slot++ {
		if !c.checkEvery(slot) {
			merge.End()
			return nil, abortErr(c)
		}
		var tgt *denseArena
		tg := -1
		for _, a := range arenas {
			gi := a.slots[slot]
			if gi == 0 {
				continue
			}
			if tgt == nil {
				tgt, tg = a, int(gi)-1
				continue
			}
			tgt.mergeGroup(tg, a, int(gi)-1)
		}
		if tgt == nil {
			continue
		}
		tgt.seal(tg)
		tupStart := len(tuples)
		tuples = layout.appendTuple(tuples, uint64(slot), keyValues)
		ptrStart := len(ptrs)
		base := tg * tgt.nAggs
		for k := 0; k < tgt.nAggs; k++ {
			ptrs = append(ptrs, &tgt.states[base+k])
		}
		out = append(out, Group{
			Tuple:  tuples[tupStart:len(tuples):len(tuples)],
			States: ptrs[ptrStart:len(ptrs):len(ptrs)],
		})
	}
	merge.Annotate("groups", len(out))
	merge.End()
	metricMergeSeconds.ObserveSince(mergeStart)
	return out, nil
}

// scanDenseBlocks is the dense scan over block-decoded key codes: one
// decode per column per cancelCheckRows block, then a tight packed-slot
// loop over the block.
func scanDenseBlocks(in GroupInput, layout keyLayout, a *denseArena, c *scanCtl, lo, hi int) {
	kr := newBlockReader(in.Keys)
	mr := newMeasureReader(a.plan)
	for lo < hi {
		end := lo + cancelCheckRows
		if end > hi {
			end = hi
		}
		if !c.next(end - lo) {
			return
		}
		kcodes := kr.read(lo, end)
		mcodes := mr.read(lo, end)
		for i := lo; i < end; i++ {
			if in.Filter != nil && !in.Filter(i) {
				continue
			}
			var slot uint64
			for k := range kcodes {
				slot |= uint64(kcodes[k][i-lo]) << layout.shift[k]
			}
			g, ok := a.group(slot, c)
			if !ok {
				return
			}
			a.observe(g, i, i-lo, mcodes)
		}
		lo = end
	}
}

// scanDenseRuns is the fused filter+aggregate scan for all-RLE key sets:
// rows are consumed per run intersection — the packed slot is computed
// and the group resolved once per segment, and only the filter and the
// measures are evaluated per row. Group creation stays lazy so filtered
// segments that contribute no rows produce no group, matching the
// row-at-a-time paths.
func scanDenseRuns(in GroupInput, layout keyLayout, a *denseArena, c *scanCtl, lo, hi int) {
	keys := make([]*RLEColumn, len(in.Keys))
	run := make([]int, len(in.Keys))
	for k := range in.Keys {
		keys[k] = in.Keys[k].(*RLEColumn)
		run[k] = keys[k].RunIndex(lo)
	}
	mr := newMeasureReader(a.plan)
	for lo < hi {
		bend := lo + cancelCheckRows
		if bend > hi {
			bend = hi
		}
		if !c.next(bend - lo) {
			return
		}
		mcodes := mr.read(lo, bend)
		for i := lo; i < bend; {
			var slot uint64
			segEnd := bend
			for k := range keys {
				_, end, code := keys[k].Run(run[k])
				slot |= uint64(code) << layout.shift[k]
				if end < segEnd {
					segEnd = end
				}
			}
			g := -1
			for ; i < segEnd; i++ {
				if in.Filter != nil && !in.Filter(i) {
					continue
				}
				if g < 0 {
					var ok bool
					if g, ok = a.group(slot, c); !ok {
						return
					}
				}
				a.observe(g, i, i-lo, mcodes)
			}
			for k := range keys {
				if _, end, _ := keys[k].Run(run[k]); end == i {
					run[k]++
				}
			}
		}
		lo = bend
	}
}

// groupHashed handles packed keys wider than the dense budget: per-worker
// hash maps keyed by the packed uint64 over block-decoded codes, merged
// in worker order.
func groupHashed(in GroupInput, layout keyLayout, workers int, c *scanCtl, sp *obs.Span) ([]Group, error) {
	partials := make([]map[uint64][]*AggState, workers)
	scan := scanSpan(sp, in.NumRows, workers)
	runWorkers(in.NumRows, workers, func(w, lo, hi int) {
		local := make(map[uint64][]*AggState)
		kr := newBlockReader(in.Keys)
		for lo < hi {
			end := lo + cancelCheckRows
			if end > hi {
				end = hi
			}
			if !c.next(end - lo) {
				return
			}
			kcodes := kr.read(lo, end)
			for i := lo; i < end; i++ {
				if in.Filter != nil && !in.Filter(i) {
					continue
				}
				var packed uint64
				for k := range kcodes {
					packed |= uint64(kcodes[k][i-lo]) << layout.shift[k]
				}
				states, ok := local[packed]
				if !ok {
					if !c.cell() {
						return
					}
					states = newStates(in.Aggs)
					local[packed] = states
				}
				observeRow(states, in.Aggs, i)
			}
			lo = end
		}
		partials[w] = local
	})
	scan.End()
	if err := c.aborted(); err != nil {
		return nil, abortErr(c)
	}

	mergeStart := time.Now()
	merge := sp.Start("exec.merge")
	merged := partials[0]
	step := 0
	for w := 1; w < workers; w++ {
		for packed, states := range partials[w] {
			if !c.checkEvery(step) {
				merge.End()
				return nil, abortErr(c)
			}
			step++
			have, ok := merged[packed]
			if !ok {
				merged[packed] = states
				continue
			}
			for k := range have {
				have[k].Merge(states[k])
			}
		}
	}
	out := make([]Group, 0, len(merged))
	for packed, states := range merged {
		out = append(out, Group{Tuple: layout.unpack(packed, in.Keys), States: states})
	}
	merge.Annotate("groups", len(out))
	merge.End()
	metricMergeSeconds.ObserveSince(mergeStart)
	return out, nil
}

// groupWide handles key tuples whose packed form exceeds 64 bits: the key
// is the raw code bytes (still no per-value string formatting), read from
// block-decoded code vectors. Its hash map entries are the kernel's only
// unbounded-size accumulators, so new groups are charged against the byte
// budget as well as the cell budget.
func groupWide(in GroupInput, workers int, c *scanCtl, sp *obs.Span) ([]Group, error) {
	type entry struct {
		codes  []uint32
		states []*AggState
	}
	partials := make([]map[string]*entry, workers)
	scan := scanSpan(sp, in.NumRows, workers)
	runWorkers(in.NumRows, workers, func(w, lo, hi int) {
		local := make(map[string]*entry)
		kr := newBlockReader(in.Keys)
		buf := make([]byte, 4*len(in.Keys))
		for lo < hi {
			end := lo + cancelCheckRows
			if end > hi {
				end = hi
			}
			if !c.next(end - lo) {
				return
			}
			kcodes := kr.read(lo, end)
			for i := lo; i < end; i++ {
				if in.Filter != nil && !in.Filter(i) {
					continue
				}
				for k := range kcodes {
					code := kcodes[k][i-lo]
					buf[4*k] = byte(code)
					buf[4*k+1] = byte(code >> 8)
					buf[4*k+2] = byte(code >> 16)
					buf[4*k+3] = byte(code >> 24)
				}
				g, ok := local[string(buf)]
				if !ok {
					if !c.wideCell(len(buf)) {
						return
					}
					codes := make([]uint32, len(in.Keys))
					for k := range kcodes {
						codes[k] = kcodes[k][i-lo]
					}
					g = &entry{codes: codes, states: newStates(in.Aggs)}
					local[string(buf)] = g
				}
				observeRow(g.states, in.Aggs, i)
			}
			lo = end
		}
		partials[w] = local
	})
	scan.End()
	if err := c.aborted(); err != nil {
		return nil, abortErr(c)
	}

	mergeStart := time.Now()
	merge := sp.Start("exec.merge")
	merged := partials[0]
	step := 0
	for w := 1; w < workers; w++ {
		for gk, g := range partials[w] {
			if !c.checkEvery(step) {
				merge.End()
				return nil, abortErr(c)
			}
			step++
			have, ok := merged[gk]
			if !ok {
				merged[gk] = g
				continue
			}
			for k := range have.states {
				have.states[k].Merge(g.states[k])
			}
		}
	}
	out := make([]Group, 0, len(merged))
	for _, g := range merged {
		tuple := make([]value.Value, len(in.Keys))
		for k, key := range in.Keys {
			tuple[k] = key.Values()[g.codes[k]]
		}
		out = append(out, Group{Tuple: tuple, States: g.states})
	}
	merge.Annotate("groups", len(out))
	merge.End()
	metricMergeSeconds.ObserveSince(mergeStart)
	return out, nil
}
