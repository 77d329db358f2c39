package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"time"

	"github.com/ddgms/ddgms/internal/core"
	"github.com/ddgms/ddgms/internal/discri"
	"github.com/ddgms/ddgms/internal/govern"
	"github.com/ddgms/ddgms/internal/obs"
	"github.com/ddgms/ddgms/internal/oltp"
	"github.com/ddgms/ddgms/internal/repl"
	"github.com/ddgms/ddgms/internal/server"
	"github.com/ddgms/ddgms/internal/storage"
	"github.com/ddgms/ddgms/internal/value"
)

// The write path: a primary in this process, built the way `ddgms serve
// -follow -replicate-listen` builds one, ships its WAL over loopback to a
// separately launched `ddgms serve -replicate-from` replica. One writer
// commits each new patient's attendances as one transaction and waits
// until a replica query sees them.

// newPatientBase offsets the writer's patient ids past every cohort id.
const newPatientBase = 10_000_000

// visibleTimeout bounds the wait for one transaction to reach a replica
// query; a transaction not visible by then counts as a failed operation.
const visibleTimeout = 10 * time.Second

// probeSeconds is the write-path probe's length in the explore
// workloads.
const probeSeconds = 3 * time.Second

// primary is the in-process replication primary.
type primary struct {
	p      *core.Platform
	addr   string // replication listener
	cancel context.CancelFunc
	done   chan struct{}
}

// startPrimary seeds a durable store with the paper-scale cohort, starts
// the CDC-following warehouse over it and ships its WAL on loopback.
func startPrimary(dir string) (*primary, error) {
	raw, err := discri.Generate(discri.DefaultConfig())
	if err != nil {
		return nil, err
	}
	p := core.New(core.Config{DataDir: dir})
	if err := p.OpenStore(raw.Schema()); err != nil {
		return nil, err
	}
	if err := p.Store().LoadTable(raw); err != nil {
		p.Close()
		return nil, err
	}
	breaker := govern.NewBreaker(govern.BreakerConfig{Name: "oltp", Health: p.Store().Healthy})
	if err := p.StartFollow(core.FollowConfig{
		Pipeline:  core.NewDiScRiPipeline(),
		Builder:   core.NewDiScRiBuilder(),
		CursorDir: filepath.Join(dir, "cdc"),
		Setup:     core.FinishDiScRiSetup,
		Breaker:   breaker,
	}); err != nil {
		p.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		p.Close()
		return nil, err
	}
	if err := p.AttachPrimary(core.ReplicateListenConfig{Listener: ln}); err != nil {
		ln.Close()
		p.Close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	pr := &primary{p: p, addr: ln.Addr().String(), cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(pr.done)
		p.RunFollow(ctx)
	}()
	return pr, nil
}

func (pr *primary) close() {
	pr.cancel()
	<-pr.done
	pr.p.Close()
}

// writerPool hands out new patients, each a transaction's worth of
// attendances, generated from the writer seed in chunks as needed.
type writerPool struct {
	seed    int64
	chunk   int
	next    int64 // next new patient id
	pending [][]oltp.Row
}

const writerChunk = 400

// fill generates the next chunk of patients when none are pending.
func (w *writerPool) fill() error {
	if len(w.pending) > 0 {
		return nil
	}
	cfg := discri.DefaultConfig()
	cfg.Patients = writerChunk
	cfg.Seed = w.seed*1_000_003 + int64(w.chunk)
	w.chunk++
	raw, err := discri.Generate(cfg)
	if err != nil {
		return err
	}
	j, ok := raw.Schema().Lookup("PatientID")
	if !ok {
		return fmt.Errorf("cohort has no PatientID")
	}
	byPatient := map[int64]int{}
	for i := 0; i < raw.Len(); i++ {
		row := raw.Row(i)
		pid := row[j].Int()
		k, ok := byPatient[pid]
		if !ok {
			k = len(w.pending)
			byPatient[pid] = k
			w.pending = append(w.pending, nil)
		}
		w.pending[k] = append(w.pending[k], oltp.Row(row))
	}
	return nil
}

// take returns the next patient's attendances and the new id to file
// them under.
func (w *writerPool) take() ([]oltp.Row, int64, error) {
	if err := w.fill(); err != nil {
		return nil, 0, err
	}
	rows := w.pending[0]
	w.pending = w.pending[1:]
	w.next++
	return rows, newPatientBase + w.next, nil
}

// writeLog is what the writer saw.
type writeLog struct {
	commit    []time.Duration // Begin to Commit returning
	commitFn  []time.Duration // Tx.Commit alone
	visible   []time.Duration // Begin to rows visible in a replica query
	shipApply []time.Duration // Commit returning to the replica's cursor passing it (traced only)
	rows      int             // attendances committed and seen
	polls     int             // replica /freshness reads while waiting
	attempted int
	failed    int
	failures  []string
}

// writer commits one new patient per transaction until the deadline and
// waits for each to become visible on the replica, which held base
// attendances before the first.
func writer(client *http.Client, pr *primary, replica string, base int, pool *writerPool, dur time.Duration, traced bool) *writeLog {
	wl := &writeLog{}
	st := pr.p.Store()
	pidCol, _ := st.Schema().Lookup("PatientID")
	applied, err := appliedCommits(client, replica)
	if err != nil {
		wl.fail("replica freshness: %v", err)
		return wl
	}
	deadline := time.Now().Add(dur)
	for time.Now().Before(deadline) {
		rows, pid, err := pool.take()
		if err != nil {
			wl.fail("generating patients: %v", err)
			return wl
		}
		wl.attempted++
		t0 := time.Now()
		tx := st.Begin()
		for _, r := range rows {
			r = append(oltp.Row(nil), r...)
			r[pidCol] = value.Int(pid)
			if _, err = tx.Insert(r); err != nil {
				break
			}
		}
		if err != nil {
			tx.Rollback()
			wl.fail("insert: %v", err)
			continue
		}
		tc := time.Now()
		if err := tx.Commit(); err != nil {
			wl.fail("commit: %v", err)
			continue
		}
		committed := time.Now()
		wl.commitFn = append(wl.commitFn, committed.Sub(tc))
		wl.commit = append(wl.commit, committed.Sub(t0))
		if traced {
			d, err := waitShipped(client, pr, replica, committed)
			if err != nil {
				wl.fail("ship: %v", err)
				continue
			}
			wl.shipApply = append(wl.shipApply, d)
		}
		applied++
		polls, err := waitVisible(client, replica, applied, base+wl.rows+len(rows), t0.Add(visibleTimeout))
		wl.polls += polls
		if err != nil {
			wl.fail("patient %d: %v", pid, err)
			return wl // later counts would be off by this transaction
		}
		wl.visible = append(wl.visible, time.Since(t0))
		wl.rows += len(rows)
	}
	return wl
}

func (wl *writeLog) fail(format string, args ...any) {
	wl.failed++
	if len(wl.failures) < 5 {
		wl.failures = append(wl.failures, fmt.Sprintf(format, args...))
	}
}

// attendancesQuery counts every attendance in the cube, by gender (which
// the cohort never leaves missing).
var attendancesQuery = mdxRequest(spec{Cols: []string{"Gender"}, Agg: "count"})

// countRows asks a serving platform's cube for its attendance count.
func countRows(client *http.Client, base string) (int, error) {
	status, b, err := postJSON(client, base+attendancesQuery.Path, attendancesQuery.Body)
	if err != nil {
		return 0, err
	}
	if status != http.StatusOK {
		return 0, fmt.Errorf("attendance count: HTTP %d: %s", status, bytes.TrimSpace(b))
	}
	a, err := mdxAnswer(b, false)
	if err != nil {
		return 0, err
	}
	var n float64
	for _, v := range a {
		n += v
	}
	return int(n), nil
}

// visiblePoll spaces the writer's reads of the replica's /freshness
// while it waits for a transaction. Each read is a request the replica
// serves beside the reader's; it takes a read lock and encodes a small
// struct, far less than a query (their count is reported per run).
const visiblePoll = time.Millisecond

// appliedCommits reads how many store transactions the replica's
// warehouse has applied. The count moves under the same lock as the
// cube's delta, so once it covers a transaction, queries see its rows.
func appliedCommits(client *http.Client, replica string) (uint64, error) {
	resp, err := client.Get(replica + "/freshness")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("/freshness: HTTP %d", resp.StatusCode)
	}
	var f struct {
		Applied uint64 `json:"applied_commits"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&f); err != nil {
		return 0, err
	}
	return f.Applied, nil
}

// waitVisible waits until the replica's warehouse has applied applied
// transactions, then asks one cube query for the attendance count, which
// must be want: the transaction's rows are visible to queries. It
// returns how many /freshness reads it made.
func waitVisible(client *http.Client, replica string, applied uint64, want int, deadline time.Time) (int, error) {
	polls := 0
	for {
		got, err := appliedCommits(client, replica)
		polls++
		if err != nil {
			return polls, err
		}
		if got >= applied {
			break
		}
		if time.Now().After(deadline) {
			return polls, fmt.Errorf("replica has applied %d transactions after %s, want %d", got, visibleTimeout, applied)
		}
		time.Sleep(visiblePoll)
	}
	n, err := countRows(client, replica)
	switch {
	case err != nil:
		return polls, err
	case n != want:
		return polls, fmt.Errorf("replica counts %d attendances with the transaction applied, want %d", n, want)
	}
	return polls, nil
}

// waitShipped polls the replica's replication cursor until it passes the
// primary's durable WAL position, and returns the time since committed.
func waitShipped(client *http.Client, pr *primary, replica string, committed time.Time) (time.Duration, error) {
	target, err := pr.p.Store().DurableLSN()
	if err != nil {
		return 0, err
	}
	for {
		resp, err := client.Get(replica + "/replication")
		if err != nil {
			return 0, err
		}
		var st repl.Status
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			return 0, err
		}
		if st.Cursor != nil && !st.Cursor.Less(target) {
			return time.Since(committed), nil
		}
		if time.Since(committed) > visibleTimeout {
			return 0, fmt.Errorf("replica cursor %v short of %v after %s", st.Cursor, target, visibleTimeout)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// ingestOpts shapes one write-path session.
type ingestOpts struct {
	setups int           // replica launches timed
	dur    time.Duration // writer (and reader) run time
	reader bool          // run the explore-1x mix against the replica alongside
}

// ingestResult is a session's measurements.
type ingestResult struct {
	setup   float64
	rss     float64
	reads   []*clientLog
	writes  *writeLog
	replica delta // the replica's /metrics over the session (traced only)
}

// runIngest is the ingest-replica workload.
func runIngest(e *env, w workload, res *result) error {
	var lt *layerTrace
	setups := w.setups
	if e.trace {
		lt, setups = newLayerTrace(), 1
	}
	ir, err := ingestSession(e, ingestOpts{setups: setups, dur: e.seconds, reader: true}, res, lt)
	if err != nil {
		return err
	}
	if e.trace {
		serverLayers(lt, ir.replica)
		// The writer's /freshness reads, as a share of the replica's
		// handler time.
		fresh := ir.replica.sum("ddgms_http_request_seconds_sum", `route="/freshness"`)
		lt.extra("visible_poll_handler_share", ratio(fresh, ir.replica.sum("ddgms_http_request_seconds_sum")), "ratio")
		cf, err := prepareCohort(filepath.Join(e.work, "data"), paperPatients, e.digest)
		if err != nil {
			return err
		}
		if err := replayLayers(e, lt, cf, ir.reads); err != nil {
			return err
		}
		return lt.finish(e, res)
	}
	setEndToEnd(res, ir.reads, e.seconds)
	res.set("setup_s", ir.setup, "s")
	res.set("server_rss_mb", ir.rss, "MB")
	// The write path's own end-to-end figures. They are recorded for
	// reference, not bounded: every workload would have to report them,
	// and fsync latency on a shared disk does not repeat within any
	// bound (see README.md).
	wl := ir.writes
	res.extra("commit_p50_ms", ms(quantile(wl.commit, 0.5)), "ms")
	res.extra("visible_p50_ms", ms(quantile(wl.visible, 0.5)), "ms")
	res.extra("visible_p99_ms", ms(quantile(wl.visible, 0.99)), "ms")
	res.extra("write_tx", float64(len(wl.visible)), "count")
	res.extra("visible_polls_per_tx", ratio(float64(wl.polls), float64(len(wl.visible))), "count")
	res.extra("visible_polls_per_s", float64(wl.polls)/e.seconds.Seconds(), "1/s")
	return nil
}

// ingestSession runs the primary, a replica process, the writer and
// optionally a reader, then checks the replica against the primary and a
// batch rebuild. With lt set it also records the write-path layers.
func ingestSession(e *env, o ingestOpts, res *result, lt *layerTrace) (*ingestResult, error) {
	dir := filepath.Join(e.runDir, fmt.Sprintf("ingest-%d", time.Now().UnixNano()))
	pr, err := startPrimary(filepath.Join(dir, "primary"))
	if err != nil {
		return nil, fmt.Errorf("primary: %w", err)
	}
	defer pr.close()
	ir := &ingestResult{}
	srv, setup, err := e.launchSetups(o.setups, func(i int) []string {
		return []string{"-replicate-from", pr.addr, "-replica-id", fmt.Sprintf("r%d", i), "-data", filepath.Join(dir, fmt.Sprintf("replica-%d", i))}
	}, filepath.Join(filepath.Base(dir), "replica"))
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	ir.setup = setup
	writerSeed := e.seed*31 + 7
	res.Inputs.WriterSeed = writerSeed
	pool := &writerPool{seed: writerSeed}
	if err := pool.fill(); err != nil { // the first chunk is generated before timing
		return nil, err
	}

	if o.reader {
		drive(e.client, driveOpts{base: srv.base, seed: e.seed, clients: 1, first: warmupStream, dur: warmup})
	}
	before, err := countRows(e.client, srv.base)
	if err != nil {
		return nil, err
	}
	if res.Inputs.Cohort.Patients == 0 {
		res.Inputs.Cohort = cohortFiles{Patients: paperPatients, Attendances: before, Seed: cohortSeed}
	}
	var replicaBefore, primaryBefore exposition
	if lt != nil {
		if replicaBefore, err = scrape(e.client, srv.base); err != nil {
			return nil, err
		}
		primaryBefore = ownExposition()
	}
	stopRSS := make(chan struct{})
	rssc := srv.sampleRSS(250*time.Millisecond, stopRSS)
	var wg sync.WaitGroup
	if o.reader {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ir.reads = drive(e.client, driveOpts{base: srv.base, seed: e.seed, clients: 1, dur: o.dur})
		}()
	}
	ir.writes = writer(e.client, pr, srv.base, before, pool, o.dur, lt != nil)
	wg.Wait()
	close(stopRSS)
	ir.rss = <-rssc

	att, failed, failures := totals(ir.reads)
	res.Attempted += att + ir.writes.attempted
	res.Failed += failed + ir.writes.failed
	for _, f := range append(failures, ir.writes.failures...) {
		res.Errors = append(res.Errors, "failed operation: "+f)
	}
	if lt != nil {
		replicaAfter, err := scrape(e.client, srv.base)
		if err != nil {
			return nil, err
		}
		ir.replica = delta{replicaBefore, replicaAfter}
		writeLayers(lt, ir.writes, delta{primaryBefore, ownExposition()}, ir.replica)
	}
	after, err := countRows(e.client, srv.base)
	if err != nil {
		return nil, err
	}
	if after != before+ir.writes.rows {
		res.fail(fmt.Sprintf("replica holds %d attendances after the writes, want %d + %d committed", after, before, ir.writes.rows))
	}
	res.fail(compareReplica(e, pr, srv, ir.reads)...)
	return ir, nil
}

// ownExposition is this process's own metrics: the in-process primary's
// store, WAL and replication counters.
func ownExposition() exposition {
	var buf bytes.Buffer
	obs.Default().WritePrometheus(&buf)
	e, _ := parseExposition(&buf)
	return e
}

// writeLayers derives the write-path per-layer metrics.
func writeLayers(lt *layerTrace, wl *writeLog, prim, rep delta) {
	lt.set("oltp.commit_us", us(quantile(wl.commitFn, 0.5)), "us")
	commits := prim.sum("ddgms_oltp_commits_total")
	lt.set("oltp.fsyncs_per_commit", ratio(prim.sum("ddgms_oltp_wal_fsyncs_total"), commits), "count")
	lt.set("repl.ship_apply_ms", ms(quantile(wl.shipApply, 0.5)), "ms")
	lt.set("repl.bytes_per_tx", ratio(prim.sum("ddgms_repl_bytes_total"), prim.sum("ddgms_repl_transactions_shipped_total")), "bytes")
	lt.set("refresh.batch_ms", ratio(rep.sum("ddgms_refresh_batch_seconds_sum"), rep.sum("ddgms_refresh_batch_seconds_count"))*1e3, "ms")
	applied := rep.sum("ddgms_refresh_transactions_applied_total")
	lt.set("refresh.tx_per_batch", ratio(applied, rep.sum("ddgms_refresh_batches_total")), "count")
	lt.set("cube.delta_entries_per_tx", ratio(rep.sum("ddgms_cube_delta_entries_total"), applied), "count")
}

// compareReplica checks, once the writes are done, that the replica
// answers every MDX check query, and every distinct MDX query the reader
// sent, identically to the primary and to a warehouse rebuilt in batch
// from the primary's rows, and as the scalar oracle over the rebuilt
// table does. DG-SQL and flatquery answers of a following node are left
// out: they come from the flat table as of bootstrap, which incremental
// refresh does not update (see CHANGES.md).
func compareReplica(e *env, pr *primary, srv *served, reads []*clientLog) []string {
	if err := waitCaughtUp(pr.p); err != nil {
		return []string{err.Error()}
	}
	snap, err := pr.p.Store().Snapshot()
	if err != nil {
		return []string{err.Error()}
	}
	batch, err := batchPlatform(snap)
	if err != nil {
		return []string{"batch rebuild: " + err.Error()}
	}
	defer batch.Close()
	o, err := newOracleTable(batch.Flat(), oracleColumns())
	if err != nil {
		return []string{err.Error()}
	}
	replica := httpPoster(e.client, srv.base)
	prim, rebuilt := handlerPoster(pr.p), handlerPoster(batch)
	errs := checkServed(replica, o, true)
	reqs := append(checkQueries(), attendancesQuery)
	seen := map[string]bool{}
	for _, l := range reads {
		for _, r := range l.distinct {
			if !seen[r.key()] {
				seen[r.key()] = true
				reqs = append(reqs, r)
			}
		}
	}
	for _, r := range reqs {
		if r.Class != classMDX {
			continue
		}
		var as [3]answer
		for i, post := range []poster{replica, prim, rebuilt} {
			body, err := post(r.Path, r.Body)
			if err == nil {
				as[i], err = queryAnswer(r, body)
			}
			if err != nil {
				errs = append(errs, fmt.Sprintf("%s %s: %v", r.Class, r.label(), err))
				break
			}
		}
		if as[2] == nil {
			continue
		}
		if d := diff(as[0], as[1]); d != "" {
			errs = append(errs, fmt.Sprintf("replica and primary disagree on %s: %s", r.label(), d))
		}
		if d := diff(as[0], as[2]); d != "" {
			errs = append(errs, fmt.Sprintf("replica and batch rebuild disagree on %s: %s", r.label(), d))
		}
	}
	return errs
}

// waitCaughtUp waits until the primary's own warehouse has applied every
// committed transaction.
func waitCaughtUp(p *core.Platform) error {
	deadline := time.Now().Add(visibleTimeout)
	for {
		f, _ := p.Freshness()
		if f.LagTx == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("primary warehouse still %d transactions behind", f.LagTx)
		}
		time.Sleep(time.Millisecond)
	}
}

// batchPlatform builds a warehouse from scratch over a store snapshot,
// through the same pipeline and star schema.
func batchPlatform(snap *storage.Table) (*core.Platform, error) {
	p := core.New(core.Config{})
	if err := p.Acquire(snap); err != nil {
		return nil, err
	}
	if err := p.Transform(core.NewDiScRiPipeline()); err != nil {
		p.Close()
		return nil, err
	}
	if err := p.BuildWarehouse(core.NewDiScRiBuilder()); err != nil {
		p.Close()
		return nil, err
	}
	if err := core.FinishDiScRiSetup(p); err != nil {
		p.Close()
		return nil, err
	}
	return p, nil
}

// handlerPoster answers queries through the program's own HTTP handler
// over an in-process platform, so its bodies are encoded as a serve
// process encodes them.
func handlerPoster(p *core.Platform) poster {
	h := server.New(p)
	return func(path string, body []byte) ([]byte, error) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("HTTP %d: %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
		}
		return rec.Body.Bytes(), nil
	}
}
