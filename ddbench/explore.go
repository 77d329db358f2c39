package main

import (
	"fmt"
	"path/filepath"
	"strings"
	"time"
)

// runExplore is the explore-1x and explore-16x workload: closed-loop
// clients run the seeded query mix against `ddgms serve -in` over the
// transformed cohort table.
func runExplore(e *env, w workload, res *result) error {
	cf, err := prepareCohort(filepath.Join(e.work, "data"), w.patients, e.digest)
	if err != nil {
		return err
	}
	o, err := loadOracle(&cf)
	if err != nil {
		return err
	}
	res.Inputs.Cohort = cf
	n := w.setups
	if e.trace {
		n = 1 // set-up is an end-to-end metric; the traced run times it once
	}
	srv, setup, err := e.launchSetups(n, func(int) []string { return []string{"-in", cf.FlatPath} }, "serve")
	if err != nil {
		return err
	}
	defer srv.stop()

	drive(e.client, driveOpts{base: srv.base, seed: e.seed, clients: e.clients, first: warmupStream, dur: warmup})
	var before exposition
	if e.trace {
		if before, err = scrape(e.client, srv.base); err != nil {
			return err
		}
	}
	stopRSS := make(chan struct{})
	rssc := srv.sampleRSS(250*time.Millisecond, stopRSS)
	logs := drive(e.client, driveOpts{base: srv.base, seed: e.seed, clients: e.clients, dur: e.seconds, keep: true})
	close(stopRSS)
	rss := <-rssc
	peak, err := srv.memMB("VmHWM")
	if err != nil {
		return err
	}
	var failures []string
	res.Attempted, res.Failed, failures = totals(logs)
	for _, f := range failures {
		res.Errors = append(res.Errors, "failed operation: "+f)
	}
	res.fail(verifyAll(o, logs)...)
	res.fail(checkServed(httpPoster(e.client, srv.base), o, false)...)

	if !e.trace {
		setEndToEnd(res, logs, e.seconds)
		res.set("setup_s", setup, "s")
		res.set("server_rss_mb", rss, "MB")
		res.extra("server_peak_rss_mb", peak, "MB")
		return nil
	}
	after, err := scrape(e.client, srv.base)
	if err != nil {
		return err
	}
	srv.stop() // free the server's memory before the in-process replay
	lt := newLayerTrace()
	serverLayers(lt, delta{before, after})
	if err := replayLayers(e, lt, cf, logs); err != nil {
		return err
	}
	// The write-path layers are timed on a short run of the ingest path,
	// so that every traced run reports every per-layer metric.
	if _, err := ingestSession(e, ingestOpts{setups: 1, dur: probeSeconds}, res, lt); err != nil {
		return fmt.Errorf("write-path probe: %w", err)
	}
	return lt.finish(e, res)
}

// setEndToEnd fills the query-side end-to-end metrics of a drive that
// lasted dur. Only the medians are bounded: throughput (a mean over the
// run) and the 99th percentiles follow the host's stalls, and did not
// repeat within any bound the benchmark may set (see README.md).
func setEndToEnd(res *result, logs []*clientLog, dur time.Duration) {
	ok := 0
	for _, c := range classes {
		ls := classLatencies(logs, c)
		ok += len(ls)
		res.set(c+"_p50_ms", ms(quantile(ls, 0.50)), "ms")
		res.extra(c+"_p99_ms", ms(quantile(ls, 0.99)), "ms")
		res.extra(c+"_samples", float64(len(ls)), "count")
	}
	res.extra("throughput_rps", float64(ok)/dur.Seconds(), "1/s")
	// Each generator branch's median and its share of its class, so that
	// the effect of the assumed mix weights on each class median shows.
	shapes := map[string][]time.Duration{}
	for _, l := range logs {
		for s, ds := range l.shapes {
			shapes[s] = append(shapes[s], ds...)
		}
	}
	for s, ds := range shapes {
		class, _, _ := strings.Cut(s, "-")
		res.extra("shape."+s+".p50_ms", ms(quantile(ds, 0.5)), "ms")
		res.extra("shape."+s+".share", float64(len(ds))/float64(len(classLatencies(logs, class))), "ratio")
	}
}
