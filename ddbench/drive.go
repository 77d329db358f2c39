package main

import (
	"bytes"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"
)

// clientLog is what one closed-loop client saw.
type clientLog struct {
	lat       map[string][]time.Duration // class -> latencies
	shapes    map[string][]time.Duration // request shape -> latencies
	seq       []time.Duration            // latency of each request, in stream order
	attempted int
	failed    int
	failures  []string // the first few failures
	bodies    map[string][]byte
	variants  []answered // responses that differ from the first to the same query
	firsts    []answered // the first response to each distinct query
	distinct  map[string]request
}

// answered is one response body with the request it answers.
type answered struct {
	req  request
	body []byte
}

func newClientLog() *clientLog {
	return &clientLog{lat: map[string][]time.Duration{}, shapes: map[string][]time.Duration{}, bodies: map[string][]byte{}, distinct: map[string]request{}}
}

// keep records a 200 response for later checking: the first body per
// distinct query, and any later body that differs from it.
func (l *clientLog) keep(r request, body []byte) {
	first, ok := l.bodies[r.key()]
	switch {
	case !ok:
		l.bodies[r.key()] = body
		l.firsts = append(l.firsts, answered{r, body})
	case !bytes.Equal(first, body):
		l.variants = append(l.variants, answered{r, body})
	}
}

func (l *clientLog) fail(format string, args ...any) {
	l.failed++
	if len(l.failures) < 5 {
		l.failures = append(l.failures, fmt.Sprintf(format, args...))
	}
}

// driveOpts configures a closed-loop drive.
type driveOpts struct {
	base    string
	seed    int64
	clients int
	first   int // index of the first client's stream
	dur     time.Duration
	keep    bool // keep bodies for oracle checks
}

// drive runs opts.clients closed-loop clients against base for dur: each
// sends its stream's next request only after the previous answer
// arrived, as a scientist waits for each drill-down.
func drive(client *http.Client, o driveOpts) []*clientLog {
	logs := make([]*clientLog, o.clients)
	deadline := time.Now().Add(o.dur)
	var wg sync.WaitGroup
	for c := 0; c < o.clients; c++ {
		logs[c] = newClientLog()
		wg.Add(1)
		go func(l *clientLog, st *stream) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				r := st.next()
				if _, ok := l.distinct[r.key()]; !ok {
					l.distinct[r.key()] = r
				}
				t0 := time.Now()
				status, body, err := postJSON(client, o.base+r.Path, r.Body)
				d := time.Since(t0)
				l.attempted++
				l.seq = append(l.seq, d)
				switch {
				case err != nil:
					l.fail("%s %s: %v", r.Class, r.label(), err)
					continue
				case status != http.StatusOK:
					l.fail("%s %s: HTTP %d: %s", r.Class, r.label(), status, bytes.TrimSpace(body))
					continue
				}
				l.lat[r.Class] = append(l.lat[r.Class], d)
				l.shapes[r.shape()] = append(l.shapes[r.shape()], d)
				if o.keep {
					l.keep(r, body)
				}
			}
		}(logs[c], newStream(o.seed, o.first+c))
	}
	wg.Wait()
	return logs
}

// totals sums the attempted and failed counts of a drive.
func totals(logs []*clientLog) (attempted, failed int, failures []string) {
	for _, l := range logs {
		attempted += l.attempted
		failed += l.failed
		failures = append(failures, l.failures...)
	}
	return
}

// classLatencies merges the latencies of one class across clients.
func classLatencies(logs []*clientLog, class string) []time.Duration {
	var out []time.Duration
	for _, l := range logs {
		out = append(out, l.lat[class]...)
	}
	return out
}

// quantile is the nearest-rank quantile of ds (sorted in place).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	rank := int(q*float64(len(ds))+0.999999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(ds) {
		rank = len(ds) - 1
	}
	return ds[rank]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// verifyAll checks every kept response against the oracle and returns
// the failures.
func verifyAll(o *oracleTable, logs []*clientLog) []string {
	var errs []string
	checked := map[string]bool{}
	for _, l := range logs {
		for _, a := range append(l.firsts, l.variants...) {
			id := a.req.key() + "\x00" + string(a.body)
			if checked[id] {
				continue
			}
			checked[id] = true
			if err := o.verify(a.req, a.body); err != nil {
				errs = append(errs, err.Error())
			}
		}
	}
	return errs
}
