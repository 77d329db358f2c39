// Overload soak: the resource-governance acceptance harness. It stands
// a governed server up over a real platform whose query evaluation is
// artificially slowed (but context-honouring, like the real kernel),
// fires a fixed grid of concurrent request streams at it, and reports
// exactly how the server disposed of every request. The soak is
// deterministic in structure — stream count, per-stream request count
// and the cancellation cadence are fixed by the config, not sampled —
// so a run's disposition counts are reproducible up to scheduling
// jitter, and the invariants the tests assert (shed requests answer
// 429/503 and never 504, cancelled slots are released, goroutines
// return to baseline, admitted latency stays bounded) hold on every
// run, not just on average.
package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"github.com/ddgms/ddgms/internal/core"
	"github.com/ddgms/ddgms/internal/cube"
	"github.com/ddgms/ddgms/internal/govern"
	"github.com/ddgms/ddgms/internal/loadgen"
	"github.com/ddgms/ddgms/internal/server"
)

// SoakConfig fixes the shape of one overload soak.
type SoakConfig struct {
	// Streams concurrent clients, each issuing Requests queries
	// back-to-back (no think time: the offered load is Streams).
	Streams  int
	Requests int
	// CancelEvery: each stream cancels its n-th request client-side
	// after CancelAfter (0 disables). Exercises slot release under
	// client disconnects.
	CancelEvery int
	CancelAfter time.Duration
	// QueryDelay is the artificial evaluation time per query; with
	// Streams > MaxConcurrent it manufactures a sustained overload.
	QueryDelay time.Duration
	// Governance knobs, passed straight to the server.
	MaxConcurrent int
	QueueDepth    int
	QueueWait     time.Duration
	QueryTimeout  time.Duration
	// MDX is the query text every request carries.
	MDX string
}

// SoakReport is the disposition census of one soak run.
type SoakReport struct {
	Total     int
	OK        int // 200: admitted and completed
	Shed429   int // queue full
	Shed503   int // wait timeout or breaker
	Timeout   int // 504: admitted but hit the query deadline
	Cancelled int // client-side cancellations (request aborted)
	Other     map[int]int

	// AdmittedP99 is the 99th-percentile wall time of OK responses.
	AdmittedP99 time.Duration
	// Goroutine counts before the streams start and after they finish
	// and the server settles; leak detection compares them.
	GoroutineBaseline int
	GoroutineSettled  int
	// RetryAfterPresent: every shed (429/503) response carried a
	// Retry-After header.
	RetryAfterPresent bool
}

// soakPlatform slows query evaluation while honouring cancellation,
// standing in for genuinely expensive queries without needing a
// paper-scale cohort in the loop.
type soakPlatform struct {
	*core.Platform
	delay time.Duration
}

func (s *soakPlatform) QueryMDXCtx(ctx context.Context, src string) (*cube.CellSet, error) {
	if s.delay > 0 {
		select {
		case <-time.After(s.delay):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return s.Platform.QueryMDXCtx(ctx, src)
}

// RunSoak drives one overload soak against p and returns the census.
func RunSoak(p *core.Platform, cfg SoakConfig) (*SoakReport, error) {
	if cfg.Streams <= 0 || cfg.Requests <= 0 {
		return nil, fmt.Errorf("soak: Streams and Requests must be positive")
	}
	if cfg.MDX == "" {
		cfg.MDX = `SELECT {[PersonalInformation].[Gender].MEMBERS} ON COLUMNS FROM [MedicalMeasures]`
	}
	sp := &soakPlatform{Platform: p, delay: cfg.QueryDelay}
	srv := server.New(sp,
		server.WithQueryTimeout(cfg.QueryTimeout),
		server.WithAdmission(govern.NewAdmission(cfg.MaxConcurrent, cfg.QueueDepth, cfg.QueueWait)),
		server.WithLogger(log.New(io.Discard, "", 0)))
	ts := httptest.NewServer(srv)
	defer ts.Close()

	body, err := json.Marshal(map[string]string{"mdx": cfg.MDX})
	if err != nil {
		return nil, err
	}

	rep := &SoakReport{
		Other:             map[int]int{},
		RetryAfterPresent: true,
		GoroutineBaseline: runtime.NumGoroutine(),
	}
	var (
		mu        sync.Mutex
		wg        sync.WaitGroup
		latencies []time.Duration
	)
	client := ts.Client()
	for s := 0; s < cfg.Streams; s++ {
		wg.Add(1)
		go func(stream int) {
			defer wg.Done()
			for i := 0; i < cfg.Requests; i++ {
				ctx := context.Background()
				var cancel context.CancelFunc
				if cfg.CancelEvery > 0 && (i+1)%cfg.CancelEvery == 0 {
					ctx, cancel = context.WithTimeout(ctx, cfg.CancelAfter)
				}
				start := time.Now()
				req, _ := http.NewRequestWithContext(ctx, http.MethodPost,
					ts.URL+"/query", bytes.NewReader(body))
				req.Header.Set("Content-Type", "application/json")
				resp, err := client.Do(req)
				elapsed := time.Since(start)
				if cancel != nil {
					cancel()
				}
				mu.Lock()
				rep.Total++
				if err != nil {
					// Client-side cancellation aborts the transport;
					// the server sees the context die and unwinds.
					rep.Cancelled++
					mu.Unlock()
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					rep.OK++
					latencies = append(latencies, elapsed)
				case http.StatusTooManyRequests:
					rep.Shed429++
					if resp.Header.Get("Retry-After") == "" {
						rep.RetryAfterPresent = false
					}
				case http.StatusServiceUnavailable:
					rep.Shed503++
					if resp.Header.Get("Retry-After") == "" {
						rep.RetryAfterPresent = false
					}
				case http.StatusGatewayTimeout:
					rep.Timeout++
				default:
					rep.Other[resp.StatusCode]++
				}
				mu.Unlock()
			}
		}(s)
	}
	wg.Wait()

	rep.AdmittedP99 = loadgen.PercentileDuration(latencies, 99)

	// Let cancelled evaluations and keep-alive conns unwind, then take
	// the settled goroutine count (the best value seen, so scheduling
	// noise cannot manufacture a leak).
	settleDeadline := time.Now().Add(2 * time.Second)
	rep.GoroutineSettled = runtime.NumGoroutine()
	for time.Now().Before(settleDeadline) {
		if n := runtime.NumGoroutine(); n < rep.GoroutineSettled {
			rep.GoroutineSettled = n
		}
		if rep.GoroutineSettled <= rep.GoroutineBaseline {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	return rep, nil
}

// String formats the census for logs and the soak script.
func (r *SoakReport) String() string {
	return fmt.Sprintf(
		"soak: total=%d ok=%d shed429=%d shed503=%d timeout504=%d cancelled=%d other=%v p99=%v goroutines=%d->%d",
		r.Total, r.OK, r.Shed429, r.Shed503, r.Timeout, r.Cancelled, r.Other,
		r.AdmittedP99.Round(time.Millisecond), r.GoroutineBaseline, r.GoroutineSettled)
}
