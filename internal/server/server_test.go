package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/ddgms/ddgms/internal/core"
	"github.com/ddgms/ddgms/internal/cube"
	"github.com/ddgms/ddgms/internal/discri"
	"github.com/ddgms/ddgms/internal/kb"
	"github.com/ddgms/ddgms/internal/star"
)

func testPlatform(t *testing.T) *core.Platform {
	t.Helper()
	dcfg := discri.DefaultConfig()
	dcfg.Patients = 120
	p, err := core.NewDiScRiPlatform(core.Config{}, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

func serveHandler(t *testing.T, h http.Handler) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts
}

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	return serveHandler(t, New(testPlatform(t)))
}

// slowPlatform injects latency into the cube: what /query degradation
// looks like when an expensive or wedged evaluation holds the engine.
// The injected delay honours the query context, like the real kernel
// does, so cancellation tests exercise the cooperative path.
type slowPlatform struct {
	*core.Platform
	delay time.Duration
}

func (p *slowPlatform) QueryMDXCtx(ctx context.Context, src string) (*cube.CellSet, error) {
	select {
	case <-time.After(p.delay):
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return p.Platform.QueryMDXCtx(ctx, src)
}

// panicPlatform blows up in the evaluator or in the schema handler.
type panicPlatform struct {
	*core.Platform
	panicWarehouse bool
}

func (p *panicPlatform) QueryMDXCtx(context.Context, string) (*cube.CellSet, error) {
	panic("cube exploded")
}

func (p *panicPlatform) Warehouse() *star.Schema {
	if p.panicWarehouse {
		panic("schema exploded")
	}
	return p.Platform.Warehouse()
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func postJSON(t *testing.T, url string, body any, out any) int {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding response of %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func TestHealth(t *testing.T) {
	ts := testServer(t)
	var body map[string]string
	if code := getJSON(t, ts.URL+"/healthz", &body); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if body["status"] != "ok" {
		t.Errorf("body = %v", body)
	}
}

func TestHealthDeep(t *testing.T) {
	p := testPlatform(t)
	ts := serveHandler(t, New(p))
	var body map[string]string
	if code := getJSON(t, ts.URL+"/healthz?deep=1", &body); code != http.StatusOK {
		t.Fatalf("deep status = %d (%v)", code, body)
	}
	if body["warehouse"] != "ready" || body["store"] != "open" {
		t.Errorf("deep body = %v", body)
	}
	// Closing the platform releases the store: liveness stays ok, deep
	// readiness flips to 503 — the distinction ops page on.
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Errorf("liveness after close = %d", code)
	}
	if code := getJSON(t, ts.URL+"/healthz?deep=1", &body); code != http.StatusServiceUnavailable {
		t.Errorf("deep after close = %d (%v)", code, body)
	}
	if body["status"] != "degraded" {
		t.Errorf("deep body after close = %v", body)
	}
}

func TestQueryTimeout(t *testing.T) {
	quiet := log.New(io.Discard, "", 0)
	p := &slowPlatform{Platform: testPlatform(t), delay: 300 * time.Millisecond}
	ts := serveHandler(t, New(p, WithQueryTimeout(30*time.Millisecond), WithLogger(quiet)))
	var errBody errorBody
	code := postJSON(t, ts.URL+"/query", queryRequest{MDX: `
		SELECT {[PersonalInformation].[Gender].MEMBERS} ON COLUMNS
		FROM [MedicalMeasures]`}, &errBody)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("slow query status = %d, want 504", code)
	}
	if !strings.Contains(errBody.Error, "timed out") {
		t.Errorf("error = %q", errBody.Error)
	}
}

// TestTracedQueryHonoursWrapper: ?trace=1 carries its span in the query
// context, so a wrapper that overrides only QueryMDXCtx intercepts traced
// requests too — the slow wrapper times out and the panicking one answers
// 500, instead of the embedded platform answering 200.
func TestTracedQueryHonoursWrapper(t *testing.T) {
	quiet := log.New(io.Discard, "", 0)
	base := testPlatform(t)
	slow := serveHandler(t, New(&slowPlatform{Platform: base, delay: 300 * time.Millisecond},
		WithQueryTimeout(30*time.Millisecond), WithLogger(quiet)))
	if code := postJSON(t, slow.URL+"/query?trace=1", queryRequest{MDX: genderMDX}, nil); code != http.StatusGatewayTimeout {
		t.Errorf("traced query through slow wrapper: status = %d, want 504", code)
	}
	panicky := serveHandler(t, New(&panicPlatform{Platform: base}, WithLogger(quiet)))
	if code := postJSON(t, panicky.URL+"/query?trace=1", queryRequest{MDX: genderMDX}, nil); code != http.StatusInternalServerError {
		t.Errorf("traced query through panicking wrapper: status = %d, want 500", code)
	}
}

func TestQueryPanicAnswers500(t *testing.T) {
	quiet := log.New(io.Discard, "", 0)
	p := &panicPlatform{Platform: testPlatform(t)}
	ts := serveHandler(t, New(p, WithLogger(quiet)))
	var errBody errorBody
	code := postJSON(t, ts.URL+"/query", queryRequest{MDX: "SELECT x"}, &errBody)
	if code != http.StatusInternalServerError {
		t.Fatalf("panicking query status = %d, want 500", code)
	}
	if !strings.Contains(errBody.Error, "panicked") {
		t.Errorf("error = %q", errBody.Error)
	}
	// The server survives and keeps answering.
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Errorf("healthz after panic = %d", code)
	}
}

func TestHandlerPanicRecovered(t *testing.T) {
	quiet := log.New(io.Discard, "", 0)
	p := &panicPlatform{Platform: testPlatform(t), panicWarehouse: true}
	ts := serveHandler(t, New(p, WithLogger(quiet)))
	resp, err := http.Get(ts.URL + "/schema")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking handler status = %d, want 500", resp.StatusCode)
	}
	var errBody errorBody
	if err := json.NewDecoder(resp.Body).Decode(&errBody); err != nil {
		t.Fatalf("500 body is not the JSON error envelope: %v", err)
	}
}

func TestPostBodyCapped(t *testing.T) {
	ts := serveHandler(t, New(testPlatform(t), WithMaxBodyBytes(128)))
	big := `{"mdx": "` + strings.Repeat("X", 4096) + `"}`
	resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body status = %d, want 413", resp.StatusCode)
	}
	// A normal-sized query still works.
	if code := postJSON(t, ts.URL+"/query", queryRequest{MDX: `
		SELECT {[PersonalInformation].[Gender].MEMBERS} ON COLUMNS
		FROM [MedicalMeasures]`}, nil); code != http.StatusOK {
		t.Errorf("normal body status = %d", code)
	}
}

func TestShutdownDrains(t *testing.T) {
	p := &slowPlatform{Platform: testPlatform(t), delay: 150 * time.Millisecond}
	srv := New(p, WithQueryTimeout(5*time.Second))
	ts := serveHandler(t, srv)

	var wg sync.WaitGroup
	wg.Add(1)
	var inflightCode int
	go func() {
		defer wg.Done()
		inflightCode = postJSON(t, ts.URL+"/query", queryRequest{MDX: `
			SELECT {[PersonalInformation].[Gender].MEMBERS} ON COLUMNS
			FROM [MedicalMeasures]`}, nil)
	}()
	time.Sleep(50 * time.Millisecond) // let the slow query get admitted

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	wg.Wait()
	if inflightCode != http.StatusOK {
		t.Errorf("in-flight query during drain = %d, want 200", inflightCode)
	}
	// After the drain, new requests are refused.
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusServiceUnavailable {
		t.Errorf("request after shutdown = %d, want 503", code)
	}
}

func TestShutdownDrainTimeout(t *testing.T) {
	p := &slowPlatform{Platform: testPlatform(t), delay: 500 * time.Millisecond}
	srv := New(p, WithQueryTimeout(5*time.Second))
	ts := serveHandler(t, srv)

	done := make(chan struct{})
	go func() {
		defer close(done)
		postJSON(t, ts.URL+"/query", queryRequest{MDX: "SELECT x"}, nil)
	}()
	time.Sleep(50 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); err == nil {
		t.Error("Shutdown with expired context reported a clean drain")
	}
	<-done
}

func TestSchema(t *testing.T) {
	ts := testServer(t)
	var doc schemaDoc
	if code := getJSON(t, ts.URL+"/schema", &doc); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if doc.Fact != "MedicalMeasures" || doc.Facts == 0 {
		t.Errorf("fact = %q (%d rows)", doc.Fact, doc.Facts)
	}
	if len(doc.Dimensions) != 8 {
		t.Errorf("dimensions = %d", len(doc.Dimensions))
	}
	foundHierarchy := false
	for _, d := range doc.Dimensions {
		if d.Name == "PersonalInformation" && len(d.Hierarchies) == 1 {
			foundHierarchy = true
		}
	}
	if !foundHierarchy {
		t.Error("Age hierarchy not exposed")
	}
}

func TestQuery(t *testing.T) {
	ts := testServer(t)
	var doc cellSetDoc
	code := postJSON(t, ts.URL+"/query", queryRequest{MDX: `
		SELECT {[PersonalInformation].[Gender].MEMBERS} ON COLUMNS
		FROM [MedicalMeasures] WHERE [Measures].[PatientCount]`}, &doc)
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if len(doc.ColHeaders) != 2 {
		t.Errorf("columns = %v", doc.ColHeaders)
	}
	total := 0.0
	for _, row := range doc.Cells {
		for _, c := range row {
			if f, ok := c.(float64); ok {
				total += f
			}
		}
	}
	if total != 120 {
		t.Errorf("patient total = %g, want 120", total)
	}
}

func TestQueryErrors(t *testing.T) {
	ts := testServer(t)
	var errBody errorBody
	if code := postJSON(t, ts.URL+"/query", queryRequest{MDX: "SELECT nonsense"}, &errBody); code != http.StatusBadRequest {
		t.Errorf("bad MDX status = %d", code)
	}
	if errBody.Error == "" {
		t.Error("error body empty")
	}
	if code := postJSON(t, ts.URL+"/query", queryRequest{}, nil); code != http.StatusBadRequest {
		t.Errorf("empty MDX status = %d", code)
	}
	// Malformed JSON.
	resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON status = %d", resp.StatusCode)
	}
	// Wrong method.
	resp, err = http.Get(ts.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /query status = %d", resp.StatusCode)
	}
}

func TestFindingsLifecycle(t *testing.T) {
	ts := testServer(t)
	var created map[string]string
	code := postJSON(t, ts.URL+"/findings", findingRequest{
		Topic: "diabetes", Statement: "gender effect in 70-80", Source: "api",
	}, &created)
	if code != http.StatusCreated {
		t.Fatalf("create status = %d", code)
	}
	id := created["id"]
	if id == "" {
		t.Fatal("no id returned")
	}
	// Search finds it.
	var hits []kb.Finding
	if code := getJSON(t, ts.URL+"/findings?q=gender", &hits); code != http.StatusOK {
		t.Fatalf("search status = %d", code)
	}
	if len(hits) != 1 || hits[0].ID != id {
		t.Errorf("search hits = %+v", hits)
	}
	// Reinforce twice -> established (default threshold 3).
	var f kb.Finding
	postJSON(t, ts.URL+"/findings/reinforce", reinforceRequest{ID: id}, nil)
	if code := postJSON(t, ts.URL+"/findings/reinforce", reinforceRequest{ID: id}, &f); code != http.StatusOK {
		t.Fatalf("reinforce status = %d", code)
	}
	if f.Status != kb.Established {
		t.Errorf("status after reinforcement = %s", f.Status)
	}
	// Unknown id.
	if code := postJSON(t, ts.URL+"/findings/reinforce", reinforceRequest{ID: "F9999"}, nil); code != http.StatusNotFound {
		t.Errorf("unknown id status = %d", code)
	}
	// Invalid finding.
	if code := postJSON(t, ts.URL+"/findings", findingRequest{}, nil); code != http.StatusBadRequest {
		t.Errorf("empty finding status = %d", code)
	}
}
