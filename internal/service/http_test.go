package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"macs"
)

func newTestServer(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	srv := httptest.NewServer(NewHandler(s))
	t.Cleanup(func() {
		srv.Close()
		s.Close()
	})
	return s, srv
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func TestHTTPHealthz(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1, QueueSize: 4})
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}
	if m := decode[map[string]string](t, resp); m["status"] != "ok" {
		t.Fatalf("healthz body = %v", m)
	}
}

func TestHTTPAnalyzeRoundTrip(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 2, QueueSize: 8})
	req := AnalyzeRequest{Source: saxpySrc, Iterations: 32,
		Prime: Priming{Ints: map[string]int64{"N": 32}, Reals: map[string]float64{"A": 1.5}}}

	resp := postJSON(t, srv.URL+"/v1/analyze", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze status = %d", resp.StatusCode)
	}
	r1 := decode[AnalyzeResponse](t, resp)
	if r1.Bounds.TMACS <= 0 || r1.Cycles <= 0 || r1.Cached {
		t.Fatalf("implausible first response: %+v", r1)
	}
	if !strings.Contains(r1.Report, "t_MACS") {
		t.Fatalf("report missing hierarchy: %q", r1.Report)
	}

	r2 := decode[AnalyzeResponse](t, postJSON(t, srv.URL+"/v1/analyze", req))
	if !r2.Cached {
		t.Fatal("second identical request not served from cache")
	}

	// The cache hit is visible on /metrics.
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	snap := decode[Snapshot](t, mresp)
	if snap.Cache.Hits < 1 || snap.PipelineRuns != 1 {
		t.Fatalf("metrics: %+v; want >=1 cache hit and exactly 1 pipeline run", snap.Cache)
	}
	if ep, ok := snap.Endpoints["analyze"]; !ok || ep.Count != 2 {
		t.Fatalf("endpoint metrics = %+v; want analyze count 2", snap.Endpoints)
	}
}

func TestHTTPBoundAndErrors(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1, QueueSize: 4})

	r := decode[BoundResponse](t, postJSON(t, srv.URL+"/v1/bound", BoundRequest{Source: saxpySrc}))
	if r.Bounds.TMACS <= 0 {
		t.Fatalf("bound response: %+v", r)
	}

	// Malformed body → 400.
	resp, err := http.Post(srv.URL+"/v1/bound", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body status = %d; want 400", resp.StatusCode)
	}

	// Source the pipeline rejects → 422.
	resp = postJSON(t, srv.URL+"/v1/bound", BoundRequest{Source: "PROGRAM P\nEND\n"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("loop-less source status = %d; want 422", resp.StatusCode)
	}
}

func TestHTTPQueueFull429(t *testing.T) {
	s, srv := newTestServer(t, Config{Workers: 1, QueueSize: 1})
	release := make(chan struct{})
	defer close(release)
	if err := s.pool.Submit(context.Background(), func(context.Context) { <-release }); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return s.pool.Stats().InFlight == 1 })
	if err := s.pool.Submit(context.Background(), func(context.Context) {}); err != nil {
		t.Fatal(err)
	}

	resp := postJSON(t, srv.URL+"/v1/analyze", AnalyzeRequest{Source: saxpySrc})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full-queue status = %d; want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 response missing Retry-After header")
	}
}

func TestHTTPLFK(t *testing.T) {
	if testing.Short() {
		t.Skip("full kernel run in -short mode")
	}
	_, srv := newTestServer(t, Config{Workers: 2, QueueSize: 8})
	resp, err := http.Get(srv.URL + "/v1/lfk/12")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("lfk status = %d", resp.StatusCode)
	}
	r := decode[LFKResponse](t, resp)
	if r.ID != 12 || !r.Validated || r.Bounds.TMACS <= 0 || r.TP <= 0 {
		t.Fatalf("lfk response: %+v", r)
	}
	if r.Diagnosis == "" {
		t.Fatal("lfk response missing diagnosis")
	}

	// Unknown / excluded kernel → 422; junk id → 400.
	resp, err = http.Get(srv.URL + "/v1/lfk/5")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("lfk/5 status = %d; want 422", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/v1/lfk/abc")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("lfk/abc status = %d; want 400", resp.StatusCode)
	}
}

func TestHTTPCheck(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1, QueueSize: 4})
	resp := postJSON(t, srv.URL+"/v1/check", CheckRequest{Source: saxpySrc})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("check status = %d", resp.StatusCode)
	}
	r := decode[CheckResponse](t, resp)
	if !r.OK {
		t.Fatalf("compiled SAXPY does not verify clean: %+v", r.Diagnostics)
	}
	if r.Cached {
		t.Fatal("first check served from cache")
	}
	for _, d := range r.Diagnostics {
		if d.Severity == macs.SevError {
			t.Errorf("unexpected error diagnostic: %+v", d)
		}
	}
	r2 := decode[CheckResponse](t, postJSON(t, srv.URL+"/v1/check", CheckRequest{Source: saxpySrc}))
	if !r2.Cached {
		t.Fatal("second identical check not served from cache")
	}

	// A source the compiler rejects is still a plain 422.
	resp = postJSON(t, srv.URL+"/v1/check", CheckRequest{Source: "PROGRAM P\nDO K = oops(\nEND\n"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("loop-less source status = %d; want 422", resp.StatusCode)
	}
}

func TestWriteServiceErrorVerify(t *testing.T) {
	// A program rejected by the static checker answers 422 with the full
	// diagnostic list in the body, not just an error string.
	verr := &macs.VerifyError{Diags: []macs.Diagnostic{
		{Severity: macs.SevError, Instr: 3, Message: "use of s1 before definition"},
		{Severity: macs.SevWarning, Instr: 5, Message: "stride warning"},
	}}
	rec := httptest.NewRecorder()
	writeServiceError(rec, fmt.Errorf("analyze: %w", verr))
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("verify rejection status = %d; want 422", rec.Code)
	}
	var body struct {
		Error       string            `json:"error"`
		Diagnostics []macs.Diagnostic `json:"diagnostics"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if len(body.Diagnostics) != 2 || body.Diagnostics[0].Message != "use of s1 before definition" {
		t.Fatalf("422 body diagnostics = %+v", body.Diagnostics)
	}
}

func TestHTTPRecoverPanic(t *testing.T) {
	// The outermost middleware turns a handler panic into a 500.
	log := slog.New(slog.NewTextHandler(io.Discard, nil))
	h := recoverPanic(log, http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("boom")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/analyze", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler status = %d; want 500", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "internal error") {
		t.Fatalf("500 body = %q", rec.Body.String())
	}
}

func TestHTTPPayloadTooLarge(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1, QueueSize: 4})
	// A body over maxBodyBytes must come back as 413, not 400.
	big := `{"source":"` + strings.Repeat("C", maxBodyBytes+1) + `"}`
	resp, err := http.Post(srv.URL+"/v1/analyze", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body status = %d; want 413", resp.StatusCode)
	}
	// A small malformed body is still a plain 400.
	resp2, err := http.Post(srv.URL+"/v1/analyze", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body status = %d; want 400", resp2.StatusCode)
	}
}

func TestHTTPAnalyzeAttribution(t *testing.T) {
	s, srv := newTestServer(t, Config{Workers: 2, QueueSize: 8})
	req := AnalyzeRequest{Source: saxpySrc, Iterations: 2048,
		Prime: Priming{Ints: map[string]int64{"N": 2048}, Reals: map[string]float64{"A": 1.5}}}
	resp := postJSON(t, srv.URL+"/v1/analyze", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze status = %d", resp.StatusCode)
	}
	r := decode[AnalyzeResponse](t, resp)
	if len(r.Attribution) == 0 {
		t.Fatal("analyze response has empty attribution breakdown")
	}
	// The lane-summed ledger is conserved: it covers 4 lanes x Cycles.
	var sum int64
	for _, v := range r.Attribution {
		sum += v
	}
	if want := 4 * r.Cycles; sum != want {
		t.Errorf("attribution sum = %d, want 4*cycles = %d", sum, want)
	}
	if r.Attribution["issue"] == 0 {
		t.Error("attribution missing issue cycles")
	}
	// Refresh runs 8 of every 400 cycles: its share of run time on a long
	// memory-streaming kernel sits near that 2% duty cycle.
	share := float64(r.Attribution["refresh"]) / float64(r.Cycles)
	if share < 0.005 || share > 0.04 {
		t.Errorf("refresh share = %.4f of cycles, want ~0.02", share)
	}
	// The aggregate counters on /metrics saw the same run.
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	m := decode[Snapshot](t, mresp)
	if m.StallCycles["refresh"] != r.Attribution["refresh"] {
		t.Errorf("metrics stall_cycles[refresh] = %d, want %d", m.StallCycles["refresh"], r.Attribution["refresh"])
	}
	// A cache hit must not double-count the aggregate.
	resp2 := postJSON(t, srv.URL+"/v1/analyze", req)
	r2 := decode[AnalyzeResponse](t, resp2)
	if !r2.Cached {
		t.Fatal("second identical request missed the cache")
	}
	if got := s.stallCycles()["refresh"]; got != r.Attribution["refresh"] {
		t.Errorf("cache hit inflated stall_cycles[refresh]: %d vs %d", got, r.Attribution["refresh"])
	}
}

// TestHTTPAnalyzeTierQueryParam: ?tier= selects the serving tier over
// HTTP, overrides the body, and the fast_tier metrics section reflects
// the auto-tier divergence samples.
func TestHTTPAnalyzeTierQueryParam(t *testing.T) {
	s, srv := newTestServer(t, Config{Workers: 2, QueueSize: 8})
	req := AnalyzeRequest{Source: saxpySrc, Iterations: 32,
		Prime: Priming{Ints: map[string]int64{"N": 32}}, Tier: "exact"}

	resp := postJSON(t, srv.URL+"/v1/analyze?tier=fast", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tier=fast status = %d", resp.StatusCode)
	}
	r := decode[AnalyzeResponse](t, resp)
	if r.Tier != "fast" {
		t.Fatalf("tier = %q, want fast (query param overrides body)", r.Tier)
	}
	if r.PredictedCPL <= 0 || r.Cycles <= 0 {
		t.Fatalf("fast response missing prediction: %+v", r)
	}

	// A different iteration count is a different cache key, so the auto
	// request runs a fresh prediction and spawns one verification.
	autoReq := req
	autoReq.Iterations = 64
	resp = postJSON(t, srv.URL+"/v1/analyze?tier=auto", autoReq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tier=auto status = %d", resp.StatusCode)
	}
	if r = decode[AnalyzeResponse](t, resp); r.Tier != "auto" {
		t.Fatalf("tier = %q, want auto", r.Tier)
	}
	s.verifyWG.Wait()

	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	m := decode[Snapshot](t, mresp)
	if m.FastTier.Served != 2 || m.FastTier.Verified != 1 {
		t.Fatalf("fast_tier = %+v, want served = 2 and verified = 1", m.FastTier)
	}
	for class, d := range m.FastTier.Classes {
		if d.MaxRelErr != 0 {
			t.Fatalf("class %s max_rel_err = %g, want exactly 0", class, d.MaxRelErr)
		}
	}

	resp = postJSON(t, srv.URL+"/v1/analyze?tier=warp", req)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("unknown tier status = %d, want 422", resp.StatusCode)
	}
	resp.Body.Close()
}
