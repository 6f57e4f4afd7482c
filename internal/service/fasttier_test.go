package service

import (
	"context"
	"testing"
)

// dataDepSrc branches on a floating-point comparison the single-path
// replay cannot resolve — but both branch outcomes converge, so the
// interval enumerator serves it with a two-path [lo, hi] envelope
// instead of refusing.
const dataDepSrc = `
PROGRAM DATADEP
REAL X(128), S
INTEGER N, K
DO K = 1, N
  X(K) = X(K) + S
ENDDO
IF (S .LT. 1.0) GOTO 10
10 CONTINUE
END
`

// unboundedSrc re-decides a floating-point comparison on every trip of a
// backward branch: its data-dependent control flow is not boundedly
// enumerable, so even the interval enumerator refuses and an auto
// request must fall back to the simulator.
const unboundedSrc = `
PROGRAM UNBND
REAL X(128), S
INTEGER N, K
DO K = 1, N
  X(K) = X(K) + S
ENDDO
100 CONTINUE
S = S + 1.0
IF (S .LT. X(1)) GOTO 100
END
`

func TestAnalyzeFastTier(t *testing.T) {
	s := newTestService(t, Config{Workers: 2, QueueSize: 8})
	req := AnalyzeRequest{
		Source:     saxpySrc,
		Iterations: 64,
		Prime:      Priming{Ints: map[string]int64{"N": 64}},
		Tier:       "fast",
	}
	r1, err := s.Analyze(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Tier != "fast" {
		t.Fatalf("tier = %q, want fast", r1.Tier)
	}
	if r1.PredictedCPL <= 0 || r1.Cycles <= 0 {
		t.Fatalf("implausible fast result: %+v", r1)
	}
	if r1.MeasuredCPL != 0 {
		t.Fatalf("fast tier reported a measured CPL %g without simulating", r1.MeasuredCPL)
	}
	if r1.Bounds.TMACS <= 0 {
		t.Fatalf("fast tier lost the bounds hierarchy: %+v", r1.Bounds)
	}
	if len(r1.Attribution) == 0 {
		t.Fatal("fast tier returned no predicted attribution")
	}
	r2, err := s.Analyze(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Cached {
		t.Fatal("identical second fast request missed the cache")
	}
	// served counts fresh computations, not requests: the replay was a
	// cache hit, so two requests pin the counter at exactly 1.
	m := s.Metrics()
	if m.FastTier.Served != 1 {
		t.Fatalf("fast_tier.served = %d, want 1 (cache hits must not count)", m.FastTier.Served)
	}
}

// TestAnalyzeAutoTier: an auto request answers with the fast prediction
// immediately and the asynchronous exact verification lands a divergence
// sample on /metrics — and warms the exact-tier cache.
func TestAnalyzeAutoTier(t *testing.T) {
	s := newTestService(t, Config{Workers: 2, QueueSize: 8})
	req := AnalyzeRequest{
		Source:     saxpySrc,
		Iterations: 64,
		Prime:      Priming{Ints: map[string]int64{"N": 64}},
		Tier:       "auto",
	}
	r, err := s.Analyze(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if r.Tier != "auto" {
		t.Fatalf("tier = %q, want auto", r.Tier)
	}
	if r.PredictedCPL <= 0 || r.Cycles <= 0 {
		t.Fatalf("implausible auto result: %+v", r)
	}

	s.verifyWG.Wait() // let the async exact verification finish

	m := s.Metrics()
	ft := m.FastTier
	if ft.Verified != 1 {
		t.Fatalf("fast_tier.verified = %d, want 1", ft.Verified)
	}
	d, ok := ft.Classes[r.Class]
	if !ok {
		t.Fatalf("fast_tier.classes missing %q: %+v", r.Class, ft.Classes)
	}
	if d.Count != 1 {
		t.Fatalf("class %s divergence count = %d, want 1", r.Class, d.Count)
	}
	// The replay ports the simulator's timing equations exactly, so the
	// divergence must be zero.
	if d.MaxRelErr != 0 {
		t.Fatalf("divergence %g, want exactly 0", d.MaxRelErr)
	}

	// Replaying the same auto request N times serves from the cache and
	// must not add divergence samples: one kernel is one sample, however
	// often it is replayed.
	for i := 0; i < 3; i++ {
		rr, err := s.Analyze(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if !rr.Cached {
			t.Fatalf("auto replay %d missed the cache", i)
		}
	}
	s.verifyWG.Wait()
	m = s.Metrics()
	if m.FastTier.Verified != 1 {
		t.Fatalf("fast_tier.verified = %d after replays, want 1 (replays must not add samples)", m.FastTier.Verified)
	}
	if d := m.FastTier.Classes[r.Class]; d.Count != 1 {
		t.Fatalf("class %s divergence count = %d after replays, want 1", r.Class, d.Count)
	}
	if m.FastTier.Served != 1 {
		t.Fatalf("fast_tier.served = %d after replays, want 1", m.FastTier.Served)
	}

	// The verification ran through the normal exact path: a follow-up
	// exact request is a cache hit.
	exact, err := s.Analyze(context.Background(), AnalyzeRequest{
		Source:     req.Source,
		Iterations: req.Iterations,
		Prime:      req.Prime,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !exact.Cached {
		t.Fatal("exact request after auto verification missed the cache")
	}
	if exact.Tier != "exact" {
		t.Fatalf("exact response tier = %q", exact.Tier)
	}
	// Predicted and simulated cycles agree bit-exactly for this kernel.
	if exact.Cycles != r.Cycles {
		t.Fatalf("predicted %d cycles, simulated %d", r.Cycles, exact.Cycles)
	}
}

// TestAnalyzeFastInterval: a program the single-path replay refuses as
// data-dependent is now served by the interval enumerator with a static
// [lo, hi] bound — and that bound contains the simulator's measurement.
func TestAnalyzeFastInterval(t *testing.T) {
	s := newTestService(t, Config{Workers: 2, QueueSize: 8})
	req := AnalyzeRequest{
		Source:     dataDepSrc,
		Iterations: 16,
		Prime:      Priming{Ints: map[string]int64{"N": 16}},
		Tier:       "fast",
	}
	r, err := s.Analyze(context.Background(), req)
	if err != nil {
		t.Fatalf("interval-servable program refused: %v", err)
	}
	if !r.Interval {
		t.Fatalf("response not marked interval: %+v", r)
	}
	if r.Paths < 2 {
		t.Fatalf("paths = %d, want >= 2 (one per branch outcome)", r.Paths)
	}
	if r.CyclesLo <= 0 || r.CyclesLo > r.CyclesHi || r.Cycles != r.CyclesHi {
		t.Fatalf("implausible interval: lo=%d hi=%d point=%d", r.CyclesLo, r.CyclesHi, r.Cycles)
	}
	if r.PredictedCPLLo <= 0 || r.PredictedCPLLo > r.PredictedCPLHi {
		t.Fatalf("implausible CPL interval: [%g, %g]", r.PredictedCPLLo, r.PredictedCPLHi)
	}

	// Containment: the simulated measurement lands inside the bound.
	req.Tier = "exact"
	exact, err := s.Analyze(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if exact.Cycles < r.CyclesLo || exact.Cycles > r.CyclesHi {
		t.Fatalf("simulated %d cycles outside interval [%d, %d]",
			exact.Cycles, r.CyclesLo, r.CyclesHi)
	}
	if m := s.Metrics(); m.FastTier.Fallbacks != 0 {
		t.Fatalf("interval serving counted %d fallbacks, want 0", m.FastTier.Fallbacks)
	}
}

// TestAnalyzeAutoFallback: a program whose data-dependent control flow
// is not boundedly enumerable cannot be served by the fast tier at all;
// auto falls back to the simulator inline and counts the fallback on
// /metrics.
func TestAnalyzeAutoFallback(t *testing.T) {
	s := newTestService(t, Config{Workers: 2, QueueSize: 8})
	req := AnalyzeRequest{
		Source: unboundedSrc,
		Prime:  Priming{Ints: map[string]int64{"N": 16}},
		Tier:   "auto",
	}
	r, err := s.Analyze(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if r.Tier != "exact" {
		t.Fatalf("fallback response tier = %q, want exact", r.Tier)
	}
	if r.Cycles <= 0 {
		t.Fatalf("fallback produced no simulation: %+v", r)
	}
	if r.PredictedCPL != 0 {
		t.Fatalf("fallback carries a prediction: %+v", r)
	}
	m := s.Metrics()
	if m.FastTier.Fallbacks != 1 {
		t.Fatalf("fast_tier.fallbacks = %d, want 1", m.FastTier.Fallbacks)
	}

	// An explicit tier=fast request for the same program is an error, not
	// a silent fallback.
	req.Tier = "fast"
	if _, err := s.Analyze(context.Background(), req); err == nil {
		t.Fatal("tier=fast on a data-dependent program succeeded; want error")
	}
}

func TestAnalyzeTierValidationAndDefault(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, QueueSize: 4})
	if _, err := s.Analyze(context.Background(), AnalyzeRequest{Source: saxpySrc, Tier: "warp"}); err == nil {
		t.Fatal("unknown tier accepted")
	}

	// A service configured with DefaultTier "fast" serves untagged
	// requests through the fast tier.
	fastDefault := newTestService(t, Config{Workers: 1, QueueSize: 4, DefaultTier: "fast"})
	r, err := fastDefault.Analyze(context.Background(), AnalyzeRequest{
		Source: saxpySrc,
		Prime:  Priming{Ints: map[string]int64{"N": 32}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Tier != "fast" {
		t.Fatalf("default-tier response tier = %q, want fast", r.Tier)
	}
	// An explicit tier in the request still wins over the default.
	r, err = fastDefault.Analyze(context.Background(), AnalyzeRequest{
		Source: saxpySrc,
		Prime:  Priming{Ints: map[string]int64{"N": 32}},
		Tier:   "exact",
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Tier != "exact" {
		t.Fatalf("explicit exact tier served as %q", r.Tier)
	}
}
