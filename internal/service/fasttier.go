package service

import (
	"context"
	"errors"
	"math"
	"sort"
	"sync"
	"time"

	"macs"
	"macs/internal/obs"
)

// This file is the serving side of the analytical fast tier: the
// tier=fast path answers from the compiled schedule in microseconds,
// and the tier=auto path serves that answer immediately while an
// asynchronous exact simulation verifies it, feeding the fast_tier
// divergence section of /metrics.

// fastTierTracker aggregates fast-tier serving counters and the
// predicted-vs-simulated divergence sampled whenever one request ran
// both tiers, grouped by the prediction's kernel class. A single-path
// prediction replays the simulator's timing equations, so its divergence
// is zero; any nonzero sample is a bug in one tier or the other.
type fastTierTracker struct {
	mu        sync.Mutex
	served    int64
	fallbacks int64
	classes   map[string]*divergenceAgg
}

type divergenceAgg struct {
	count  int64
	sumRel float64
	maxRel float64
}

func newFastTierTracker() *fastTierTracker {
	return &fastTierTracker{classes: make(map[string]*divergenceAgg)}
}

// recordServed counts one fresh fast-tier computation. Cache hits and
// singleflight waiters do not call it: a kernel replayed N times is one
// computation, not N, so the served counter tracks distinct work.
func (t *fastTierTracker) recordServed() {
	t.mu.Lock()
	t.served++
	t.mu.Unlock()
}

// recordFallback counts one auto request the fast tier could not answer
// (data-dependent timing) that was served by the simulator instead.
func (t *fastTierTracker) recordFallback() {
	t.mu.Lock()
	t.fallbacks++
	t.mu.Unlock()
}

// recordDivergence folds one predicted-vs-simulated comparison into the
// per-class aggregate.
func (t *fastTierTracker) recordDivergence(class string, relErr float64) {
	if class == "" {
		class = "unknown"
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	a, ok := t.classes[class]
	if !ok {
		a = &divergenceAgg{}
		t.classes[class] = a
	}
	a.count++
	a.sumRel += relErr
	if relErr > a.maxRel {
		a.maxRel = relErr
	}
}

func (t *fastTierTracker) snapshot() FastTierStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := FastTierStats{Served: t.served, Fallbacks: t.fallbacks}
	if len(t.classes) > 0 {
		out.Classes = make(map[string]DivergenceStats, len(t.classes))
		keys := make([]string, 0, len(t.classes))
		for class := range t.classes {
			keys = append(keys, class)
		}
		sort.Strings(keys)
		for _, class := range keys {
			a := t.classes[class]
			out.Verified += a.count
			out.Classes[class] = DivergenceStats{
				Count:      a.count,
				MeanRelErr: a.sumRel / float64(a.count),
				MaxRelErr:  a.maxRel,
			}
		}
	}
	return out
}

// analyzeFast serves one request through the analytical tier only. The
// cache key is distinct from the exact tier's — the two answer different
// questions — but shared between tier=fast and tier=auto requests, which
// compute the same prediction. The second return value reports whether
// this call ran a fresh prediction (as opposed to a cache hit or a
// singleflight attach); the serving counters and the auto tier's
// verification key off it so a kernel replayed N times lands one served
// count and one divergence sample, not N.
func (s *Service) analyzeFast(ctx context.Context, req AnalyzeRequest, tier macs.Tier) (AnalyzeResponse, bool, error) {
	start := time.Now()
	key, err := NewKey("analyze-fast", req.Source, s.cfg.Compiler, s.cfg.VM, s.cfg.Rules, req.Iterations, req.Prime)
	if err != nil {
		s.observe("analyze-fast", start, false, err)
		return AnalyzeResponse{}, false, err
	}
	v, cached, fresh, err := s.do(ctx, key, decodeJSON[AnalyzeResponse](), func() (any, error) {
		res, err := s.analyzer.PredictSourceCtx(ctx, req.Source, req.Iterations, req.Prime.fastInts())
		if err != nil && errors.Is(err, macs.ErrDataDependent) {
			// The single-path replay refused: try the path enumerator,
			// which serves a static [lo, hi] envelope when the
			// data-dependent control flow is boundedly enumerable.
			res, err = s.analyzer.PredictSourceIntervalCtx(ctx, req.Source, req.Iterations, req.Prime.fastInts())
		}
		if err != nil {
			return nil, err
		}
		p := res.Prediction
		return &AnalyzeResponse{
			Bounds:         boundsView(res.Analysis),
			PredictedCPL:   p.CPL,
			Class:          p.Class,
			Interval:       p.Interval,
			Paths:          p.Paths,
			PredictedCPLLo: p.CPLLo,
			PredictedCPLHi: p.CPLHi,
			CyclesLo:       p.CyclesLo,
			CyclesHi:       p.CyclesHi,
			Cycles:         p.Cycles,
			Iterations:     res.Iterations,
			Report:         res.Report(),
			Attribution:    p.Attr.Totals(),
		}, nil
	})
	s.observe("analyze-fast", start, cached, err)
	if err != nil {
		return AnalyzeResponse{}, false, err
	}
	resp := *v.(*AnalyzeResponse)
	resp.Tier = tier.String()
	resp.Cached = cached
	if fresh {
		s.fastTier.recordServed()
	}
	return resp, fresh, nil
}

// analyzeAuto serves the fast prediction immediately and verifies it
// against the simulator asynchronously. A program whose timing the fast
// tier cannot model falls back to the exact tier inline. Only a fresh
// prediction spawns a verification: a cached fast answer was already
// verified when it was computed, so replaying it must not add duplicate
// divergence samples.
func (s *Service) analyzeAuto(ctx context.Context, req AnalyzeRequest) (AnalyzeResponse, error) {
	resp, fresh, err := s.analyzeFast(ctx, req, macs.TierAuto)
	if err != nil {
		if errors.Is(err, macs.ErrDataDependent) {
			s.fastTier.recordFallback()
			return s.analyzeExact(ctx, req)
		}
		return AnalyzeResponse{}, err
	}
	if fresh {
		s.verifyAsync(ctx, req, resp)
	}
	return resp, nil
}

// verifyAsync runs the exact tier in the background for a fast answer
// already served, and records the relative divergence between predicted
// and simulated cycles. The exact run goes through the normal cache and
// worker pool, so a later tier=exact request for the same source is a
// cache hit. Registration is gated on the service's closed flag under
// closeMu: either the verification registers before Close flips the flag
// (and Close's verifyWG.Wait drains it), or it observes the flag and
// never starts — verifyWG.Add can no longer race Close's Wait into a
// closed pool.
func (s *Service) verifyAsync(rctx context.Context, req AnalyzeRequest, fast AnalyzeResponse) {
	s.closeMu.Lock()
	if s.closed {
		s.closeMu.Unlock()
		return
	}
	s.verifyWG.Add(1)
	s.closeMu.Unlock()
	go func() {
		defer s.verifyWG.Done()
		// WithoutCancel keeps the requester's trace values (so the
		// verification's spans land on the originating trace while it is
		// live) but detaches its deadline: the verification outlives the
		// request that spawned it.
		ctx, cancel := context.WithTimeout(context.WithoutCancel(rctx), s.cfg.RequestTimeout)
		defer cancel()
		ctx, sp := obs.Start(ctx, "verify-exact")
		exact, err := s.analyzeExact(ctx, req)
		sp.End()
		if err != nil {
			s.log.Warn("fast-tier verification failed", "err", err)
			return
		}
		if exact.Cycles <= 0 {
			return
		}
		rel := math.Abs(float64(fast.Cycles-exact.Cycles)) / float64(exact.Cycles)
		s.fastTier.recordDivergence(fast.Class, rel)
		if fast.Interval {
			// Interval answers promise containment, not a point value: the
			// simulated measurement must land inside [CyclesLo, CyclesHi].
			if exact.Cycles < fast.CyclesLo || exact.Cycles > fast.CyclesHi {
				s.log.Warn("fast-tier interval does not contain the simulated measurement",
					"class", fast.Class,
					"cycles_lo", fast.CyclesLo,
					"cycles_hi", fast.CyclesHi,
					"simulated_cycles", exact.Cycles,
				)
			}
			return
		}
		if rel != 0 {
			s.log.Warn("fast-tier prediction diverges from the simulator",
				"class", fast.Class,
				"predicted_cycles", fast.Cycles,
				"simulated_cycles", exact.Cycles,
				"rel_err", rel,
			)
		}
	}()
}
