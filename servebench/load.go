package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// served is one completed request as a client saw it.
type served struct {
	req     Request
	status  int
	body    []byte
	latency time.Duration
}

// closedLoop drives h from the given number of clients, each sending its
// next request only once the previous reply is back. next returns false
// when the clients should stop. Every reply is handed to onReply on the
// client's goroutine, outside the latency measurement. It returns the
// wall time from the first send until the last reply.
func closedLoop(h http.Handler, clients int, next func() (Request, bool), onReply func(served)) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				req, ok := next()
				if !ok {
					return
				}
				onReply(send(h, req))
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// send calls the handler directly, with no socket in between.
func send(h http.Handler, req Request) served {
	hr := httptest.NewRequest(http.MethodPost, req.Path, bytes.NewReader(req.Body))
	hr.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	t0 := time.Now()
	h.ServeHTTP(rec, hr)
	d := time.Since(t0)
	return served{req: req, status: rec.Code, body: rec.Body.Bytes(), latency: d}
}

// fromList replays a fixed request list once.
func fromList(reqs []Request) func() (Request, bool) {
	var mu sync.Mutex
	i := 0
	return func() (Request, bool) {
		mu.Lock()
		defer mu.Unlock()
		if i == len(reqs) {
			return Request{}, false
		}
		i++
		return reqs[i-1], true
	}
}

// until draws from a stream until the deadline passes.
func until(s *Stream, deadline time.Time) func() (Request, bool) {
	return func() (Request, bool) {
		if !time.Now().Before(deadline) {
			return Request{}, false
		}
		return s.Next(), true
	}
}

// heapSampler polls the live heap size until stopped and keeps its peak.
// runtime/metrics reads without stopping the world, so polling does not
// perturb the latencies it runs beside.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler(every time.Duration) *heapSampler {
	s := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		sample := []metrics.Sample{{Name: heapMetric}}
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			metrics.Read(sample)
			s.peak = max(s.peak, sample[0].Value.Uint64())
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// Stop ends sampling and returns the peak heap in bytes.
func (s *heapSampler) Stop() uint64 {
	close(s.stop)
	<-s.done
	return s.peak
}

// percentile returns the q-percentile of xs by nearest rank, without
// reordering xs.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
