package main

import (
	"bytes"
	"container/list"
	"strconv"
	"strings"
	"testing"
	"time"

	"macs"
	"macs/internal/isa"
	"macs/internal/lfk"
)

// streamOf draws a run's requests as the benchmark does: the warm-up
// stream from the derived seed, then n timed requests.
func streamOf(t *testing.T, workload string, seed uint64, n int) (warm, timed []Request) {
	t.Helper()
	g, err := NewGenerator(workload)
	if err != nil {
		t.Fatal(err)
	}
	warm = g.Stream(seed ^ warmSalt).Take(warmupFor(workload))
	return warm, g.Stream(seed).Take(n)
}

func TestStreamIsByteIdenticalPerSeed(t *testing.T) {
	for _, w := range workloads {
		wa, ta := streamOf(t, w, 7, 100)
		wb, tb := streamOf(t, w, 7, 100)
		a, b := append(wa, ta...), append(wb, tb...)
		for i := range a {
			if a[i].Path != b[i].Path || !bytes.Equal(a[i].Body, b[i].Body) {
				t.Fatalf("%s: request %d differs between two streams of seed 7", w, i)
			}
		}
		_, tc := streamOf(t, w, 8, 100)
		same := 0
		for i := range ta {
			if bytes.Equal(ta[i].Body, tc[i].Body) {
				same++
			}
		}
		if same == len(ta) {
			t.Errorf("%s: seeds 7 and 8 give the same stream", w)
		}
	}
}

func TestColdWorkloadsNeverRepeatASource(t *testing.T) {
	for _, w := range []string{exactCold, fastLong, exploreCold} {
		n := 3000
		if w == exploreCold {
			n = 400
		}
		warm, timed := streamOf(t, w, 3, n)
		seen := map[string]int{}
		for i, r := range append(warm, timed...) {
			src, _, _ := r.inputs()
			if j, ok := seen[src]; ok {
				t.Fatalf("%s: request %d repeats the source of request %d", w, i, j)
			}
			seen[src] = i
		}
	}
}

// TestWarmMixHitShare replays warm-mix's keys through an LRU of the
// service's default capacity: after warm-up, 60–75% of timed requests
// must find their answer cached.
func TestWarmMixHitShare(t *testing.T) {
	capacity := config().CacheSize
	for _, seed := range []uint64{1, 2, 3} {
		warm, timed := streamOf(t, warmMix, seed, 20000)
		lru := list.New()
		at := map[string]*list.Element{}
		hits := 0
		for i, r := range append(warm, timed...) {
			key := r.Path + string(r.Body)
			if e, ok := at[key]; ok {
				lru.MoveToFront(e)
				if i >= len(warm) {
					hits++
				}
				continue
			}
			at[key] = lru.PushFront(key)
			if lru.Len() > capacity {
				delete(at, lru.Remove(lru.Back()).(string))
			}
		}
		if share := float64(hits) / float64(len(timed)); share < 0.60 || share > 0.75 {
			t.Errorf("seed %d: warm-mix hit share %.3f outside [0.60, 0.75]", seed, share)
		}
	}
}

func TestEveryVariantCompilesAndVerifies(t *testing.T) {
	for _, w := range workloads {
		for _, seed := range []uint64{1, 2, 3} {
			warm, timed := streamOf(t, w, seed, 40)
			for _, r := range append(warm, timed...) {
				vls := []int{isa.VLMax}
				if r.Tier == "" {
					vls = []int{32, 64, 128}
				}
				src, _, _ := r.inputs()
				for _, vl := range vls {
					opts := macs.DefaultCompilerOptions()
					opts.VL = vl
					p, err := macs.Compile(src, opts)
					if err == nil {
						err = macs.VerifyProgram(p)
					}
					if err != nil {
						t.Fatalf("%s seed %d lfk%d at VL %d: %v\n%s", w, seed, r.Kernel, vl, err, src)
					}
				}
			}
		}
	}
}

// TestShapesMatchTheKernels pins each kernel's shape to its definition:
// at the paper's trip count it fits the declared arrays and reproduces
// the iteration count.
func TestShapesMatchTheKernels(t *testing.T) {
	for _, k := range lfk.All() {
		sh := shapes[k.ID]
		if got := sh.elements(k.N); got != int64(k.Elements) {
			t.Errorf("lfk%d: shape gives %d iterations, kernel %d", k.ID, got, k.Elements)
		}
		for _, line := range strings.Split(k.Source, "\n") {
			if !strings.HasPrefix(line, "REAL ") {
				continue
			}
			for _, m := range declRE.FindAllStringSubmatch(line, -1) {
				dims := strings.Split(m[2], ",")
				for i, d := range sh.needs(k.N)[m[1]] {
					decl, err := strconv.ParseInt(dims[i], 10, 64)
					if err != nil || d > decl {
						t.Errorf("lfk%d: %s dimension %d needs %d, declared %s", k.ID, m[1], i+1, d, dims[i])
					}
				}
			}
		}
	}
}

// TestRunsAreCorrect drives every workload end to end and traced for a
// short window and requires every answer to pass the checker.
func TestRunsAreCorrect(t *testing.T) {
	if testing.Short() {
		t.Skip("drives the service")
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			g, err := NewGenerator(w)
			if err != nil {
				t.Fatal(err)
			}
			b := &bench{workload: w, window: 400 * time.Millisecond}
			b.warm = g.Stream(1 ^ warmSalt).Take(warmupFor(w))
			b.timed = g.Stream(1)
			var res result
			if trace {
				res = b.traced()
			} else {
				res = b.endToEnd()
			}
			if len(b.failures) > 0 || b.attempted == 0 {
				t.Fatalf("%s trace=%v: %d of %d failed: %v", w, trace, b.failed, b.attempted, b.failures)
			}
			if !trace && res.Metrics["req_per_s"].Value <= 0 {
				t.Errorf("%s: no requests completed", w)
			}
			if trace && w != warmMix && res.Metrics["service.cache_hit_ratio"].Value != 0 {
				t.Errorf("%s: cold workload hit the cache", w)
			}
		}
	}
}
