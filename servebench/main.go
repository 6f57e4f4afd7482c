// Command servebench is the repository's cold-request benchmark: it drives
// the MACS serving stack (service.NewHandler over service.New with
// production defaults) in one process, calling ServeHTTP directly, with a
// closed loop of clients that each wait for their reply. It checks every
// answer and prints the end-to-end metrics, or, with -trace 1, the
// per-layer metrics of a traced replay. See README.md for the workloads
// and for which layer metric should move which end-to-end metric.
//
//	go run . -workload exact-cold -seed 1 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"macs/internal/service"
)

// workers is the service's worker count: one per CPU of the 2-core
// machine the benchmark is sized for, fixed so runs compare across hosts.
const workers = 2

// memLimit is the soft heap limit a deployment on a shared 2-core host
// would set (GOMEMLIMIT). Without it, explore-cold's per-machine
// simulator pools, each CPU holding a 16 MiB memory image, push the heap
// past 2 GiB within seconds; under it the collector works harder instead,
// which the throughput metrics show.
const memLimit = 1 << 30

// setups is how many times a run builds and warms a service; setup_s is
// their median.
const setups = 5

// clientsFor is the closed loop's width: two callers, except for sweeps,
// which already fan out over both service workers.
func clientsFor(workload string) int {
	if workload == exploreCold {
		return 1
	}
	return 2
}

// warmupFor is the fixed warm-up request count: enough to create the
// simulator pools, stall tables and prediction state a workload touches
// (and, on warm-mix, to fill the cache with the popular input sets).
func warmupFor(workload string) int {
	switch workload {
	case exactCold:
		return 200
	case fastLong:
		return 60
	case exploreCold:
		return 6
	}
	return 600
}

// warmSalt derives the warm-up seed, disjoint from the timed seed.
const warmSalt = 0x9e3779b97f4a7c15

// maxSampled caps the seeded sample's re-derivations with
// macs.AnalyzeSourceVM, so a run stays well inside its time budget.
const maxSampled = 48

func main() {
	workload := flag.String("workload", exactCold, "workload: exact-cold, fast-long, explore-cold or warm-mix")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1: traced per-layer run instead of the end-to-end run")
	flag.Parse()
	debug.SetMemoryLimit(memLimit)
	gen, err := NewGenerator(*workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(2)
	}
	b := &bench{workload: *workload, window: time.Duration(*seconds * float64(time.Second))}
	b.warm = gen.Stream(*seed ^ warmSalt).Take(warmupFor(*workload))
	b.timed = gen.Stream(*seed)
	var res result
	if *trace == 1 {
		res = b.traced()
	} else {
		res = b.endToEnd()
	}
	for _, err := range b.failures {
		fmt.Fprintln(os.Stderr, "FAIL:", err)
	}
	res.Correct = b.failed == 0
	res.Attempted, res.Failed = b.attempted, b.failed
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one run's state.
type bench struct {
	workload string
	window   time.Duration
	warm     []Request
	timed    *Stream

	svc *service.Service
	// setupSecs holds each setup's duration.
	setupSecs []float64

	mu        sync.Mutex
	attempted int
	failed    int
	failures  []error
	// sampled holds the replies kept for the deferred re-derivation.
	sampled []sampledReply
}

type sampledReply struct {
	req Request
	ans answer
}

// maxReported bounds the failures printed to standard error.
const maxReported = 20

// record checks one reply, counts it, and keeps it when the seeded sample
// picked its request; it returns the checked answer.
func (b *bench) record(s served) answer {
	a, err := checkReply(s)
	b.count(err)
	if err == nil && s.req.Sample && s.req.Tier != "exact" {
		b.mu.Lock()
		if len(b.sampled) < maxSampled {
			b.sampled = append(b.sampled, sampledReply{s.req, a})
		}
		b.mu.Unlock()
	}
	return a
}

// count records one attempted check and whether it failed.
func (b *bench) count(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	if err == nil {
		return
	}
	b.failed++
	if len(b.failures) < maxReported {
		b.failures = append(b.failures, err)
	}
}

// config is the production configuration with the worker count pinned.
func config() service.Config {
	cfg := service.DefaultConfig()
	cfg.Workers = workers
	cfg.QueueSize = 2 * workers
	return cfg
}

// setupN builds and warms a service n times, keeps the last one and
// records each duration. A GC before each build keeps one setup's garbage
// out of the next one's time.
func (b *bench) setupN(n int) {
	for i := 0; i < n; i++ {
		if b.svc != nil {
			b.svc.Close()
		}
		runtime.GC()
		t0 := time.Now()
		b.svc = service.New(config())
		closedLoop(service.NewHandler(b.svc), clientsFor(b.workload), fromList(b.warm), func(s served) { b.record(s) })
		b.setupSecs = append(b.setupSecs, time.Since(t0).Seconds())
	}
}

// deferredChecks re-derives the sampled replies (fast-tier answers and
// sweep winners) and validates the canonical kernels; it returns the
// paper error.
func (b *bench) deferredChecks() float64 {
	cfg := config().VM
	for _, s := range b.sampled {
		b.count(checkSampled(s.req, s.ans, cfg))
	}
	return paperCheck(cfg, b.count)
}

// sliceSeconds is the length of the slices a timed window is cut into.
// The host's speed drifts over seconds; the rate and median metrics are
// the median over slices, so a slow spell shorter than half the window
// moves them little.
const sliceSeconds = 3

// sample is one timed reply: when it completed, relative to the window's
// start, its latency and the cycles it answered.
type sample struct {
	done, latency time.Duration
	cycles        int64
	points        int
}

// endToEnd is the untraced run: setup, a closed loop for the measured
// window, then the deferred checks.
func (b *bench) endToEnd() result {
	b.setupN(setups)
	defer b.svc.Close()
	h := service.NewHandler(b.svc)
	var (
		mu      sync.Mutex
		samples []sample
	)
	heap := startHeapSampler(5 * time.Millisecond)
	start := time.Now()
	elapsed := closedLoop(h, clientsFor(b.workload), until(b.timed, start.Add(b.window)), func(s served) {
		a := b.record(s)
		mu.Lock()
		samples = append(samples, sample{time.Since(start), s.latency, a.cycles, a.points})
		mu.Unlock()
	})
	peak := heap.Stop()
	paperPct := b.deferredChecks()

	n := max(1, int(math.Round(b.window.Seconds()/sliceSeconds)))
	slice := elapsed / time.Duration(n)
	lats := make([][]float64, n)
	cycles := make([]int64, n)
	points := make([]int, n)
	all := make([]float64, 0, len(samples))
	for _, s := range samples {
		i := min(int(s.done/slice), n-1)
		lats[i] = append(lats[i], ms(s.latency))
		cycles[i] += s.cycles
		points[i] += s.points
		all = append(all, ms(s.latency))
	}
	var rates, p50s, cps, pps []float64
	for i := range lats {
		secs := slice.Seconds()
		rates = append(rates, float64(len(lats[i]))/secs)
		p50s = append(p50s, median(lats[i]))
		cps = append(cps, float64(cycles[i])/secs)
		pps = append(pps, float64(points[i])/secs)
	}
	// The tail is the highest percentile with at least ten samples beyond
	// it in a typical run, taken over the whole window: p99 for requests,
	// p90 for the few hundred sweeps a run holds.
	tailQ, tailName := 0.99, "latency_p99_ms"
	if b.workload == exploreCold {
		tailQ, tailName = 0.90, "sweep_p90_ms"
	}
	m := map[string]metric{
		"setup_s":          {median(b.setupSecs), "s"},
		"req_per_s":        {median(rates), "1/s"},
		"latency_p50_ms":   {median(p50s), "ms"},
		"latency_tail_ms":  {percentile(all, tailQ), "ms"},
		"sim_cycles_per_s": {median(cps), "cycles/s"},
		"peak_heap_mb":     {float64(peak) / (1 << 20), "MB"},
		"paper_tp_err_pct": {paperPct, "%"},
	}
	// The printed report names each metric for what it measures on this
	// workload: on explore-cold a request is one sweep.
	report := map[string]metric{
		"setup_s":          m["setup_s"],
		"peak_heap_mb":     m["peak_heap_mb"],
		"paper_tp_err_pct": m["paper_tp_err_pct"],
		"sim_cycles_per_s": m["sim_cycles_per_s"],
		"failed_frac":      {float64(b.failed) / float64(max(b.attempted, 1)), "ratio"},
		"points_per_s":     {median(pps), "1/s"},
	}
	if b.workload == exploreCold {
		report["sweep_p50_ms"] = m["latency_p50_ms"]
		report[tailName] = m["latency_tail_ms"]
		report["sweeps_per_s"] = m["req_per_s"]
	} else {
		report["latency_p50_ms"] = m["latency_p50_ms"]
		report[tailName] = m["latency_tail_ms"]
		report["req_per_s"] = m["req_per_s"]
	}
	fmt.Printf("workload %s: %d clients, %d requests in %.2fs (%d slices of %.1fs; tail over all %d samples); setups %v\n",
		b.workload, clientsFor(b.workload), len(all), elapsed.Seconds(), n, slice.Seconds(), len(all), b.setupSecs)
	printMetrics(report)
	return result{Metrics: m}
}

func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-30s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}
