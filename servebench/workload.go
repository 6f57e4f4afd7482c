package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"

	"macs/internal/explore"
	"macs/internal/lfk"
	"macs/internal/service"
)

// Workload names, in the order the benchmark documents them.
const (
	exactCold   = "exact-cold"
	fastLong    = "fast-long"
	exploreCold = "explore-cold"
	warmMix     = "warm-mix"
)

var workloads = []string{exactCold, fastLong, exploreCold, warmMix}

// Request is one generated service call: the HTTP target and body the
// clients send, plus the decoded request the answer checker replays.
type Request struct {
	Path   string
	Body   []byte
	Kernel int
	Tier   string // "exact" or "fast"; empty for a sweep
	// Sample marks the seeded sample whose fast-tier answer or sweep
	// winner is re-derived with macs.AnalyzeSourceVM after the window.
	Sample  bool
	Analyze service.AnalyzeRequest
	Explore service.ExploreRequest
}

// inputs returns the kernel source, iteration count and inputs the
// request carries.
func (r Request) inputs() (string, int64, service.Priming) {
	if r.Tier == "" {
		return r.Explore.Source, r.Explore.Iterations, r.Explore.Prime
	}
	return r.Analyze.Source, r.Analyze.Iterations, r.Analyze.Prime
}

// variant is one kernel rewritten with new array extents and, where the
// kernel allows it, a new trip count.
type variant struct {
	kernel     *lfk.Kernel
	source     string
	n          int64
	iterations int64
}

// shape describes how a kernel's arrays and iteration count follow its
// trip count N, so a variant at another N stays in bounds and converts
// cycles to CPL correctly.
type shape struct {
	// needs returns, per array, the smallest extent of each dimension
	// that N requires; arrays it omits keep their declared extents.
	needs func(n int64) map[string][]int64
	// elements is the inner-loop iteration count at N.
	elements func(n int64) int64
	// scalable reports whether N may grow (LFK6's triangular loop indexes
	// a 64-row matrix by N and does quadratic work, so it stays at 64).
	scalable bool
}

func flat(n int64) int64 { return n }

var shapes = map[int]shape{
	1: {func(n int64) map[string][]int64 {
		return map[string][]int64{"X": {n}, "Y": {n}, "ZX": {n + 11}}
	}, flat, true},
	2: {func(n int64) map[string][]int64 {
		hi, _ := lfk2Extent(n)
		return map[string][]int64{"X": {hi}, "V": {hi}}
	}, func(n int64) int64 { _, e := lfk2Extent(n); return e }, true},
	3: {func(n int64) map[string][]int64 {
		return map[string][]int64{"Z": {n}, "X": {n}}
	}, flat, true},
	4: {func(n int64) map[string][]int64 {
		return map[string][]int64{"X": {107 + n/5}, "Y": {n}}
	}, func(n int64) int64 { return 3 * ((n-5)/5 + 1) }, true},
	6: {func(int64) map[string][]int64 { return nil },
		func(n int64) int64 { return n * (n - 1) / 2 }, false},
	7: {func(n int64) map[string][]int64 {
		return map[string][]int64{"X": {n}, "Y": {n}, "Z": {n}, "U": {n + 6}}
	}, flat, true},
	8: {func(n int64) map[string][]int64 {
		u := []int64{5, n + 1, 2}
		return map[string][]int64{"U1": u, "U2": u, "U3": u,
			"DU1": {n + 1}, "DU2": {n + 1}, "DU3": {n + 1}}
	}, func(n int64) int64 { return 2 * (n - 1) }, true},
	9: {func(n int64) map[string][]int64 {
		return map[string][]int64{"PX": {25, n}}
	}, flat, true},
	10: {func(n int64) map[string][]int64 {
		return map[string][]int64{"PX": {25, n}, "CX": {25, n}}
	}, flat, true},
	12: {func(n int64) map[string][]int64 {
		return map[string][]int64{"X": {n}, "Y": {n + 1}}
	}, flat, true},
}

// lfk2Extent walks LFK2's halving cascade at trip count n and returns the
// highest array index it touches and the inner-loop iteration count.
func lfk2Extent(n int64) (hi, elems int64) {
	ii, ipntp := n, int64(0)
	for {
		ipnt := ipntp
		ipntp += ii
		ii /= 2
		i := ipntp + 1
		for k := ipnt + 2; k <= ipntp; k += 2 {
			i++
			elems++
			hi = max(hi, i, k+1)
		}
		if ii <= 1 {
			return hi, elems
		}
	}
}

var declRE = regexp.MustCompile(`([A-Z][A-Z0-9]*)\(([0-9, ]+)\)`)

// maxPadElems caps the elements one array's padding adds, so padded
// variants of every kernel fit the simulated memory with room to spare.
const maxPadElems = 65536

// rewrite renders kernel k at trip count n with every array declaration
// grown to fit n and then padded: each dimension but the last by up to 7
// elements (a new leading dimension moves the column stride across the
// memory banks), the last by enough to shift every later array's base.
// Arrays declared with one shape keep one shape, as a Fortran programmer
// padding through a shared PARAMETER would write them; the compiler
// groups their streams by that shape.
func rewrite(k *lfk.Kernel, n int64, rng *rand.Rand) variant {
	sh := shapes[k.ID]
	needs := sh.needs(n)
	leadPads := make(map[string][]int64)
	var out strings.Builder
	for _, line := range strings.SplitAfter(k.Source, "\n") {
		if !strings.HasPrefix(line, "REAL ") {
			out.WriteString(line)
			continue
		}
		out.WriteString(declRE.ReplaceAllStringFunc(line, func(decl string) string {
			m := declRE.FindStringSubmatch(decl)
			parts := strings.Split(m[2], ",")
			dims := make([]int64, len(parts))
			for i, p := range parts {
				d, _ := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
				dims[i] = max(d, need(needs[m[1]], i))
			}
			lead, ok := leadPads[m[2]]
			if !ok {
				lead = make([]int64, len(dims)-1)
				for i := range lead {
					lead[i] = rng.Int64N(8)
				}
				leadPads[m[2]] = lead
			}
			plane := int64(1)
			for i, p := range lead {
				dims[i] += p
				plane *= dims[i]
			}
			last := len(dims) - 1
			dims[last] += rng.Int64N(max(1, maxPadElems/plane))
			strs := make([]string, len(dims))
			for i, d := range dims {
				strs[i] = strconv.FormatInt(d, 10)
			}
			return m[1] + "(" + strings.Join(strs, ",") + ")"
		}))
	}
	return variant{kernel: k, source: out.String(), n: n, iterations: sh.elements(n)}
}

func need(dims []int64, i int) int64 {
	if i < len(dims) {
		return dims[i]
	}
	return 0
}

// exploreGrid is the fixed 192-point sweep of explore-cold: memory
// geometry and refresh timing crossed with three vector lengths, so each
// sweep compiles three programs and scores every point on the fast tier.
var exploreGrid = explore.Grid{Axes: []explore.Axis{
	{Param: "banks", Values: []float64{16, 32, 64, 128}},
	{Param: "bank-cycle", Values: []float64{4, 6, 8, 12}},
	{Param: "refresh-period", Values: []float64{200, 400, 800, 1600}},
	{Param: "vlmax", Values: []float64{32, 64, 128}},
}}

// Generator draws a workload's requests. Cold workloads never repeat a
// kernel source within a generator: warm-up and timed streams draw from
// one generator, so the timed run cannot hit a cache entry warm-up made.
type Generator struct {
	workload string
	kernels  []*lfk.Kernel

	mu   sync.Mutex
	seen map[string]bool

	// pool is warm-mix's fixed set of 32 sources, each with three
	// popular input sets.
	pool []poolEntry
}

type poolEntry struct {
	v       variant
	popular []service.Priming
}

// warmPoolSize and warmPopularInputs shape warm-mix: 32 sources drawn
// Zipf-distributed, each with a few input sets most callers reuse.
const (
	warmPoolSize      = 32
	warmPopularInputs = 3
	// warmReuseFrac is the share of warm-mix requests that send one of
	// the source's popular input sets; the rest send fresh inputs.
	warmReuseFrac = 0.7
	// warmPoolSeed fixes the pool so every run seed sees the same 32
	// sources; the seed only steers which of them each request draws.
	warmPoolSeed = 0x5eed
)

// NewGenerator prepares the generator for one workload.
func NewGenerator(workload string) (*Generator, error) {
	g := &Generator{workload: workload, kernels: lfk.All(), seen: make(map[string]bool)}
	switch workload {
	case exactCold, exploreCold:
	case fastLong:
		var ks []*lfk.Kernel
		for _, k := range g.kernels {
			if shapes[k.ID].scalable {
				ks = append(ks, k)
			}
		}
		g.kernels = ks
	case warmMix:
		rng := rand.New(rand.NewPCG(warmPoolSeed, 0))
		for i := 0; i < warmPoolSize; i++ {
			k := g.kernels[i%len(g.kernels)]
			e := poolEntry{v: rewrite(k, k.N, rng)}
			for j := 0; j < warmPopularInputs; j++ {
				e.popular = append(e.popular, freshInputs(k, rng))
			}
			g.pool = append(g.pool, e)
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", workload, strings.Join(workloads, ", "))
	}
	return g, nil
}

// freshInputs draws one input set for kernel k: its trip count plus a new
// value for one input the timing never depends on — the first scalar
// real, or the first element of the first input array for kernels with
// no scalar reals.
func freshInputs(k *lfk.Kernel, rng *rand.Rand) service.Priming {
	p := service.Priming{Ints: map[string]int64{"N": k.N}}
	v := 0.5 + rng.Float64()
	if len(k.Reals) > 0 {
		p.Reals = map[string]float64{}
		for name, r := range k.Reals {
			p.Reals[name] = r
		}
		p.Reals[sortedKeys(k.Reals)[0]] = v
		return p
	}
	p.Arrays = map[string][]float64{sortedKeys(k.Arrays)[0]: {v}}
	return p
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Stream is one seeded sequence of requests from a Generator. Next is
// safe for concurrent use; the sequence it yields depends only on the
// seed and on what the generator has already handed out.
type Stream struct {
	g    *Generator
	mu   sync.Mutex
	rng  *rand.Rand
	zipf *rand.Zipf
	// order holds the kernels left in the current round: cold workloads
	// draw kernels as a seeded permutation per round of ten, so every run
	// carries the same kernel mix and only pads and scales vary.
	order []*lfk.Kernel
}

// Stream starts a request sequence with the given seed.
func (g *Generator) Stream(seed uint64) *Stream {
	rng := rand.New(rand.NewPCG(seed, 0))
	s := &Stream{g: g, rng: rng}
	if g.workload == warmMix {
		s.zipf = rand.NewZipf(rng, 1.2, 1, warmPoolSize-1)
	}
	return s
}

// Take returns the next n requests.
func (s *Stream) Take(n int) []Request {
	out := make([]Request, n)
	for i := range out {
		out[i] = s.Next()
	}
	return out
}

// sampleEvery sets the seeded sample's size: one request in 16.
const sampleEvery = 16

// Next returns the stream's next request.
func (s *Stream) Next() Request {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.next()
	r.Sample = s.rng.IntN(sampleEvery) == 0
	return r
}

func (s *Stream) next() Request {
	switch s.g.workload {
	case exactCold:
		return analyzeRequest(s.coldVariant(1, 1), "exact", nil)
	case fastLong:
		return analyzeRequest(s.coldVariant(8, 64), "fast", nil)
	case exploreCold:
		return exploreRequest(s.coldVariant(1, 1))
	default:
		e := s.g.pool[s.zipf.Uint64()]
		tier := "exact"
		if s.rng.IntN(2) == 1 {
			tier = "fast"
		}
		if s.rng.Float64() < warmReuseFrac {
			p := e.popular[s.rng.IntN(len(e.popular))]
			return analyzeRequest(e.v, tier, &p)
		}
		for {
			p := freshInputs(e.v.kernel, s.rng)
			b, _ := json.Marshal(p)
			if s.g.claim(e.v.source + string(b)) {
				return analyzeRequest(e.v, tier, &p)
			}
		}
	}
}

// coldVariant draws a never-seen variant: the next kernel of the round,
// its trip count scaled log-uniformly within [lo, hi], arrays padded.
func (s *Stream) coldVariant(lo, hi float64) variant {
	if len(s.order) == 0 {
		s.order = append(s.order, s.g.kernels...)
		s.rng.Shuffle(len(s.order), func(i, j int) { s.order[i], s.order[j] = s.order[j], s.order[i] })
	}
	k := s.order[0]
	s.order = s.order[1:]
	for {
		n := k.N
		if hi > lo {
			n = int64(math.Round(float64(k.N) * math.Exp(math.Log(lo)+s.rng.Float64()*math.Log(hi/lo))))
		}
		v := rewrite(k, n, s.rng)
		if s.g.claim(v.source) {
			return v
		}
	}
}

// claim records a key as handed out and reports whether it was new.
func (g *Generator) claim(key string) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.seen[key] {
		return false
	}
	g.seen[key] = true
	return true
}

// kernelInputs is the input set a cold request sends: the trip count and
// the kernel's scalar reals. Array contents never steer the timing, so
// they stay unsent (zero in the simulated memory).
func kernelInputs(v variant) service.Priming {
	return service.Priming{Ints: map[string]int64{"N": v.n}, Reals: v.kernel.Reals}
}

func analyzeRequest(v variant, tier string, p *service.Priming) Request {
	in := kernelInputs(v)
	if p != nil {
		in = *p
	}
	a := service.AnalyzeRequest{Source: v.source, Iterations: v.iterations, Prime: in}
	body, err := json.Marshal(a)
	if err != nil {
		panic(err) // plain strings and numbers always marshal
	}
	return Request{Path: "/v1/analyze?tier=" + tier, Body: body, Kernel: v.kernel.ID, Tier: tier, Analyze: a}
}

func exploreRequest(v variant) Request {
	e := service.ExploreRequest{
		Name:       fmt.Sprintf("lfk%d", v.kernel.ID),
		Source:     v.source,
		Iterations: v.iterations,
		Prime:      kernelInputs(v),
		Grid:       exploreGrid,
	}
	body, err := json.Marshal(e)
	if err != nil {
		panic(err)
	}
	return Request{Path: "/v1/explore", Body: body, Kernel: v.kernel.ID, Explore: e}
}
