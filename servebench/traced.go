package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"macs/internal/asm"
	"macs/internal/calib"
	"macs/internal/compiler"
	"macs/internal/core"
	"macs/internal/depgraph"
	"macs/internal/fasttier"
	"macs/internal/ftn"
	"macs/internal/isa"
	"macs/internal/obs"
	"macs/internal/service"
	"macs/internal/vectorize"
	"macs/internal/verify"
	"macs/internal/vm"
)

// This file is the traced run. It measures the layers from outside the
// program: every span is recorded here, around calls into each layer's
// public functions, so the program under test carries no benchmark code.

// span is one benchmark-owned span; parent indexes the recorder's spans
// (-1 for a root).
type span struct {
	name   string
	parent int
	start  time.Time
	dur    time.Duration
}

// recorder keeps spans in memory for one goroutine.
type recorder struct {
	origin time.Time
	spans  []span
}

func (r *recorder) start(name string, parent int) int {
	r.spans = append(r.spans, span{name: name, parent: parent, start: time.Now()})
	return len(r.spans) - 1
}

func (r *recorder) end(i int) { r.spans[i].dur = time.Since(r.spans[i].start) }

// selfTimes returns the duration minus the children's of each span from
// index from on; spans from on must not be children of earlier ones.
func (r *recorder) selfTimes(from int) []time.Duration {
	self := make([]time.Duration, len(r.spans)-from)
	for i, s := range r.spans[from:] {
		self[i] += s.dur
		if s.parent >= from {
			self[s.parent-from] -= s.dur
		}
	}
	return self
}

// view converts the spans to the obs snapshot ChromeTrace renders.
func (r *recorder) view(id string) obs.TraceView {
	v := obs.TraceView{ID: id, Spans: make([]obs.SpanView, len(r.spans))}
	for i, s := range r.spans {
		v.Spans[i] = obs.SpanView{
			Name:     s.name,
			Parent:   s.parent,
			StartUS:  s.start.Sub(r.origin).Microseconds(),
			DurUS:    s.dur.Microseconds(),
			Complete: true,
		}
	}
	return v
}

// machineState is the replay's per-machine fast-tier predictor and
// simulator pool, kept across requests as the service keeps its own.
type machineState struct {
	pred *fasttier.Predictor
	pool *vm.Pool
}

// replayer re-runs requests stage by stage through the layers' public
// functions, one request at a time.
type replayer struct {
	run      vm.Config
	machines map[string]*machineState

	staticInstrs, dynInstrs []float64
	compiles, sweeps        int
	points, survivors       int
	// simCycles and fastCycles total the cycles the simulator ran and the
	// fast tier predicted; simTime and fastTime are the host time spent.
	simCycles, fastCycles int64
	simTime, fastTime     time.Duration
}

func newReplayer(run vm.Config) *replayer {
	return &replayer{run: run, machines: make(map[string]*machineState)}
}

func (rp *replayer) machine(m vm.Machine) *machineState {
	fp := m.Fingerprint()
	if st, ok := rp.machines[fp]; ok {
		return st
	}
	cfg := rp.run.WithMachine(m)
	st := &machineState{pred: fasttier.NewPredictor(calib.FastTierConfig(cfg)), pool: vm.NewPool(cfg)}
	rp.machines[fp] = st
	return st
}

// frontEnd compiles, verifies and bounds src at one vector length, the
// way the pipeline does: the bound stage parses the source again.
func (rp *replayer) frontEnd(rec *recorder, parent int, src string, vl int, rules core.Rules) (*asm.Program, error) {
	i := rec.start("ftn.parse", parent)
	parsed, err := ftn.Parse(src)
	rec.end(i)
	if err != nil {
		return nil, err
	}
	opts := compiler.DefaultOptions()
	opts.VL = vl
	i = rec.start("compiler.compile", parent)
	prog, err := compiler.CompileProgram(parsed, opts)
	rec.end(i)
	if err != nil {
		return nil, err
	}
	rp.compiles++
	rp.staticInstrs = append(rp.staticInstrs, float64(len(prog.Instrs)))
	i = rec.start("verify.check", parent)
	ds := verify.Check(prog)
	rec.end(i)
	if verify.HasErrors(ds) {
		return nil, &verify.Error{Diags: ds}
	}
	return prog, rp.bound(rec, parent, src, prog, vl, rules)
}

// bound is the model half of the front end: MA workload from the source,
// chime partition of the compiled loop, critical path.
func (rp *replayer) bound(rec *recorder, parent int, src string, prog *asm.Program, vl int, rules core.Rules) error {
	b := rec.start("core.bound", parent)
	defer rec.end(b)
	i := rec.start("ftn.parse", b)
	parsed, err := ftn.Parse(src)
	rec.end(i)
	if err != nil {
		return err
	}
	loopStmt, ok := compiler.InnerLoop(parsed)
	if !ok {
		return fmt.Errorf("no DO loop")
	}
	ma, err := vectorize.MAWorkload(parsed, loopStmt)
	if err != nil {
		return err
	}
	loop, ok := asm.InnerVectorLoop(prog)
	if !ok {
		return fmt.Errorf("no vectorized inner loop")
	}
	core.Analyze(ma, loop.Body, vl, rules)
	i = rec.start("depgraph.analyze", b)
	depgraph.Analyze(prog, vl, depgraph.DefaultParams())
	rec.end(i)
	return nil
}

// poolStats totals the replay's simulator pools: CPUs created and
// returned.
func (rp *replayer) poolStats() (created, returned int64) {
	for _, st := range rp.machines {
		c, r := st.pool.Stats()
		created, returned = created+c, returned+r
	}
	return created, returned
}

// simulate loads, primes and runs prog on a pooled simulator; the load
// span covers the pool checkout, which allocates a simulator when the
// pool is empty.
func (rp *replayer) simulate(rec *recorder, parent int, st *machineState, prog *asm.Program, prime func(*vm.CPU) error) (int64, error) {
	i := rec.start("vm.load", parent)
	cpu := st.pool.Get()
	defer st.pool.Put(cpu)
	err := cpu.Load(prog)
	if err == nil {
		err = prime(cpu)
	}
	rec.end(i)
	if err != nil {
		return 0, err
	}
	i = rec.start("vm.run", parent)
	stats, err := cpu.Run()
	rec.end(i)
	rp.dynInstrs = append(rp.dynInstrs, float64(stats.Instrs))
	rp.simCycles += stats.Cycles
	rp.simTime += rec.spans[i].dur
	return stats.Cycles, err
}

// predict scores prog on one machine, falling back to the path
// enumerator for data-dependent programs as the service does.
func (rp *replayer) predict(rec *recorder, parent int, st *machineState, prog *asm.Program, iters int64, ints map[string]int64) (int64, error) {
	i := rec.start("fasttier.predict", parent)
	p, err := st.pred.Predict(prog, iters, ints)
	if errors.Is(err, fasttier.ErrDataDependent) {
		p, err = st.pred.PredictInterval(prog, iters, ints)
	}
	rec.end(i)
	rp.fastCycles += p.Cycles
	rp.fastTime += rec.spans[i].dur
	return p.Cycles, err
}

// analyze replays one /v1/analyze request and returns its cycles.
func (rp *replayer) analyze(rec *recorder, parent int, req Request) (int64, error) {
	st := rp.machine(rp.run.Machine)
	a := req.Analyze
	prog, err := rp.frontEnd(rec, parent, a.Source, min(rp.run.VLMax, isa.VLMax), rp.run.Rules)
	if err != nil {
		return 0, err
	}
	if req.Tier == "fast" {
		return rp.predict(rec, parent, st, prog, a.Iterations, dataInts(a.Prime))
	}
	return rp.simulate(rec, parent, st, prog, primeFunc(a.Prime))
}

// sweep replays one /v1/explore request the way the explore engine runs
// it: one front end per distinct vector length, a fast-tier score for
// every point, exact simulation of the top 5%. It returns the winner's
// cycles.
func (rp *replayer) sweep(rec *recorder, parent int, req Request) (int64, error) {
	e := req.Explore
	grid := e.Grid
	grid.Base = rp.run.Machine
	ms, err := grid.Points()
	if err != nil {
		return 0, err
	}
	progs := make(map[int]*asm.Program)
	for _, m := range ms {
		vl := min(m.VLMax, isa.VLMax)
		if progs[vl] != nil {
			continue
		}
		if progs[vl], err = rp.frontEnd(rec, parent, e.Source, vl, m.Rules); err != nil {
			return 0, err
		}
	}
	rp.sweeps++
	ints := dataInts(e.Prime)
	scores := make([]int64, len(ms))
	fallback := false
	for i, m := range ms {
		scores[i], err = rp.predict(rec, parent, rp.machine(m), progs[min(m.VLMax, isa.VLMax)], e.Iterations, ints)
		if errors.Is(err, fasttier.ErrDataDependent) {
			fallback = true
		} else if err != nil {
			return 0, err
		}
	}
	rp.points += len(ms)
	order := make([]int, len(ms))
	for i := range order {
		order[i] = i
	}
	if !fallback {
		sort.SliceStable(order, func(a, b int) bool { return scores[order[a]] < scores[order[b]] })
		order = order[:int(math.Ceil(0.05*float64(len(ms))))]
	}
	best := int64(math.MaxInt64)
	for _, i := range order {
		m := ms[i]
		c, err := rp.simulate(rec, parent, rp.machine(m), progs[min(m.VLMax, isa.VLMax)], primeFunc(e.Prime))
		if err != nil {
			return 0, err
		}
		best = min(best, c)
	}
	rp.survivors += len(order)
	return best, nil
}

func dataInts(p service.Priming) map[string]int64 {
	out := make(map[string]int64, len(p.Ints))
	for name, v := range p.Ints {
		out[compiler.DataSym(name)] = v
	}
	return out
}

// runtimeCounters reads the Go runtime's allocation and CPU accounting.
func runtimeCounters() (allocBytes, gcCPU, totalCPU float64) {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()), s[1].Value.Float64(), s[2].Value.Float64()
}

// maxReplayed bounds the replay phase's request count.
const maxReplayed = 2000

// traceFile is where the replay's Chrome trace is written, relative to
// the working directory (the benchmark's build directory).
const traceFile = ".bench_build/servebench-trace-%s.json"

// maxExported bounds the spans written to the Chrome trace.
const maxExported = 4000

// traced is the per-layer run. After one setup it spends half the
// window in the closed loop, with a benchmark span around every other
// handler call (runtime costs, response sizes, tracing overhead), and
// half replaying requests one at a time: each is served and then, unless
// it came from the cache, re-run stage by stage.
func (b *bench) traced() result {
	b.setupN(1)
	defer b.svc.Close()
	h := service.NewHandler(b.svc)
	before := b.svc.Metrics()
	clients := clientsFor(b.workload)
	half := b.window / 2

	// Closed loop, alternating untraced and traced calls so both see the
	// same load and the same drift in the host's speed.
	var (
		mu               sync.Mutex
		sizes            []float64
		plain, spanned   time.Duration
		nPlain, nSpanned int
	)
	a0, gc0, cpu0 := runtimeCounters()
	next := until(b.timed, time.Now().Add(half))
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := &recorder{origin: time.Now()}
			for n := 0; ; n++ {
				req, ok := next()
				if !ok {
					return
				}
				var s served
				if n%2 == 1 {
					i := rec.start("service.handler", -1)
					s = send(h, req)
					rec.end(i)
				} else {
					s = send(h, req)
				}
				b.record(s)
				mu.Lock()
				sizes = append(sizes, float64(len(s.body))/1024)
				if n%2 == 1 {
					spanned += s.latency
					nSpanned++
				} else {
					plain += s.latency
					nPlain++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	a1, gc1, cpu1 := runtimeCounters()
	nU := len(sizes)

	// Replay, one request at a time.
	rp := newReplayer(config().VM)
	rec := &recorder{origin: time.Now()}
	var (
		selfs                    []float64
		front, sim, fast, served time.Duration
		replayed                 int
	)
	stop := time.Now().Add(b.window - half)
	for replayed < maxReplayed && time.Now().Before(stop) {
		req := b.timed.Next()
		root := rec.start("request", -1)
		hs := rec.start("service.handler", root)
		s := send(h, req)
		rec.end(hs)
		ans := b.record(s)
		replayed++
		first := len(rec.spans)
		if !ans.cached && s.status == 200 {
			pipe := rec.start("pipeline", root)
			err := rp.replay(rec, pipe, req, ans)
			rec.end(pipe)
			if err != nil {
				b.count(fmt.Errorf("replay: %w", err))
			}
		}
		rec.end(root)
		// Wall-time contributions of this request's stages. A sweep scores
		// and simulates on every service worker at once, so those stages
		// count at 1/workers of their one-at-a-time replay time.
		par := time.Duration(1)
		if req.Tier == "" {
			par = workers
		}
		var f, v, p time.Duration
		for i, d := range rec.selfTimes(first) {
			switch rec.spans[first+i].name {
			case "ftn.parse", "compiler.compile", "verify.check", "core.bound", "depgraph.analyze":
				f += d
			case "vm.load", "vm.run":
				v += d
			case "fasttier.predict":
				p += d
			}
		}
		hd := rec.spans[hs].dur
		v, p = v/par, p/par
		selfs = append(selfs, us(hd-f-v-p))
		front, sim, fast, served = front+f, sim+v, fast+p, served+hd
	}
	after := b.svc.Metrics()
	b.deferredChecks()
	if err := writeTrace(rec, b.workload); err != nil {
		fmt.Fprintln(os.Stderr, "servebench: trace export:", err)
	}

	byName := map[string][]float64{}
	var explSim time.Duration
	for i, d := range rec.selfTimes(0) {
		name := rec.spans[i].name
		byName[name] = append(byName[name], us(d))
		if name == "vm.load" || name == "vm.run" {
			explSim += d
		}
	}
	share := func(d time.Duration) float64 { return ratio(float64(d), float64(served)) }
	hits := after.Cache.Hits - before.Cache.Hits
	misses := after.Cache.Misses - before.Cache.Misses
	// The service's own pool counters cover the analyze path; sweeps
	// simulate on the explore engine's per-machine pools, which the
	// service does not export, so explore-cold reads the replay's.
	created := after.SimPool.Created - before.SimPool.Created
	returned := after.SimPool.Recycled - before.SimPool.Recycled
	scorePerPoint, simPerSurvivor := 0.0, 0.0
	if rp.sweeps > 0 {
		created, returned = rp.poolStats()
		scorePerPoint = ratio(us(rp.fastTime), float64(rp.points))
		simPerSurvivor = ratio(ms(explSim), float64(rp.survivors))
	}
	requests := nU + replayed
	m := map[string]metric{
		"ftn.parse_us_p50":        {median(byName["ftn.parse"]), "us"},
		"compiler.compile_us_p50": {median(byName["compiler.compile"]), "us"},
		"compiler.static_instrs":  {median(rp.staticInstrs), "count"},
		"verify.check_us_p50":     {median(byName["verify.check"]), "us"},
		"core.bound_us_p50":       {median(byName["core.bound"]), "us"},
		"depgraph.analyze_us_p50": {median(byName["depgraph.analyze"]), "us"},
		"frontend.share":          {share(front), "ratio"},

		"vm.load_us_p50":       {median(byName["vm.load"]), "us"},
		"vm.run_us_p50":        {median(byName["vm.run"]), "us"},
		"vm.cycles_per_host_s": {ratio(float64(rp.simCycles), rp.simTime.Seconds()), "cycles/s"},
		"vm.dyn_instrs_p50":    {median(rp.dynInstrs), "count"},
		"vm.pool_reuse_ratio":  {ratio(float64(returned-created), float64(returned)), "ratio"},
		"vm.share":             {share(sim), "ratio"},

		"fasttier.predict_us_p50":    {median(byName["fasttier.predict"]), "us"},
		"fasttier.cycles_per_host_s": {ratio(float64(rp.fastCycles), rp.fastTime.Seconds()), "cycles/s"},
		"fasttier.share":             {share(fast), "ratio"},

		"explore.score_us_per_point":  {scorePerPoint, "us"},
		"explore.sim_ms_per_survivor": {simPerSurvivor, "ms"},
		"explore.prune_ratio": {ratio(float64(after.Explore.Swept-before.Explore.Swept),
			float64(after.Explore.Simulated-before.Explore.Simulated)), "ratio"},
		"explore.compiles_per_sweep": {ratio(float64(rp.compiles), float64(rp.sweeps)), "count"},

		"service.self_us_p50":     {median(selfs), "us"},
		"service.cache_hit_ratio": {ratio(float64(hits), float64(hits+misses)), "ratio"},
		"service.pipeline_runs_per_req": {ratio(float64(after.PipelineRuns-before.PipelineRuns),
			float64(requests)), "ratio"},
		"service.resp_kb_p50": {median(sizes), "KB"},
		"service.share":       {share(served - front - sim - fast), "ratio"},

		"go.alloc_kb_per_req": {ratio((a1-a0)/1024, float64(nU)), "KB"},
		"go.gc_cpu_frac":      {ratio(gc1-gc0, cpu1-cpu0), "ratio"},
		"obs.trace_overhead_pct": {100 * (ratio(ratio(float64(spanned), float64(nSpanned)),
			ratio(float64(plain), float64(nPlain))) - 1), "%"},
	}
	fmt.Printf("workload %s traced: %d requests (%d clients, every other one spanned), %d replayed one at a time\n",
		b.workload, nU, clients, replayed)
	printMetrics(m)
	return result{Metrics: m}
}

// replay re-runs one served request stage by stage and checks that the
// layers reproduce the served cycles.
func (rp *replayer) replay(rec *recorder, parent int, req Request, ans answer) error {
	if req.Tier == "" {
		got, err := rp.sweep(rec, parent, req)
		if err == nil && got != ans.winner.Cycles {
			err = fmt.Errorf("lfk%d sweep: served winner %d cycles, replay %d", req.Kernel, ans.winner.Cycles, got)
		}
		return err
	}
	got, err := rp.analyze(rec, parent, req)
	if err == nil && got != ans.cycles {
		err = fmt.Errorf("lfk%d %s: served %d cycles, replay %d", req.Kernel, req.Tier, ans.cycles, got)
	}
	return err
}

// writeTrace exports the replay's first spans as Chrome trace JSON.
func writeTrace(rec *recorder, workload string) error {
	r := *rec
	if len(r.spans) > maxExported {
		r.spans = r.spans[:maxExported]
	}
	b, err := obs.ChromeTrace(r.view("servebench-" + workload))
	if err != nil {
		return err
	}
	path := fmt.Sprintf(traceFile, workload)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
