// Package fasttier is the instant analytical serving tier: it predicts a
// compiled program's cycle count, CPL and per-lane stall attribution in
// microseconds, without cycle-accurate simulation.
//
// The predictor replays the program's *schedule* — the same chime
// formation, chaining, tailgating, port-arbitration and memory-stall
// equations the simulator applies (internal/vm shares them with the MACS
// bound via core.ChimeBuilder) — but performs no per-element work at all:
// no memory image, no vector register values, no functional execution.
// Vector streams cost one stall-table query (internal/mem memoizes them)
// instead of VL element operations, which is where the orders-of-magnitude
// speedup over simulation comes from. Integer scalar state (trip counts,
// address arithmetic, loop control) is tracked symbolically so strip
// mining and data layout resolve exactly; floating-point values are never
// computed. A program whose control flow depends on floating-point data
// or unprimed inputs is rejected with ErrDataDependent — callers fall back
// to the exact tier.
//
// Predictions carry a small calibrated per-kernel residual correction
// (internal/calib regenerates residuals_gen.go from simulator runs) and a
// stated error band, so callers can serve the fast answer with an honest
// confidence interval and verify asynchronously.
package fasttier

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"sync"

	"macs/internal/asm"
	"macs/internal/core"
	"macs/internal/isa"
)

// ErrDataDependent marks a program the fast tier cannot predict: its
// control flow (or a vector length / stride / address) depends on
// floating-point data or on memory the caller did not prime. The exact
// tier handles such programs.
var ErrDataDependent = errors.New("fasttier: control flow depends on data the fast tier does not model")

// Cause classifies one predicted non-issue cycle of a machine lane. The
// taxonomy maps one-to-one onto the simulator's vm.StallCause constants —
// same names, same order, same strings — so predicted and measured
// attribution are directly comparable. cmd/macsvet verifies the mapping
// statically (rule "tiermap").
//
// macsvet:exhaustive
type Cause int

// The predicted-attribution taxonomy, mirroring vm.Stall* constants.
const (
	CauseStartup Cause = iota
	CauseBubble
	CauseChain
	CauseChimeSync
	CauseChimeSplit
	CauseBankConflict
	CauseRefresh
	CauseContention
	CausePortArb
	CauseScalar
	CauseDrain

	// NumCauses is the size of the taxonomy.
	NumCauses
)

// causeNames must match vm's stallNames entry for entry; macsvet's tiermap
// rule compares the two literals.
var causeNames = [NumCauses]string{
	"startup", "bubble", "chain-wait", "chime-sync", "chime-split",
	"bank-conflict", "refresh", "contention", "port-arb", "scalar", "drain",
}

func (c Cause) String() string {
	if c < 0 || c >= NumCauses {
		return fmt.Sprintf("cause(%d)", int(c))
	}
	return causeNames[c]
}

// Causes lists the taxonomy in declaration order.
func Causes() []Cause {
	out := make([]Cause, NumCauses)
	for i := range out {
		out[i] = Cause(i)
	}
	return out
}

// Attribution lanes: index 0 is the ASU; 1..3 are the VP pipes, sharing
// isa.Pipe numbering (load/store, add, multiply) — the same convention as
// the simulator's ledger.
const (
	LaneASU  = 0
	NumLanes = 4
)

// LaneName returns the display name of a predicted-attribution lane.
func LaneName(lane int) string {
	if lane == LaneASU {
		return "asu"
	}
	return isa.Pipe(lane).String()
}

// LaneLedger is one lane's predicted cycle ledger.
type LaneLedger struct {
	// Issue counts predicted productive cycles (streaming for pipes,
	// scalar execution for the ASU).
	Issue int64
	// Stalls counts predicted non-issue cycles by cause.
	Stalls [NumCauses]int64
}

// Total returns all accounted cycles of the lane.
func (l LaneLedger) Total() int64 {
	t := l.Issue
	for _, v := range l.Stalls {
		t += v
	}
	return t
}

// StallTotal returns the lane's predicted non-issue cycles.
func (l LaneLedger) StallTotal() int64 { return l.Total() - l.Issue }

// Ledger is the full predicted per-lane attribution of one program.
type Ledger struct {
	Lanes [NumLanes]LaneLedger
}

// Cause sums one stall cause across all lanes.
func (a Ledger) Cause(c Cause) int64 {
	var sum int64
	for _, l := range a.Lanes {
		sum += l.Stalls[c]
	}
	return sum
}

// IssueCycles sums predicted issue cycles across all lanes.
func (a Ledger) IssueCycles() int64 {
	var sum int64
	for _, l := range a.Lanes {
		sum += l.Issue
	}
	return sum
}

// Totals returns the lane-summed ledger keyed by cause name, with issue
// cycles under "issue" — the same wire shape as the simulator's
// Attribution.Totals, so the two are directly diffable.
func (a Ledger) Totals() map[string]int64 {
	out := make(map[string]int64, NumCauses+1)
	if v := a.IssueCycles(); v != 0 {
		out["issue"] = v
	}
	for c := Cause(0); c < NumCauses; c++ {
		if v := a.Cause(c); v != 0 {
			out[c.String()] = v
		}
	}
	return out
}

// Conserved verifies the ledger invariant: every lane's issue plus stall
// cycles must equal the predicted cycle count.
func (a Ledger) Conserved(totalCycles int64) error {
	for lane := 0; lane < NumLanes; lane++ {
		if got := a.Lanes[lane].Total(); got != totalCycles {
			return fmt.Errorf("fasttier: ledger not conserved on lane %s: %d accounted, want %d",
				LaneName(lane), got, totalCycles)
		}
	}
	return nil
}

// Config controls the modeled machine. It mirrors the simulator knobs the
// timing model depends on; use DefaultConfig and adjust.
type Config struct {
	// VLMax is the hardware vector length.
	VLMax int
	// Rules are the chime formation rules shared with the MACS bound.
	Rules core.Rules
	// Memory geometry: interleaved bank count, bank busy time, refresh
	// schedule. Zero fields take the C-240 defaults, mirroring
	// vm.Machine.BankConfig.
	Banks         int
	BankCycle     int
	RefreshPeriod int
	RefreshLen    int
	// BankConflicts and RefreshStalls enable the corresponding
	// stall-table terms in vector memory streams.
	BankConflicts bool
	RefreshStalls bool
	// MemSlowdown >1 models multi-process memory contention.
	MemSlowdown float64
	// Scalar timing, in cycles (ASU latencies).
	ScalarLoadLat int
	ScalarOpLat   int
	BranchPenalty int
	DispatchLat   int
	// MaxInstrs aborts runaway control flow.
	MaxInstrs int64
}

// DefaultConfig returns the standard C-240 fast-tier configuration,
// matching vm.DefaultConfig's timing knobs.
func DefaultConfig() Config {
	return Config{
		VLMax:         isa.VLMax,
		Rules:         core.DefaultRules(),
		Banks:         isa.MemBanks,
		BankCycle:     isa.BankCycle,
		RefreshPeriod: isa.RefreshPeriod,
		RefreshLen:    isa.RefreshLen,
		BankConflicts: true,
		RefreshStalls: true,
		MemSlowdown:   1.0,
		ScalarLoadLat: 4,
		ScalarOpLat:   1,
		BranchPenalty: 2,
		DispatchLat:   1,
		MaxInstrs:     50_000_000,
	}
}

// Prediction is the fast tier's answer for one program.
type Prediction struct {
	// Cycles is the predicted run length of the whole program, before
	// residual correction.
	Cycles int64
	// RawCPL is Cycles divided by the caller's iteration count (0 when no
	// iteration count was given).
	RawCPL float64
	// CPL is the served prediction: RawCPL times the calibrated residual.
	CPL float64
	// Residual is the multiplicative correction applied (1 when the
	// program matched no calibration entry).
	Residual float64
	// ErrorBand is the stated relative error band of CPL versus the
	// simulator's measurement: calibrated kernels carry their fitted
	// band, unknown programs the conservative DefaultErrorBand.
	ErrorBand float64
	// Calibrated reports whether a fitted residual matched (by exact
	// program signature or by kernel class).
	Calibrated bool
	// Signature identifies the exact compiled program; Class is the
	// coarse kernel class used for residual fallback and divergence
	// grouping.
	Signature string
	Class     string
	// Instrs, VectorInstrs, ScalarInstrs and Chimes count the replayed
	// schedule; MemStalls and PortConflicts mirror the simulator's stats.
	Instrs        int64
	VectorInstrs  int64
	ScalarInstrs  int64
	Chimes        int64
	MemStalls     int64
	PortConflicts int64
	// Attr is the predicted per-lane stall attribution; it is conserved
	// against Cycles by construction.
	Attr Ledger

	// Interval reports that this prediction came from bounded enumeration
	// of data-dependent branch outcomes rather than a single bit-exact
	// replay. CyclesLo/CyclesHi bound the run length over every admitted
	// outcome vector; because each enumerated path is itself bit-exact and
	// the real execution follows one of them, the simulator's measurement
	// is guaranteed to land inside [CyclesLo, CyclesHi]. CPLLo/CPLHi are
	// the per-iteration forms of those raw bounds — deliberately left
	// uncalibrated so the containment guarantee survives. Paths counts the
	// complete paths enumerated; the point fields (Cycles, CPL, Attr, ...)
	// describe the worst-case path.
	Interval bool
	Paths    int
	CyclesLo int64
	CyclesHi int64
	CPLLo    float64
	CPLHi    float64
}

// Signature returns a stable identity for a compiled program: an FNV-64a
// hash of its canonical assembly text (data declarations included, so the
// same kernel at a different problem size is a different signature).
func Signature(p *asm.Program) string {
	h := fnv.New64a()
	h.Write([]byte(p.String()))
	return fmt.Sprintf("%016x", h.Sum64())
}

// Class returns the coarse kernel class of a program: the chime count and
// the memory/FP composition of its inner vectorized loop at full vector
// length. Residual lookup falls back to it when the exact signature is
// unknown, and the service groups divergence metrics by it.
func Class(p *asm.Program, rules core.Rules) string {
	loop, ok := asm.InnerVectorLoop(p)
	if !ok {
		return "scalar"
	}
	chimes := core.Partition(loop.Body, rules)
	var mem, fp int
	for _, in := range loop.Body {
		if !in.IsVector() {
			continue
		}
		switch in.Class() {
		case isa.ClassLoad, isa.ClassStore:
			mem++
		case isa.ClassFPAdd, isa.ClassFPMul:
			fp++
		}
	}
	return fmt.Sprintf("c%d-m%d-f%d", len(chimes), mem, fp)
}

// Predictor is the pooled front door to the fast tier for one machine:
// it recycles the machine's timers — most importantly their memoized
// stream-stall tables, whose warmth is much of the fast tier's speed —
// across predictions. It is safe for concurrent use.
//
// Finished predictions are memoized on the program itself (see memo), so
// identical requests on one compiled program — the explore engine's and
// the serving tier's steady state — answer in nanoseconds, and the memo
// lives and dies with the program: a predictor never keeps a dropped
// program alive.
type Predictor struct {
	cfg  Config
	pool sync.Pool // of *timer
}

// memo is one program's prediction memo, stored among the program's
// derived facts. A compiled program is immutable, so a prediction for it
// stays valid as long as the program exists.
type memo struct {
	mu sync.Mutex
	m  map[memoKey]Prediction
}

// memoFact keys the memo among a program's derived facts.
type memoFact struct{}

// memoKey identifies one prediction request on a program: the predictor
// (hence the machine), iterations and inputs.
type memoKey struct {
	pred       *Predictor
	iterations int64
	ints       string // canonical fingerprint of the primed integers
	interval   bool   // interval (path-enumerated) predictions keyed apart
}

// memoCap bounds one program's memo; on overflow it is dropped wholesale
// (predictions are cheap to recompute, bookkeeping is not).
const memoCap = 512

// memoOf returns prog's prediction memo, creating it on first use.
func memoOf(prog *asm.Program) *memo {
	return prog.Derived(memoFact{}, func() any { return new(memo) }).(*memo)
}

func (mo *memo) get(key memoKey) (Prediction, bool) {
	mo.mu.Lock()
	defer mo.mu.Unlock()
	pred, ok := mo.m[key]
	return pred, ok
}

func (mo *memo) put(key memoKey, pred Prediction) {
	mo.mu.Lock()
	defer mo.mu.Unlock()
	if mo.m == nil || len(mo.m) >= memoCap {
		mo.m = make(map[memoKey]Prediction)
	}
	mo.m[key] = pred
}

// intsFingerprint renders the primed integers canonically (sorted) so
// map iteration order cannot split the memo.
func intsFingerprint(ints map[string]int64) string {
	if len(ints) == 0 {
		return ""
	}
	keys := make([]string, 0, len(ints))
	for k := range ints {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b := make([]byte, 0, 16*len(keys))
	for _, k := range keys {
		b = append(b, k...)
		b = append(b, '=')
		b = strconv.AppendInt(b, ints[k], 10)
		b = append(b, ';')
	}
	return string(b)
}

// NewPredictor creates a Predictor for one machine configuration.
func NewPredictor(cfg Config) *Predictor {
	p := &Predictor{cfg: cfg}
	p.pool.New = func() any { return newTimer(cfg) }
	return p
}

// Config returns the predictor's machine configuration.
func (p *Predictor) Config() Config { return p.cfg }

// Predict replays prog's schedule and returns the fast-tier prediction.
// iterations converts predicted cycles to CPL (0 skips the conversion);
// ints primes integer inputs by data-symbol name (e.g. "d_N") — the
// values that drive trip counts and addresses. It returns
// ErrDataDependent (wrapped) when the program's timing depends on data
// the fast tier does not model. Identical requests are memoized.
//
// Predict is PredictEach with one predictor: one walk, one timer.
func (p *Predictor) Predict(prog *asm.Program, iterations int64, ints map[string]int64) (Prediction, error) {
	mo, key := memoOf(prog), memoKey{pred: p, iterations: iterations, ints: intsFingerprint(ints)}
	if pred, ok := mo.get(key); ok {
		return pred, nil
	}
	t := p.pool.Get().(*timer)
	var out [1]Prediction
	err := replay(prog, iterations, ints, p.cfg.group(), []*timer{t}, out[:])
	p.pool.Put(t)
	if err != nil {
		return Prediction{}, err
	}
	mo.put(key, out[0])
	return out[0], nil
}

// PredictEach predicts prog on every predictor's machine: out[i] and
// errs[i] answer preds[i] exactly as preds[i].Predict would, memo
// included. Predictors whose memo already holds the answer are served
// from it; the rest are grouped by what shapes the walk (vector length
// ceiling, chime rules, instruction budget), and each group costs one
// walk of the program timing all of its machines in lockstep, each timer
// drawn from its own predictor's pool. A replay error belongs to the walk,
// so it answers for every predictor of its group.
func PredictEach(prog *asm.Program, iterations int64, ints map[string]int64, preds []*Predictor) (out []Prediction, errs []error) {
	out = make([]Prediction, len(preds))
	errs = make([]error, len(preds))
	mo, fp := memoOf(prog), intsFingerprint(ints)
	miss := make([]int, 0, len(preds))
	for i, p := range preds {
		if pred, ok := mo.get(memoKey{pred: p, iterations: iterations, ints: fp}); ok {
			out[i] = pred
			continue
		}
		miss = append(miss, i)
	}
	group := make([]int, 0, len(miss))
	timers := make([]*timer, 0, len(miss))
	res := make([]Prediction, len(miss))
	for len(miss) > 0 {
		g := preds[miss[0]].cfg.group()
		group, timers = group[:0], timers[:0]
		rest := miss[:0]
		for _, i := range miss {
			if preds[i].cfg.group() != g {
				rest = append(rest, i)
				continue
			}
			group = append(group, i)
			timers = append(timers, preds[i].pool.Get().(*timer))
		}
		err := replay(prog, iterations, ints, g, timers, res)
		for j, i := range group {
			preds[i].pool.Put(timers[j])
			if err != nil {
				errs[i] = err
				continue
			}
			out[i] = res[j]
			mo.put(memoKey{pred: preds[i], iterations: iterations, ints: fp}, res[j])
		}
		miss = rest
	}
	return out, errs
}

// Predict is the one-shot form of Predictor.Predict for callers without a
// predictor to pool state in.
func Predict(prog *asm.Program, iterations int64, ints map[string]int64, cfg Config) (Prediction, error) {
	var out [1]Prediction
	if err := replay(prog, iterations, ints, cfg.group(), []*timer{newTimer(cfg)}, out[:]); err != nil {
		return Prediction{}, err
	}
	return out[0], nil
}

// signatureKey and classKey key a program's schedule identity among its
// derived facts: computed on the program's first prediction, reused by
// every later one (an explore sweep predicts one program on every grid
// point), and gone with the program.
type (
	signatureKey struct{}
	classKey     struct{ rules core.Rules }
)

// finishPrediction applies the calibrated residual and stamps identity.
func finishPrediction(pred *Prediction, prog *asm.Program, rules core.Rules, iterations int64) {
	pred.Signature = prog.Derived(signatureKey{}, func() any { return Signature(prog) }).(string)
	pred.Class = prog.Derived(classKey{rules}, func() any { return Class(prog, rules) }).(string)
	if iterations > 0 {
		pred.RawCPL = float64(pred.Cycles) / float64(iterations)
	}
	res, ok := ResidualFor(pred.Signature, pred.Class)
	pred.Residual = res.Scale
	pred.ErrorBand = res.Band
	pred.Calibrated = ok
	pred.CPL = pred.RawCPL * res.Scale
}

// Residual is one calibrated correction: the multiplicative scale mapping
// a raw fast-tier CPL onto the simulator's CPL for a kernel (class), and
// the relative error band observed when fitting it. The table lives in
// residuals_gen.go, regenerated by internal/calib from simulator runs and
// persisted alongside the ISA timing tables as committed Go source.
type Residual struct {
	Kernel string  // human label of the calibration kernel
	Scale  float64 // sim CPL / raw predicted CPL
	Band   float64 // stated relative error band after scaling
}

// DefaultErrorBand is the conservative band served for programs the
// calibration corpus does not cover.
const DefaultErrorBand = 0.05

// ResidualFor looks up the calibrated residual for a program: exact
// signature first, kernel class second. ok is false when neither matched
// and the identity residual with DefaultErrorBand is returned.
func ResidualFor(sig, class string) (Residual, bool) {
	if r, ok := residualsBySig[sig]; ok {
		return r, true
	}
	if r, ok := residualsByClass[class]; ok {
		return r, true
	}
	return Residual{Kernel: "uncalibrated", Scale: 1, Band: DefaultErrorBand}, false
}
