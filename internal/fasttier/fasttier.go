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
// The timing equations are the simulator's, so the answer is the
// simulator's: a successful single-path prediction carries exactly the
// cycle count, counters and per-lane attribution vm.CPU would measure on
// the same machine (the LFK golden test pins it). The tier shares the
// simulator's types — a machine is a vm.Config, an attribution is a
// vm.Attribution — so the two tiers' answers compare without translation.
package fasttier

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"

	"macs/internal/asm"
	"macs/internal/core"
	"macs/internal/isa"
	"macs/internal/vm"
)

// ErrDataDependent marks a program the fast tier cannot predict: its
// control flow (or a vector length / stride / address) depends on
// floating-point data or on memory the caller did not prime. The exact
// tier handles such programs.
var ErrDataDependent = errors.New("fasttier: control flow depends on data the fast tier does not model")

// Prediction is the fast tier's answer for one program.
type Prediction struct {
	// Cycles is the predicted run length of the whole program.
	Cycles int64
	// CPL is Cycles divided by the caller's iteration count (0 when no
	// iteration count was given).
	CPL float64
	// Class is the coarse kernel class the service groups divergence
	// metrics by (see Class).
	Class string
	// Instrs, VectorInstrs, ScalarInstrs and Chimes count the replayed
	// schedule; MemStalls and PortConflicts are the simulator's stats of
	// the same names.
	Instrs        int64
	VectorInstrs  int64
	ScalarInstrs  int64
	Chimes        int64
	MemStalls     int64
	PortConflicts int64
	// Attr is the predicted per-lane stall attribution; it is conserved
	// against Cycles by construction.
	Attr vm.Attribution

	// Interval reports that this prediction came from bounded enumeration
	// of data-dependent branch outcomes rather than a single bit-exact
	// replay. CyclesLo/CyclesHi bound the run length over every admitted
	// outcome vector; because each enumerated path is itself bit-exact and
	// the real execution follows one of them, the simulator's measurement
	// is guaranteed to land inside [CyclesLo, CyclesHi]. CPLLo/CPLHi are
	// the per-iteration forms of those bounds. Paths counts the complete
	// paths enumerated; the point fields (Cycles, CPL, Attr, ...) describe
	// the worst-case path.
	Interval bool
	Paths    int
	CyclesLo int64
	CyclesHi int64
	CPLLo    float64
	CPLHi    float64
}

// Class returns the coarse kernel class of a program: the chime count and
// the memory/FP composition of its inner vectorized loop at full vector
// length. The service groups divergence metrics by it.
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
	cfg  vm.Config
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

// NewPredictor creates a Predictor for one simulator configuration: its
// machine description and its instruction budget.
func NewPredictor(cfg vm.Config) *Predictor {
	p := &Predictor{cfg: cfg}
	p.pool.New = func() any { return newTimer(cfg.Machine) }
	return p
}

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
	err := replay(prog, iterations, ints, groupOf(p.cfg), []*timer{t}, out[:])
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
		g := groupOf(preds[miss[0]].cfg)
		group, timers = group[:0], timers[:0]
		rest := miss[:0]
		for _, i := range miss {
			if groupOf(preds[i].cfg) != g {
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
func Predict(prog *asm.Program, iterations int64, ints map[string]int64, cfg vm.Config) (Prediction, error) {
	var out [1]Prediction
	if err := replay(prog, iterations, ints, groupOf(cfg), []*timer{newTimer(cfg.Machine)}, out[:]); err != nil {
		return Prediction{}, err
	}
	return out[0], nil
}

// classKey keys a program's class among its derived facts: computed on
// the program's first prediction, reused by every later one (an explore
// sweep predicts one program on every grid point), and gone with the
// program.
type classKey struct{ rules core.Rules }

// finishPrediction stamps the program's class and the per-iteration CPL.
func finishPrediction(pred *Prediction, prog *asm.Program, rules core.Rules, iterations int64) {
	pred.Class = prog.Derived(classKey{rules}, func() any { return Class(prog, rules) }).(string)
	if iterations > 0 {
		pred.CPL = float64(pred.Cycles) / float64(iterations)
	}
}
