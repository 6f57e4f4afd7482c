package fasttier

import (
	"errors"
	"fmt"

	"macs/internal/asm"
	"macs/internal/vm"
)

// Interval prediction: when a program branches on data the fast tier does
// not model (a float compare feeding a jbrs), a single replay cannot be
// bit-exact — but if the branch structure is bounded, the set of possible
// executions is small and each one CAN be replayed bit-exactly. The
// enumerator below explores that set with a depth-first search over
// branch-decision scripts: a replay that reaches an undecided branch
// stops with errNeedDecision, the script is extended with both outcomes,
// and each complete path contributes its exact cycle count. The answer
// is the envelope [min, max] over all paths, which provably contains the
// simulator's measurement because the real execution follows one of the
// enumerated decision vectors.
//
// The search is capped: programs whose data-dependent control flow is
// genuinely unbounded (an unknown trip count re-deciding the same branch
// every iteration) blow through maxIntervalDecisions and are still
// refused with ErrDataDependent, exactly as before.
const (
	// maxIntervalDecisions bounds the length of one decision script — the
	// number of data-dependent branch outcomes along a single path.
	maxIntervalDecisions = 16
	// maxIntervalPaths bounds the number of complete paths enumerated.
	maxIntervalPaths = 64
)

// predictInterval enumerates the admitted executions of prog and returns
// a prediction whose [CyclesLo, CyclesHi] envelope contains every one of
// them. The point fields describe the worst-case (slowest) path. It
// returns ErrDataDependent (wrapped) when the enumeration caps are
// exceeded or a path fails for a non-branch reason (unknown vector
// length, stride, or address). It walks each path, shaped by group g, with
// the one timer t.
func predictInterval(prog *asm.Program, iterations int64, ints map[string]int64, g groupKey, t *timer) (Prediction, error) {
	w := getWalk(g)
	defer putWalk(w)
	w.timers = append(w.timers, t)
	stack := [][]bool{nil}
	var (
		paths    int
		have     bool
		lo, hi   int64
		loP, hiP Prediction
	)
	for len(stack) > 0 {
		d := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		err := w.run(prog, ints, d, true)
		switch {
		case err == nil:
			pred := w.prediction(t, iterations)
			paths++
			if paths > maxIntervalPaths {
				return Prediction{}, fmt.Errorf("interval enumeration exceeded %d paths: %w",
					maxIntervalPaths, ErrDataDependent)
			}
			if !have || pred.Cycles < lo {
				lo, loP = pred.Cycles, pred
			}
			if !have || pred.Cycles > hi {
				hi, hiP = pred.Cycles, pred
			}
			have = true
		case errors.Is(err, errNeedDecision):
			if len(d) >= maxIntervalDecisions {
				return Prediction{}, fmt.Errorf("interval enumeration exceeded %d branch decisions: %w",
					maxIntervalDecisions, ErrDataDependent)
			}
			f := make([]bool, len(d)+1)
			copy(f, d)
			t := make([]bool, len(d)+1)
			copy(t, d)
			t[len(d)] = true
			stack = append(stack, f, t)
		default:
			// Any other failure — unknown VL/VS/address, runaway control
			// flow — poisons every path sharing the prefix; give up.
			return Prediction{}, err
		}
	}
	if !have {
		return Prediction{}, fmt.Errorf("interval enumeration found no complete path: %w", ErrDataDependent)
	}
	pred := hiP
	pred.Interval = true
	pred.Paths = paths
	pred.CyclesLo, pred.CyclesHi = lo, hi
	if iterations > 0 {
		pred.CPLLo = loP.CPL
		pred.CPLHi = hiP.CPL
	}
	return pred, nil
}

// PredictInterval is Predict's fallback for data-dependent programs: it
// enumerates the (bounded) set of branch outcomes and returns a
// prediction carrying the [CyclesLo, CyclesHi] envelope over every
// admitted execution, with the point fields describing the worst case.
// It returns ErrDataDependent (wrapped) when the control flow is not
// boundedly enumerable. Identical requests are memoized.
func (p *Predictor) PredictInterval(prog *asm.Program, iterations int64, ints map[string]int64) (Prediction, error) {
	mo, key := memoOf(prog), memoKey{pred: p, iterations: iterations, ints: intsFingerprint(ints), interval: true}
	if pred, ok := mo.get(key); ok {
		return pred, nil
	}
	t := p.pool.Get().(*timer)
	pred, err := predictInterval(prog, iterations, ints, groupOf(p.cfg), t)
	p.pool.Put(t)
	if err == nil {
		mo.put(key, pred)
	}
	return pred, err
}

// PredictInterval is the one-shot form of Predictor.PredictInterval.
func PredictInterval(prog *asm.Program, iterations int64, ints map[string]int64, cfg vm.Config) (Prediction, error) {
	return predictInterval(prog, iterations, ints, groupOf(cfg), newTimer(cfg.Machine))
}
