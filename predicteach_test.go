package macs_test

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"macs/internal/asm"
	"macs/internal/compiler"
	"macs/internal/fasttier"
	"macs/internal/lfk"
	"macs/internal/vm"
)

// lockstepConfigs returns machines for one PredictEach call on a program
// compiled at vector length vl: the base machine at that length, variants
// of every knob only a timer reads (memory geometry, stall switches,
// contention, every scalar latency), and variants of the knobs that shape
// the walk (vector length ceiling, chime rules, instruction budget), so
// one call spans several lockstep groups.
func lockstepConfigs(vl int) []vm.Config {
	base := vm.DefaultConfig()
	base.VLMax = vl
	muts := []func(*vm.Config){
		func(c *vm.Config) {},
		func(c *vm.Config) { c.Banks = 16 },
		func(c *vm.Config) { c.Banks = 64 },
		func(c *vm.Config) { c.BankCycle = 4 },
		func(c *vm.Config) { c.BankCycle = 12 },
		func(c *vm.Config) { c.RefreshPeriod = 200 },
		func(c *vm.Config) { c.RefreshLen = 30 },
		func(c *vm.Config) { c.BankConflicts = false },
		func(c *vm.Config) { c.RefreshStalls = false },
		func(c *vm.Config) { c.BankConflicts, c.RefreshStalls = false, false },
		func(c *vm.Config) { c.MemSlowdown = 1.37 },
		func(c *vm.Config) { c.MemSlowdown = 2.5 },
		func(c *vm.Config) { c.ScalarLoadLat = 9 },
		func(c *vm.Config) { c.ScalarOpLat = 3 },
		func(c *vm.Config) { c.BranchPenalty = 5 },
		func(c *vm.Config) { c.DispatchLat = 3 },
		func(c *vm.Config) {
			c.Banks, c.BankCycle, c.RefreshPeriod, c.MemSlowdown, c.ScalarLoadLat = 16, 12, 300, 1.6, 2
		},
		// Walk-shaping variants: each opens a group of its own.
		func(c *vm.Config) { c.VLMax = 2 * vl },
		func(c *vm.Config) { c.Rules.Chaining = false },
		func(c *vm.Config) { c.Rules.Chaining, c.Banks = false, 16 },
		func(c *vm.Config) { c.Rules.Bubbles, c.Rules.SplitRule = false, false },
	}
	out := make([]vm.Config, len(muts))
	for i, mut := range muts {
		out[i] = base
		mut(&out[i])
	}
	return out
}

// checkPredictEach runs one PredictEach over cfgs' predictors — with
// every third predictor's memo primed first — and requires every answer
// to equal a fresh one-machine Predict, errors included. It returns the
// lockstep errors.
func checkPredictEach(t *testing.T, label string, prog *asm.Program, iterations int64, ints map[string]int64, cfgs []vm.Config) []error {
	t.Helper()
	preds := make([]*fasttier.Predictor, len(cfgs))
	for i, cfg := range cfgs {
		preds[i] = fasttier.NewPredictor(cfg)
		if i%3 == 1 {
			preds[i].Predict(prog, iterations, ints)
		}
	}
	got, errs := fasttier.PredictEach(prog, iterations, ints, preds)
	if len(got) != len(cfgs) || len(errs) != len(cfgs) {
		t.Fatalf("%s: %d predictions and %d errors for %d predictors", label, len(got), len(errs), len(cfgs))
	}
	for i, cfg := range cfgs {
		want, werr := fasttier.Predict(prog, iterations, ints, cfg)
		if (werr == nil) != (errs[i] == nil) || werr != nil && werr.Error() != errs[i].Error() {
			t.Errorf("%s machine %d: error %v, want %v", label, i, errs[i], werr)
			continue
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("%s machine %d: lockstep prediction\n%+v\nwant\n%+v", label, i, got[i], want)
		}
	}
	return errs
}

// TestPredictEachMatchesPredict: scoring many machines in one lockstep
// walk answers each machine exactly as predicting it alone does —
// cycles, attribution, counters and errors — on the ten LFKs at three
// vector lengths, on seeded random stride kernels, on a data-dependent
// program and on runaway control flow.
func TestPredictEachMatchesPredict(t *testing.T) {
	for _, vl := range []int{128, 64, 32} {
		opts := compiler.DefaultOptions()
		opts.VL = vl
		for _, k := range lfk.All() {
			c, err := lfk.Compile(k, opts)
			if err != nil {
				t.Fatalf("lfk%d VL %d: %v", k.ID, vl, err)
			}
			checkPredictEach(t, fmt.Sprintf("lfk%d VL %d", k.ID, vl), c.Program, int64(k.Elements), k.DataInts(), lockstepConfigs(vl))
		}
	}

	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 40; trial++ {
		src, iters := randomStrideKernel(r)
		prog, err := compiler.Compile(src, compiler.DefaultOptions())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		checkPredictEach(t, fmt.Sprintf("random trial %d", trial), prog, iters, nil, lockstepConfigs(128))
	}

	const dataDep = `
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
	prog, err := compiler.Compile(dataDep, compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i, err := range checkPredictEach(t, "data-dependent", prog, 16, map[string]int64{"d_N": 16}, lockstepConfigs(128)) {
		if !errors.Is(err, fasttier.ErrDataDependent) {
			t.Errorf("data-dependent machine %d: error %v, want ErrDataDependent", i, err)
		}
	}

	// Runaway: a budget too small for LFK1 fails its group and leaves the
	// groups with the default budget untouched.
	c, err := lfk.Compile(lfk.LFK1(), compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cfgs := lockstepConfigs(128)
	for i := range cfgs {
		if i%2 == 0 {
			cfgs[i].MaxInstrs = 100
		}
	}
	errs := checkPredictEach(t, "runaway", c.Program, int64(lfk.LFK1().Elements), lfk.LFK1().DataInts(), cfgs)
	for i, err := range errs {
		if (err != nil) != (i%2 == 0) {
			t.Errorf("runaway machine %d: error %v, want one exactly when its budget is 100 instructions", i, err)
		}
	}
}
