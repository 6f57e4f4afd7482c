package fasttier_test

import (
	"sync"
	"testing"

	"macs/internal/asm"
	"macs/internal/compiler"
	"macs/internal/fasttier"
	"macs/internal/lfk"
	"macs/internal/vm"
)

// TestPredictEachConcurrent: lockstep and one-machine predictions may run
// at once over shared predictors and shared programs (run under -race).
// Every call asks for an iteration count no other call uses, so the memo
// misses and timers drawn from the shared pools really replay; each
// answer must still carry its machine's cycle count.
func TestPredictEachConcurrent(t *testing.T) {
	var cfgs []vm.Config
	for _, banks := range []int{16, 32, 64} {
		for _, slow := range []float64{1, 1.5} {
			cfg := vm.DefaultConfig()
			cfg.Banks, cfg.MemSlowdown = banks, slow
			cfgs = append(cfgs, cfg)
		}
	}
	noChain := vm.DefaultConfig()
	noChain.Rules.Chaining = false
	cfgs = append(cfgs, noChain)

	type kernel struct {
		prog *asm.Program
		ints map[string]int64
		want []int64 // cycles per machine
	}
	var kernels []kernel
	for _, k := range []*lfk.Kernel{lfk.LFK1(), lfk.LFK7()} {
		prog, err := compiler.Compile(k.Source, compiler.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		kn := kernel{prog: prog, ints: k.DataInts()}
		for _, cfg := range cfgs {
			p, err := fasttier.Predict(prog, 1, kn.ints, cfg)
			if err != nil {
				t.Fatal(err)
			}
			kn.want = append(kn.want, p.Cycles)
		}
		kernels = append(kernels, kn)
	}

	preds := make([]*fasttier.Predictor, len(cfgs))
	for i, cfg := range cfgs {
		preds[i] = fasttier.NewPredictor(cfg)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				it := int64(1000*g + i + 1)
				kn := kernels[i%len(kernels)]
				if g%2 == 0 {
					out, errs := fasttier.PredictEach(kn.prog, it, kn.ints, preds)
					for j := range preds {
						if errs[j] != nil || out[j].Cycles != kn.want[j] {
							t.Errorf("lockstep machine %d: %d cycles, %v; want %d", j, out[j].Cycles, errs[j], kn.want[j])
						}
					}
					continue
				}
				for j, p := range preds {
					pred, err := p.Predict(kn.prog, it, kn.ints)
					if err != nil || pred.Cycles != kn.want[j] {
						t.Errorf("machine %d: %d cycles, %v; want %d", j, pred.Cycles, err, kn.want[j])
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
