package fasttier_test

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"macs/internal/asm"
	"macs/internal/compiler"
	"macs/internal/fasttier"
	"macs/internal/lfk"
	"macs/internal/vm"
)

// TestMemoDiesWithProgram: the prediction memo lives on the program, so
// a predictor that memoized a prediction for a program does not keep the
// program alive once its caller drops it — and while the program lives, a
// repeated request is answered from the memo.
func TestMemoDiesWithProgram(t *testing.T) {
	pred := fasttier.NewPredictor(vm.DefaultConfig())
	k := lfk.LFK1()
	collected := make(chan struct{})
	func() {
		prog, err := compiler.Compile(k.Source, compiler.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		ints := k.DataInts()
		first, err := pred.Predict(prog, int64(k.Elements), ints)
		if err != nil {
			t.Fatal(err)
		}
		// A memo hit allocates only the inputs' fingerprint; a replay
		// of this kernel allocates about a hundred times.
		var again fasttier.Prediction
		allocs := testing.AllocsPerRun(5, func() {
			again, err = pred.Predict(prog, int64(k.Elements), ints)
		})
		if err != nil || !reflect.DeepEqual(again, first) {
			t.Fatalf("repeated prediction = %+v, %v; want %+v", again, err, first)
		}
		if allocs > 4 {
			t.Fatalf("repeated prediction made %v allocations: the memo missed", allocs)
		}
		runtime.SetFinalizer(prog, func(*asm.Program) { close(collected) })
	}()
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-collected:
			runtime.KeepAlive(pred)
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("program still reachable after its caller dropped it: the predictor retains it")
}
