package depgraph

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"macs/internal/asm"
	"macs/internal/isa"
)

// straightLineProgram is one long block: a counter bumped n times, with
// a store every storeEvery bumps, then a halt. Before instruction i the
// counter holds the number of bumps among instructions 0..i-1.
func straightLineProgram(t *testing.T, n, storeEvery int) (*asm.Program, []int64) {
	var b strings.Builder
	var want []int64
	count := int64(0)
	for i := 0; i < n; i++ {
		want = append(want, count)
		if storeEvery > 0 && i%storeEvery == storeEvery-1 {
			b.WriteString("st.l a0,d_out\n")
			continue
		}
		b.WriteString("add.w #1,a0\n")
		count++
	}
	want = append(want, count)
	b.WriteString("halt\n.data d_out 8\n")
	p, err := asm.Parse(b.String())
	if err != nil {
		t.Fatal(err)
	}
	return p, want
}

// TestIntervalKeptStates pins how the converged states are stored: one
// at each block entry and each memory instruction, and never more than
// keepEvery instructions apart, so a query steps at most keepEvery
// transfers whatever order queries come in.
func TestIntervalKeptStates(t *testing.T) {
	for _, storeEvery := range []int{0, 5, 40} {
		p, want := straightLineProgram(t, 1000, storeEvery)
		iv := Intervals(p)
		stores := 0
		for i, in := range p.Instrs {
			k := iv.kept[iv.near[i]]
			if gap := i - k.at; gap < 0 || gap >= keepEvery {
				t.Fatalf("storeEvery=%d: instruction %d answers from a state %d instructions back", storeEvery, i, gap)
			}
			if in.IsMemory() {
				stores++
				if k.at != i {
					t.Fatalf("storeEvery=%d: memory instruction %d has no state of its own", storeEvery, i)
				}
			}
		}
		if limit := 1 + stores + len(p.Instrs)/keepEvery; len(iv.kept) > limit {
			t.Errorf("storeEvery=%d: %d kept states, want at most %d", storeEvery, len(iv.kept), limit)
		}

		// Forward, backward and shuffled queries all read the counter.
		a0 := isa.A(0)
		order := rand.New(rand.NewSource(1)).Perm(len(p.Instrs))
		for _, idx := range order {
			if got := iv.Reg(idx, a0); got != Point(want[idx]) {
				t.Fatalf("storeEvery=%d: a0 before %d = %v, want %d", storeEvery, idx, got, want[idx])
			}
		}
		for idx := len(p.Instrs) - 1; idx >= 0; idx-- {
			if got := iv.Reg(idx, a0); got != Point(want[idx]) {
				t.Fatalf("storeEvery=%d: a0 before %d = %v, want %d", storeEvery, idx, got, want[idx])
			}
		}
	}
}

// TestIntervalRegConcurrent reads one result from several goroutines
// (run under -race): answers computed on demand share nothing mutable.
func TestIntervalRegConcurrent(t *testing.T) {
	p, want := straightLineProgram(t, 300, 7)
	iv := Intervals(p)
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for _, idx := range rand.New(rand.NewSource(seed)).Perm(len(p.Instrs)) {
				if got := iv.Reg(idx, isa.A(0)); got != Point(want[idx]) {
					errs <- fmt.Sprintf("a0 before %d = %v, want %d", idx, got, want[idx])
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
