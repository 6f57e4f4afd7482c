package vm_test

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"macs/internal/compiler"
	"macs/internal/lfk"
	"macs/internal/vm"
)

// retargetWalk is a seeded walk over machines that between them change
// every piece of state a retarget swaps: the vector length (32/64/128),
// the chime rules (chaining and the pair rule off), the bank geometry,
// the refresh schedule, refresh and bank modelling off (no stall table),
// and returns to machines seen earlier.
func retargetWalk() []vm.Machine {
	base := vm.DefaultMachine()
	at := func(edit func(*vm.Machine)) vm.Machine {
		m := base
		edit(&m)
		return m
	}
	machines := []vm.Machine{
		base,
		at(func(m *vm.Machine) { m.VLMax = 64 }),
		at(func(m *vm.Machine) { m.VLMax = 32; m.Rules.Chaining = false }),
		at(func(m *vm.Machine) { m.Rules.PairRule = false }),
		at(func(m *vm.Machine) { m.Banks, m.BankCycle, m.RefreshPeriod, m.RefreshLen = 16, 12, 200, 16 }),
		at(func(m *vm.Machine) { m.VLMax = 64; m.RefreshStalls = false }),
		at(func(m *vm.Machine) { m.BankConflicts, m.RefreshStalls = false, false }),
		at(func(m *vm.Machine) { m.VLMax = 32; m.Banks = 64; m.MemSlowdown = 1.5 }),
	}
	walk := append([]vm.Machine(nil), machines...)
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 6; i++ {
		walk = append(walk, machines[rng.Intn(len(machines))])
	}
	return append(walk, machines[1])
}

// runOutcome is everything a run leaves behind that a retarget could
// disturb: the stats (attribution included), the trace ring and the
// program's whole data image, bit for bit.
type runOutcome struct {
	stats   vm.Stats
	trace   []vm.TraceEvent
	dropped int64
	data    []uint64
}

func outcome(t *testing.T, c *lfk.Compiled, cpu *vm.CPU) runOutcome {
	t.Helper()
	st, err := c.RunOn(cpu)
	if err != nil {
		t.Fatal(err)
	}
	o := runOutcome{stats: st, trace: cpu.TraceEvents(), dropped: cpu.TraceDropped()}
	m := cpu.Memory()
	for _, d := range c.Program.Data {
		base, _ := m.SymbolAddr(d.Name)
		for off := int64(0); off < d.Size; off += 8 {
			v, err := m.ReadF64(base + off)
			if err != nil {
				t.Fatal(err)
			}
			o.data = append(o.data, math.Float64bits(v))
		}
	}
	return o
}

// TestPoolRetargetMatchesFresh walks one pooled CPU through a seeded
// sequence of machines, running all ten LFKs (compiled at each machine's
// vector length) on every stop, and requires each run to be bit-equal to
// a fresh vm.New(run.WithMachine(m)) — on the memoized memory path and on
// the naive reference walk. The pool's own machine has the shortest
// vector length, so its CPU must grow its registers to follow the walk.
func TestPoolRetargetMatchesFresh(t *testing.T) {
	progs := map[int][]*lfk.Compiled{}
	compiled := func(vl int) []*lfk.Compiled {
		if cs, ok := progs[vl]; ok {
			return cs
		}
		opts := compiler.DefaultOptions()
		opts.VL = vl
		for _, k := range lfk.All() {
			c, err := lfk.Compile(k, opts)
			if err != nil {
				t.Fatal(err)
			}
			progs[vl] = append(progs[vl], c)
		}
		return progs[vl]
	}
	for _, naive := range []bool{false, true} {
		run := vm.DefaultConfig()
		run.VLMax = 32
		run.TraceRing = 16
		run.NaiveMemPath = naive
		pool := vm.NewPool(run)
		for step, m := range retargetWalk() {
			for _, c := range compiled(m.VLMax) {
				cpu := pool.GetFor(m)
				got := outcome(t, c, cpu)
				if err := c.Validate(cpu); err != nil {
					t.Fatalf("naive=%v step %d: %v", naive, step, err)
				}
				pool.Put(cpu)
				want := outcome(t, c, vm.New(run.WithMachine(m)))
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("naive=%v step %d lfk%d: retargeted CPU diverges from a fresh one:\ngot  %+v\nwant %+v",
						naive, step, c.Kernel.ID, got.stats, want.stats)
				}
			}
		}
		if created, _ := pool.Stats(); created != 1 {
			t.Fatalf("naive=%v: pool created %d CPUs for a sequential walk, want 1", naive, created)
		}
	}
}
