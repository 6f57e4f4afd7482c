package vm

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	"macs/internal/asm"
)

// poolTestSrc exercises scalar code, strided vector memory (bank
// conflicts + refresh), chaining and a reduction — enough machinery that
// a stale field surviving Reset would change the outcome.
const poolTestSrc = `
.data a 4096
.data b 4096
	mov #256,vs
	mov #128,s2
	mov s2,vl
	mov #4,s0
L1:
	ld.l a(a0),v0
	add.d v0,v1,v2
	mul.d v2,v0,v3
	st.l v3,b(a0)
	sum.d v2,s5
	add.w #8,a0
	sub.w #1,s0
	lt.w #0,s0
	jbrs.t L1
`

func runOn(t *testing.T, c *CPU, src string) Stats {
	t.Helper()
	p, err := asm.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Load(p); err != nil {
		t.Fatal(err)
	}
	m := c.Memory()
	base, _ := m.SymbolAddr("a")
	for i := 0; i < 256; i++ {
		if err := m.WriteF64(base+int64(i*8), 1.5+float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	st, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestResetEquivalence is the pooled-reset gate: running on a Reset CPU —
// repeatedly, and after a different intervening program — must reproduce
// the fresh CPU's Stats (attribution ledger included) and results
// exactly.
func TestResetEquivalence(t *testing.T) {
	cfg := DefaultConfig()
	fresh := New(cfg)
	want := runOn(t, fresh, poolTestSrc)
	wantS5 := fresh.SFloat(5)

	reused := New(cfg)
	other := `
.data c 1024
	mov #8,vs
	mov #64,s1
	mov s1,vl
	ld.l c(a0),v7
	neg.d v7,v1
	st.l v1,c(a0)
`
	for round := 0; round < 3; round++ {
		if round > 0 {
			reused.Reset()
			runOn(t, reused, other) // dirty every corner of the state
			reused.Reset()
		}
		got := runOn(t, reused, poolTestSrc)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: stats diverge after Reset:\ngot  %+v\nwant %+v", round, got, want)
		}
		if s5 := reused.SFloat(5); s5 != wantS5 {
			t.Fatalf("round %d: s5 = %v, want %v", round, s5, wantS5)
		}
		if err := got.Attr.Conserved(got.Cycles); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

// TestResetNaiveFastEquivalence runs the same program over the memoized
// fast path and the naive reference path; Stats must be bit-identical.
func TestResetNaiveFastEquivalence(t *testing.T) {
	fastCfg := DefaultConfig()
	naiveCfg := DefaultConfig()
	naiveCfg.NaiveMemPath = true

	fast := New(fastCfg)
	naive := New(naiveCfg)
	for round := 0; round < 2; round++ { // second round hits the memo table
		gotFast := runOn(t, fast, poolTestSrc)
		gotNaive := runOn(t, naive, poolTestSrc)
		if !reflect.DeepEqual(gotFast, gotNaive) {
			t.Fatalf("round %d: fast and naive paths diverge:\nfast  %+v\nnaive %+v", round, gotFast, gotNaive)
		}
		fast.Reset()
		naive.Reset()
	}
}

// TestResetDropsTraceAliasing: a trace returned before Reset must not be
// clobbered by the next run.
func TestResetDropsTraceAliasing(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Trace = true
	c := New(cfg)
	runOn(t, c, poolTestSrc)
	tr := c.TraceEvents()
	if len(tr) == 0 {
		t.Fatal("no trace events")
	}
	snapshot := append([]TraceEvent(nil), tr...)
	c.Reset()
	runOn(t, c, poolTestSrc)
	if !reflect.DeepEqual(tr, snapshot) {
		t.Fatal("trace returned before Reset was mutated by the next run")
	}
}

// TestPoolConcurrent hammers one pool from many goroutines under -race:
// every run must match the single-threaded reference exactly.
func TestPoolConcurrent(t *testing.T) {
	cfg := DefaultConfig()
	want := runOn(t, New(cfg), poolTestSrc)

	pool := NewPool(cfg)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				c := pool.Get()
				p, err := asm.Parse(poolTestSrc)
				if err != nil {
					errs <- err
					return
				}
				if err := c.Load(p); err != nil {
					errs <- err
					return
				}
				m := c.Memory()
				base, _ := m.SymbolAddr("a")
				for k := 0; k < 256; k++ {
					if err := m.WriteF64(base+int64(k*8), 1.5+float64(k)); err != nil {
						errs <- err
						return
					}
				}
				st, err := c.Run()
				if err != nil {
					errs <- err
					return
				}
				pool.Put(c)
				if !reflect.DeepEqual(st, want) {
					errs <- errMismatch{}
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	created, returned := pool.Stats()
	if returned == 0 {
		t.Fatal("pool never recycled a CPU")
	}
	if created > 64 {
		t.Fatalf("pool created %d CPUs for 64 runs on 8 goroutines", created)
	}
}

type errMismatch struct{}

func (errMismatch) Error() string { return "pooled run stats diverge from fresh reference" }

// TestPoolSurvivesGC checks that garbage collections between runs do not
// make a steadily used pool rebuild its CPU: a sync.Pool alone is emptied
// by two collections.
func TestPoolSurvivesGC(t *testing.T) {
	pool := NewPool(DefaultConfig())
	for i := 0; i < 4; i++ {
		c := pool.Get()
		runOn(t, c, poolTestSrc)
		pool.Put(c)
		runtime.GC()
		runtime.GC()
	}
	if created, returned := pool.Stats(); created != 1 || returned != 4 {
		t.Fatalf("created=%d returned=%d across collections, want 1 and 4", created, returned)
	}
}

// TestPoolKeepBounded checks that the strong hold on idle CPUs is bounded
// across pools, and that each pool gets back only its own CPUs.
func TestPoolKeepBounded(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MemSize = 1 << 16
	pools := make([]*Pool, 2*keepIdle)
	cpus := make([]*CPU, len(pools))
	for i := range pools {
		pools[i] = NewPool(cfg)
		cpus[i] = pools[i].Get()
	}
	for i, p := range pools {
		p.Put(cpus[i])
	}
	kept.mu.Lock()
	n := len(kept.idle)
	kept.mu.Unlock()
	if n > keepIdle {
		t.Fatalf("%d idle CPUs held strongly, want at most %d", n, keepIdle)
	}
	last := len(pools) - 1
	if c := pools[last].Get(); c != cpus[last] {
		t.Fatal("most recently returned CPU was not handed back to its pool")
	}
	if c := pools[last].Get(); c == cpus[last-1] {
		t.Fatal("a pool was handed another pool's CPU")
	}
}

// TestPoolGetAfterGetFor checks that a CPU retargeted by GetFor and put
// back is pointed at the pool's own machine again by the next Get, and
// runs exactly as a fresh CPU of the pool's configuration.
func TestPoolGetAfterGetFor(t *testing.T) {
	cfg := DefaultConfig()
	want := runOn(t, New(cfg), poolTestSrc)
	other := cfg.Machine
	other.VLMax = 32
	other.Banks = 16
	other.Rules.Chaining = false

	pool := NewPool(cfg)
	c := pool.GetFor(other)
	if c.cfg.Machine != other || len(c.v[0]) != other.VLMax {
		t.Fatalf("GetFor: CPU at VLMax %d (%d-element registers), want %d", c.cfg.VLMax, len(c.v[0]), other.VLMax)
	}
	runOn(t, c, poolTestSrc)
	pool.Put(c)

	c = pool.Get()
	if c.cfg != cfg {
		t.Fatalf("Get after GetFor: CPU config %+v, want the pool's %+v", c.cfg, cfg)
	}
	if got := runOn(t, c, poolTestSrc); !reflect.DeepEqual(got, want) {
		t.Fatalf("Get after GetFor: stats diverge from a fresh CPU:\ngot  %+v\nwant %+v", got, want)
	}
	pool.Put(c)
	if created, _ := pool.Stats(); created != 1 {
		t.Fatalf("pool created %d CPUs, want 1", created)
	}
}
