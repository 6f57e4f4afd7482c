package vm

import (
	"slices"
	"sync"
	"sync/atomic"
)

// Pool recycles CPUs of one run configuration. A fresh CPU carries a
// multi-megabyte memory image and per-register vector buffers; under a
// busy service every cache-miss analysis was paying that allocation. A
// pooled CPU instead pays a Reset proportional to what the previous run
// wrote, and keeps its memoized stream-stall tables warm across runs.
//
// Get returns a CPU at the pool's own machine, ready to Load; GetFor
// returns one pointed at any other machine, so a design-space sweep
// needs one pool, not one per machine. Put resets a CPU and makes it
// available again. The pool is safe for concurrent use; each CPU must
// still be used by one goroutine at a time.
type Pool struct {
	cfg    Config
	p      sync.Pool
	news   atomic.Int64
	reuses atomic.Int64
}

// keepIdle bounds how many idle CPUs, across every pool in the process,
// are held strongly. A sync.Pool is emptied by two garbage collections,
// and a busy analyzer's GCs come often (each fresh CPU is a 16 MiB
// allocation), so without a strong hold the pool of a steady request
// stream keeps losing its CPUs and rebuilding them. The bound is global,
// not per pool, so the memory images pinned stay bounded however many
// pools a process creates.
const keepIdle = 2

// kept holds the most recently returned idle CPUs, oldest first. A Put
// past keepIdle hands the oldest to its own pool's sync.Pool, so the
// holds follow whichever pools are in use.
var kept struct {
	mu   sync.Mutex
	idle []keptCPU
}

type keptCPU struct {
	pool *Pool
	cpu  *CPU
}

// NewPool creates a pool of CPUs with the given configuration.
func NewPool(cfg Config) *Pool {
	pl := &Pool{cfg: cfg}
	pl.p.New = func() any {
		pl.news.Add(1)
		return New(cfg)
	}
	return pl
}

// Config returns the pool's CPU configuration.
func (p *Pool) Config() Config { return p.cfg }

// Get returns a reset CPU at the pool's own machine, creating one if the
// pool is empty. A CPU another caller retargeted with GetFor is pointed
// back first.
func (p *Pool) Get() *CPU { return p.GetFor(p.cfg.Machine) }

// GetFor returns a reset CPU simulating machine m under the pool's run
// configuration: it runs exactly as a fresh New(p.Config().WithMachine(m))
// would. A recycled CPU is retargeted — its memory image kept, only its
// machine-derived state swapped — rather than rebuilt.
func (p *Pool) GetFor(m Machine) *CPU {
	c := p.takeKept()
	if c == nil {
		var ok bool
		c, ok = p.p.Get().(*CPU)
		if !ok {
			// Unreachable: the pool only ever holds *CPU. Fail safe with
			// a fresh simulator rather than panicking in a serving path.
			return New(p.cfg.WithMachine(m))
		}
	}
	if c.prog != nil || c.halted {
		// Defensive: a CPU returned without Reset (Put always resets, so
		// only a foreign Put could cause this).
		c.Reset()
	}
	c.retarget(m)
	return c
}

// takeKept removes and returns the newest strongly held CPU of this
// pool, or nil if there is none.
func (p *Pool) takeKept() *CPU {
	kept.mu.Lock()
	defer kept.mu.Unlock()
	for i := len(kept.idle) - 1; i >= 0; i-- {
		if k := kept.idle[i]; k.pool == p {
			kept.idle = slices.Delete(kept.idle, i, i+1)
			return k.cpu
		}
	}
	return nil
}

// Put resets a CPU and returns it to the pool. Putting nil is a no-op. The
// CPU must not be used after Put.
func (p *Pool) Put(c *CPU) {
	if c == nil {
		return
	}
	c.Reset()
	p.reuses.Add(1)
	kept.mu.Lock()
	kept.idle = append(kept.idle, keptCPU{p, c})
	var old keptCPU
	if len(kept.idle) > keepIdle {
		old = kept.idle[0]
		kept.idle = slices.Delete(kept.idle, 0, 1)
	}
	kept.mu.Unlock()
	if old.cpu != nil {
		old.pool.p.Put(old.cpu)
	}
}

// Stats reports how many CPUs the pool has created and how many Puts have
// returned one for reuse.
func (p *Pool) Stats() (created, returned int64) {
	return p.news.Load(), p.reuses.Load()
}
