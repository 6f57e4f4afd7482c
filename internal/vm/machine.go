package vm

import (
	"crypto/sha256"
	"fmt"

	"macs/internal/core"
	"macs/internal/isa"
	"macs/internal/mem"
)

// Machine is the description of one hypothetical machine: everything
// about the hardware the timing model depends on, and nothing about how
// a particular run is driven (memory image size, instruction budgets,
// tracing — those stay in Config). Splitting the two is what makes
// design-space exploration cheap: a sweep varies Machines while sharing
// one compiled program and one run configuration, and the per-machine
// caches (the explore engine's fast-tier predictors, the persistent
// result cache) key off Fingerprint.
//
// The zero value is not a useful machine; use DefaultMachine and adjust.
// Machine is comparable, so it can key maps directly when a hash is not
// needed.
type Machine struct {
	// VLMax is the hardware vector length (128 on the C-240).
	VLMax int
	// Rules are the chime formation rules shared with the MACS bound:
	// chaining, the register pair rule, the memory-port split rule,
	// tailgating bubbles.
	Rules core.Rules
	// Memory geometry: interleaved bank count, bank busy time per access,
	// and the refresh schedule (cycles between refreshes, cycles each one
	// lasts). Zero fields fall back to the C-240 values (32 banks, 8-cycle
	// bank busy, refresh every 400 cycles for 8), so configurations from
	// before the machine split keep their meaning.
	Banks         int
	BankCycle     int
	RefreshPeriod int
	RefreshLen    int
	// BankConflicts enables bank-busy stalls for non-unit strides.
	BankConflicts bool
	// RefreshStalls enables real refresh stalls in vector memory streams.
	RefreshStalls bool
	// MemSlowdown multiplies the per-element cost of vector memory
	// streams and scalar memory latency; >1 models multi-process memory
	// contention (paper §4.2). 1.0 means an otherwise idle machine.
	MemSlowdown float64
	// Scalar timing: ASU latencies in cycles.
	ScalarLoadLat int // scalar load/store
	ScalarOpLat   int // scalar ALU op, move, compare
	BranchPenalty int // extra cycles for a taken branch
	DispatchLat   int // ASU cycles to dispatch a vector instruction
}

// DefaultMachine returns the paper's Convex C-240.
func DefaultMachine() Machine {
	return Machine{
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
	}
}

// BankConfig renders the machine's memory geometry as the bank model's
// configuration. Zero geometry fields take the C-240 defaults — a Machine
// that only sets the knobs that existed before the split (or a sparse
// sweep point) still describes a well-formed memory system rather than a
// zero-bank one.
func (m Machine) BankConfig() mem.Config {
	c := mem.DefaultConfig()
	if m.Banks > 0 {
		c.Banks = m.Banks
	}
	if m.BankCycle > 0 {
		c.BankCycle = m.BankCycle
	}
	if m.RefreshPeriod > 0 {
		c.RefreshPeriod = m.RefreshPeriod
	}
	if m.RefreshLen > 0 {
		c.RefreshLen = m.RefreshLen
	}
	c.RefreshEnabled = m.RefreshStalls
	return c
}

// Fingerprint returns the canonical content hash of the machine
// description — the one keying scheme shared by the persistent result
// cache, the fast-tier prediction memo and the explore engine's
// per-machine state. Every Machine field is written to the hash by name,
// so two machines collide only when they are the same machine; the
// macsvet "fingerprint" rule statically verifies that no field can be
// added to Machine without being folded in here.
func (m Machine) Fingerprint() string {
	h := sha256.New()
	fmt.Fprintf(h, "vlmax=%d;", m.VLMax)
	fmt.Fprintf(h, "rules=%+v;", m.Rules)
	fmt.Fprintf(h, "banks=%d;", m.Banks)
	fmt.Fprintf(h, "bankcycle=%d;", m.BankCycle)
	fmt.Fprintf(h, "refreshperiod=%d;", m.RefreshPeriod)
	fmt.Fprintf(h, "refreshlen=%d;", m.RefreshLen)
	fmt.Fprintf(h, "bankconflicts=%t;", m.BankConflicts)
	fmt.Fprintf(h, "refreshstalls=%t;", m.RefreshStalls)
	fmt.Fprintf(h, "memslowdown=%g;", m.MemSlowdown)
	fmt.Fprintf(h, "scalarloadlat=%d;", m.ScalarLoadLat)
	fmt.Fprintf(h, "scalaroplat=%d;", m.ScalarOpLat)
	fmt.Fprintf(h, "branchpenalty=%d;", m.BranchPenalty)
	fmt.Fprintf(h, "dispatchlat=%d;", m.DispatchLat)
	return fmt.Sprintf("%x", h.Sum(nil))
}
