package vm

import (
	"fmt"
	"math"

	"macs/internal/asm"
	"macs/internal/core"
	"macs/internal/isa"
	"macs/internal/mem"
)

// vwriter records the in-flight producer of a vector register for the
// chaining and completion constraints.
type vwriter struct {
	valid bool
	chime int64
	start int64
	y     int
	z     float64
	fin   int64
}

// CPU is one simulated C-240 processor with its timing state. Create with
// New, load a program with Load, execute with Run.
type CPU struct {
	cfg  Config
	mem  *mem.Memory
	prog *asm.Program

	// Architectural state.
	a  [isa.NumARegs]int64
	s  [isa.NumSRegs]uint64
	v  [isa.NumVRegs][]float64
	vl int
	vs int64
	tf bool
	pc int

	// Timing state.
	clock          int64
	pipeFree       [4]int64 // indexed by isa.Pipe (PipeNone unused)
	pipeUsed       [4]bool
	vw             [isa.NumVRegs]vwriter
	sReady         [isa.NumSRegs]int64
	vectorPortFree int64
	scalarPortFree int64
	builder        *core.ChimeBuilder
	chimeID        int64
	chimeStart     int64
	chimeMemStall  int64
	chimeVL        int
	lastChimeStart int64
	prevGate       int64
	maxEvent       int64
	bankCfg        mem.Config

	sharedBank BankReserver
	halted     bool
	finished   bool

	// stallTab memoizes vector-stream stall queries across streams and —
	// because Reset keeps it — across pooled runs. Nil when the config
	// models neither bank conflicts nor refresh, or when NaiveMemPath
	// keeps the reference walk in charge. stallTabs holds the tables of
	// every memory geometry this CPU has been retargeted to, so a pooled
	// CPU moving between machines keeps each one warm.
	stallTab  *mem.StallTable
	stallTabs map[mem.Config]*mem.StallTable
	// vscratch is the vector ALU staging buffer (results are computed here
	// before being copied to the destination register, so aliased operands
	// read consistent values without a per-instruction allocation).
	vscratch []float64

	stats Stats
	trace []TraceEvent
	ring  *traceRing

	// Attribution state: per-lane accounted frontiers (see attr.go) and
	// whether the chime that set prevGate was closed by the split rule.
	laneTime      [NumLanes]int64
	prevGateSplit bool
}

// stallTabCap bounds the stall tables one CPU keeps; on overflow they are
// dropped wholesale (a table refills in a few queries, bookkeeping does
// not pay).
const stallTabCap = 64

// New creates a CPU with the given configuration.
func New(cfg Config) *CPU {
	c := &CPU{
		cfg:     cfg,
		mem:     mem.New(cfg.MemSize),
		builder: core.NewChimeBuilder(cfg.Rules),
		vs:      isa.WordBytes,
	}
	c.fitMachine()
	if !cfg.Trace && cfg.TraceRing > 0 {
		c.ring = newTraceRing(cfg.TraceRing)
	}
	return c
}

// retarget points a reset CPU at another machine under the same run
// configuration. The memory image, the trace ring and the scratch
// buffers' capacity are kept; everything derived from the machine — the
// chime rules, the vector register length, the bank geometry and its
// stall table — is swapped. A retargeted CPU runs bit-identically to
// New(cfg.WithMachine(m)), which is what lets one pool serve every point
// of a design-space sweep.
func (c *CPU) retarget(m Machine) {
	if m == c.cfg.Machine {
		return
	}
	if m.Rules != c.cfg.Rules {
		c.builder = core.NewChimeBuilder(m.Rules)
	}
	c.cfg.Machine = m
	c.fitMachine()
}

// fitMachine sizes the vector registers to the machine's VLMax and
// selects the stall table for its memory geometry.
func (c *CPU) fitMachine() {
	n := c.cfg.VLMax
	for i := range c.v {
		c.v[i] = zeroed(c.v[i], n)
	}
	c.vscratch = zeroed(c.vscratch, n)
	c.vl = n
	c.bankCfg = c.cfg.BankConfig()
	c.stallTab = nil
	if (c.cfg.BankConflicts || c.cfg.RefreshStalls) && !c.cfg.NaiveMemPath {
		c.stallTab = c.stallTabs[c.bankCfg]
		if c.stallTab == nil {
			if c.stallTabs == nil || len(c.stallTabs) >= stallTabCap {
				c.stallTabs = make(map[mem.Config]*mem.StallTable)
			}
			c.stallTab = mem.NewStallTable(c.bankCfg)
			c.stallTabs[c.bankCfg] = c.stallTab
		}
	}
}

// zeroed returns an all-zero slice of length n, reusing s's storage when
// it is large enough.
func zeroed(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// Reset returns the CPU to its freshly-created state without reallocating
// its memory image, vector registers or chime builder, so a pooled
// simulator can run back-to-back programs with per-run cost proportional
// to what the previous run touched. The memoized stream-stall table
// survives the reset — its answers depend only on the configuration, and
// keeping it warm is much of the point of pooling. Any shared bank model
// is detached; re-attach with SetSharedBank if the next run co-simulates.
func (c *CPU) Reset() {
	c.mem.Reset()
	c.prog = nil
	c.a = [isa.NumARegs]int64{}
	c.s = [isa.NumSRegs]uint64{}
	for i := range c.v {
		clear(c.v[i])
	}
	c.vl = c.cfg.VLMax
	c.vs = isa.WordBytes
	c.tf = false
	c.pc = 0

	c.clock = 0
	c.pipeFree = [4]int64{}
	c.pipeUsed = [4]bool{}
	c.vw = [isa.NumVRegs]vwriter{}
	c.sReady = [isa.NumSRegs]int64{}
	c.vectorPortFree = 0
	c.scalarPortFree = 0
	c.builder.Reset()
	c.chimeID = 0
	c.chimeStart = 0
	c.chimeMemStall = 0
	c.chimeVL = 0
	c.lastChimeStart = 0
	c.prevGate = 0
	c.maxEvent = 0

	c.sharedBank = nil
	c.halted = false
	c.finished = false
	c.stats = Stats{}
	// Returned trace slices must survive the next run: drop, don't truncate.
	c.trace = nil
	if c.ring != nil {
		c.ring.reset()
	}
	c.laneTime = [NumLanes]int64{}
	c.prevGateSplit = false
}

// Memory returns the CPU's functional memory (for priming inputs and
// reading results in tests and harnesses).
func (c *CPU) Memory() *mem.Memory { return c.mem }

// SetS primes a scalar register with a float value; SetA primes an address
// register; SetSInt primes a scalar register with an integer.
func (c *CPU) SetS(n int, v float64)  { c.s[n] = math.Float64bits(v) }
func (c *CPU) SetSInt(n int, v int64) { c.s[n] = uint64(v) }
func (c *CPU) SetA(n int, v int64)    { c.a[n] = v }

// SFloat and AVal read registers after a run.
func (c *CPU) SFloat(n int) float64 { return math.Float64frombits(c.s[n]) }
func (c *CPU) SInt(n int) int64     { return int64(c.s[n]) }
func (c *CPU) AVal(n int) int64     { return c.a[n] }

// VElem reads one vector register element.
func (c *CPU) VElem(n, k int) float64 { return c.v[n][k] }

// SetV primes a vector register with values (for calibration loops and
// tests); remaining elements are zeroed.
func (c *CPU) SetV(n int, vals []float64) {
	for k := range c.v[n] {
		if k < len(vals) {
			c.v[n][k] = vals[k]
		} else {
			c.v[n][k] = 0
		}
	}
}

// Load resolves the program's data symbols into memory and prepares
// execution at instruction 0 (or label "main" if present).
func (c *CPU) Load(p *asm.Program) error {
	if err := p.Validate(); err != nil {
		return err
	}
	c.prog = p
	for _, d := range p.Data {
		addr, err := c.mem.Alloc(d.Name, d.Size)
		if err != nil {
			return err
		}
		for i, v := range d.Init {
			if err := c.mem.WriteF64(addr+int64(i*8), v); err != nil {
				return err
			}
		}
	}
	c.pc = 0
	if idx, ok := p.Labels["main"]; ok {
		c.pc = idx
	}
	return nil
}

// Trace returns the recorded vector timing events (empty unless
// Config.Trace was set).
func (c *CPU) Trace() []TraceEvent { return c.trace }

// Stats returns statistics accumulated so far.
func (c *CPU) Stats() Stats { return c.stats }

// Step executes one instruction. It returns done=true when the program
// has halted or fallen off the end (finish accounting is applied then).
func (c *CPU) Step() (done bool, err error) {
	if c.prog == nil {
		return true, fmt.Errorf("vm: no program loaded")
	}
	if c.halted || c.pc < 0 || c.pc >= len(c.prog.Instrs) {
		c.finish()
		return true, nil
	}
	in := c.prog.Instrs[c.pc]
	c.stats.Instrs++
	if c.stats.Instrs > c.cfg.MaxInstrs || c.clock > c.cfg.MaxCycles {
		return true, fmt.Errorf("vm: execution limit exceeded at pc=%d (%s)", c.pc, in)
	}
	var jumped bool
	if in.IsVector() {
		c.stats.VectorInstrs++
		err = c.execVector(in)
	} else {
		c.stats.ScalarInstrs++
		if in.Op == isa.OpHalt {
			c.halted = true
			c.finish()
			return true, nil
		}
		jumped, err = c.execScalar(in)
	}
	if err != nil {
		return true, fmt.Errorf("vm: pc=%d (%s): %w", c.pc, in, err)
	}
	if !jumped {
		c.pc++
	}
	if c.pc < 0 || c.pc >= len(c.prog.Instrs) {
		c.halted = true
		c.finish()
		return true, nil
	}
	return false, nil
}

func (c *CPU) finish() {
	if c.finished {
		return
	}
	c.finished = true
	c.closeChime(false)
	c.stats.Cycles = maxI64(c.clock, c.maxEvent, c.prevGate)
	// Conservation: top every lane's ledger up to the final cycle count.
	// What remains unaccounted at this point is drain — trailing time a
	// lane spent with no work left (or, for an unused pipe, the whole
	// run).
	for lane := 0; lane < NumLanes; lane++ {
		c.chargeStall(lane, c.stats.Cycles, StallDrain)
	}
}

// Clock returns the ASU's current time in cycles (advances as the
// program executes; used by the cluster scheduler).
func (c *CPU) Clock() int64 { return c.clock }

// horizon is the time around which this CPU's next vector stream will
// enter the shared memory: its chime gate runs ahead of the ASU clock.
// The cluster scheduler orders CPUs by this so bank reservations happen
// in (approximately) global stream-time order.
func (c *CPU) horizon() int64 { return maxI64(c.clock, c.prevGate, c.chimeStart) }

// BankReserver is the timing interface of a shared memory system:
// reserving an n-element stream returns its stall cycles.
type BankReserver interface {
	Stream(start, base, strideBytes int64, n int) int64
}

// SetSharedBank attaches a shared memory bank model: vector memory
// streams then contend with other CPUs using the same model.
func (c *CPU) SetSharedBank(b BankReserver) { c.sharedBank = b }

// Run executes the loaded program until it halts or falls off the end and
// returns the run statistics.
func (c *CPU) Run() (Stats, error) {
	for {
		done, err := c.Step()
		if err != nil {
			return c.stats, err
		}
		if done {
			return c.stats, nil
		}
	}
}

// effAddr computes a memory operand's effective address.
func (c *CPU) effAddr(o isa.Operand) (int64, error) {
	addr := o.Disp
	if o.Sym != "" {
		base, ok := c.mem.SymbolAddr(o.Sym)
		if !ok {
			return 0, fmt.Errorf("undefined symbol %q", o.Sym)
		}
		addr += base
	}
	if o.Base.Class == isa.ClassA {
		addr += c.a[o.Base.N]
	}
	return addr, nil
}

// intVal reads an operand as an integer (for .w arithmetic, moves, VL/VS).
func (c *CPU) intVal(o isa.Operand) (int64, error) {
	switch o.Kind {
	case isa.KindImm:
		return o.Imm, nil
	case isa.KindReg:
		switch o.Reg.Class {
		case isa.ClassA:
			return c.a[o.Reg.N], nil
		case isa.ClassS:
			c.waitScalar(o.Reg)
			return int64(c.s[o.Reg.N]), nil
		case isa.ClassVL:
			return int64(c.vl), nil
		case isa.ClassVS:
			return c.vs, nil
		}
	}
	return 0, fmt.Errorf("operand %s is not an integer source", o)
}

// floatVal reads an operand as a float (for .d arithmetic).
func (c *CPU) floatVal(o isa.Operand) (float64, error) {
	switch o.Kind {
	case isa.KindImm:
		return float64(o.Imm), nil
	case isa.KindReg:
		if o.Reg.Class == isa.ClassS {
			c.waitScalar(o.Reg)
			return math.Float64frombits(c.s[o.Reg.N]), nil
		}
	}
	return 0, fmt.Errorf("operand %s is not a float source", o)
}

// waitScalar delays the ASU until a vector-produced scalar is available.
func (c *CPU) waitScalar(r isa.Reg) {
	if r.Class == isa.ClassS && c.sReady[r.N] > c.clock {
		c.clock = c.sReady[r.N]
		c.chargeStall(LaneASU, c.clock, StallChain)
	}
}

func (c *CPU) setIntReg(r isa.Reg, v int64) error {
	switch r.Class {
	case isa.ClassA:
		c.a[r.N] = v
	case isa.ClassS:
		c.s[r.N] = uint64(v)
	case isa.ClassVL:
		c.vl = int(clampI64(v, 0, int64(c.cfg.VLMax)))
	case isa.ClassVS:
		c.vs = v
	default:
		return fmt.Errorf("cannot write integer to %s", r)
	}
	return nil
}

func (c *CPU) setFloatReg(r isa.Reg, v float64) error {
	if r.Class != isa.ClassS {
		return fmt.Errorf("cannot write float to %s", r)
	}
	c.s[r.N] = math.Float64bits(v)
	return nil
}

// execScalar executes one ASU instruction, advancing the ASU clock by its
// latency. It returns jumped=true when control transferred.
func (c *CPU) execScalar(in isa.Instr) (jumped bool, err error) {
	switch in.Op {
	case isa.OpNop:
		c.tickASU(int64(c.cfg.ScalarOpLat))
		return false, nil
	case isa.OpMov:
		if len(in.Ops) != 2 {
			return false, fmt.Errorf("mov needs 2 operands")
		}
		c.tickASU(int64(c.cfg.ScalarOpLat))
		dst := in.Ops[1].Reg
		if in.Suffix == isa.SufD && dst.Class == isa.ClassS && in.Ops[0].Kind == isa.KindReg && in.Ops[0].Reg.Class == isa.ClassS {
			c.waitScalar(in.Ops[0].Reg)
			c.s[dst.N] = c.s[in.Ops[0].Reg.N]
			return false, nil
		}
		v, err := c.intVal(in.Ops[0])
		if err != nil {
			return false, err
		}
		return false, c.setIntReg(dst, v)
	case isa.OpLd:
		return false, c.scalarLoad(in)
	case isa.OpSt:
		return false, c.scalarStore(in)
	case isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpDiv, isa.OpNeg, isa.OpAnd, isa.OpOr, isa.OpShf:
		return false, c.scalarALU(in)
	case isa.OpLe, isa.OpLt, isa.OpGt, isa.OpGe, isa.OpEq, isa.OpNe:
		return false, c.scalarCompare(in)
	case isa.OpJmp:
		c.tickASU(int64(c.cfg.ScalarOpLat + c.cfg.BranchPenalty))
		// A control transfer ends the forming chime: the ASU cannot keep
		// filling a chime past a branch (the bound's per-iteration chime
		// partition relies on this).
		c.closeChime(false)
		return true, c.jumpTo(in)
	case isa.OpJbrs:
		c.tickASU(int64(c.cfg.ScalarOpLat))
		take := c.tf
		if in.Suffix == isa.SufF {
			take = !take
		}
		if !take {
			return false, nil
		}
		c.tickASU(int64(c.cfg.BranchPenalty))
		c.closeChime(false)
		return true, c.jumpTo(in)
	case isa.OpSum, isa.OpSqrt, isa.OpCvt:
		return false, fmt.Errorf("%s has no scalar form in this subset", in.Op)
	}
	return false, fmt.Errorf("unimplemented scalar op %s", in.Op)
}

func (c *CPU) jumpTo(in isa.Instr) error {
	for _, o := range in.Ops {
		if o.Kind == isa.KindLabel {
			idx, ok := c.prog.Labels[o.Label]
			if !ok {
				return fmt.Errorf("undefined label %q", o.Label)
			}
			c.pc = idx
			return nil
		}
	}
	return fmt.Errorf("branch without label")
}

// scalarMemStart delays a scalar access while vector memory traffic holds
// the single CPU port, and notifies the chime builder (split rule).
func (c *CPU) scalarMemStart() int64 {
	start := c.clock
	if c.vectorPortFree > start {
		start = c.vectorPortFree
		c.stats.PortConflicts++
		c.chargeStall(LaneASU, start, StallPortArb)
	}
	if c.builder.NoteScalarMem() {
		c.closeChime(true)
	}
	return start
}

func (c *CPU) scalarMemLat() int64 {
	lat := float64(c.cfg.ScalarLoadLat)
	if c.cfg.MemSlowdown > 1 {
		lat *= c.cfg.MemSlowdown
	}
	return int64(math.Ceil(lat))
}

func (c *CPU) scalarLoad(in isa.Instr) error {
	if len(in.Ops) != 2 {
		return fmt.Errorf("scalar load needs 2 operands")
	}
	addr, err := c.effAddr(in.Ops[0])
	if err != nil {
		return err
	}
	start := c.scalarMemStart()
	c.clock = start + c.scalarMemLat()
	c.chargeIssue(LaneASU, c.clock)
	c.scalarPortFree = c.clock
	dst := in.Ops[1].Reg
	switch dst.Class {
	case isa.ClassA:
		v, err := c.mem.ReadI64(addr)
		if err != nil {
			return err
		}
		c.a[dst.N] = v
	case isa.ClassS:
		v, err := c.mem.ReadF64(addr)
		if err != nil {
			return err
		}
		c.s[dst.N] = math.Float64bits(v)
		c.sReady[dst.N] = c.clock
	default:
		return fmt.Errorf("bad scalar load destination %s", dst)
	}
	return nil
}

func (c *CPU) scalarStore(in isa.Instr) error {
	if len(in.Ops) != 2 {
		return fmt.Errorf("scalar store needs 2 operands")
	}
	addr, err := c.effAddr(in.Ops[1])
	if err != nil {
		return err
	}
	start := c.scalarMemStart()
	c.clock = start + c.scalarMemLat()
	c.chargeIssue(LaneASU, c.clock)
	c.scalarPortFree = c.clock
	src := in.Ops[0].Reg
	switch src.Class {
	case isa.ClassA:
		return c.mem.WriteI64(addr, c.a[src.N])
	case isa.ClassS:
		c.waitScalar(src)
		return c.mem.WriteF64(addr, math.Float64frombits(c.s[src.N]))
	}
	return fmt.Errorf("bad scalar store source %s", src)
}

func (c *CPU) scalarALU(in isa.Instr) error {
	c.tickASU(int64(c.cfg.ScalarOpLat))
	// Two-operand form: dst = dst OP src (e.g. add.w #1024,a5).
	// Three-operand form: dst = src1 OP src2.
	var dst isa.Reg
	switch len(in.Ops) {
	case 2:
		dst = in.Ops[1].Reg
	case 3:
		dst = in.Ops[2].Reg
	default:
		return fmt.Errorf("ALU op needs 2 or 3 operands")
	}
	if in.Suffix == isa.SufD || in.Suffix == isa.SufS {
		var x, y float64
		var err error
		if len(in.Ops) == 2 {
			if in.Op == isa.OpNeg {
				x, err = c.floatVal(in.Ops[0])
				if err != nil {
					return err
				}
				c.stats.ScalarFlops++
				return c.setFloatReg(dst, -x)
			}
			y, err = c.floatVal(isa.RegOp(dst))
			if err != nil {
				return err
			}
			x, err = c.floatVal(in.Ops[0])
			if err != nil {
				return err
			}
			x, y = y, x // dst OP src
		} else {
			x, err = c.floatVal(in.Ops[0])
			if err != nil {
				return err
			}
			y, err = c.floatVal(in.Ops[1])
			if err != nil {
				return err
			}
		}
		r, err := floatALU(in.Op, x, y)
		if err != nil {
			return err
		}
		c.stats.ScalarFlops++
		return c.setFloatReg(dst, r)
	}
	// Integer (.w / .l) arithmetic.
	var x, y int64
	var err error
	if len(in.Ops) == 2 {
		if in.Op == isa.OpNeg {
			x, err = c.intVal(in.Ops[0])
			if err != nil {
				return err
			}
			return c.setIntReg(dst, -x)
		}
		x, err = c.intVal(isa.RegOp(dst))
		if err != nil {
			return err
		}
		y, err = c.intVal(in.Ops[0])
		if err != nil {
			return err
		}
	} else {
		x, err = c.intVal(in.Ops[0])
		if err != nil {
			return err
		}
		y, err = c.intVal(in.Ops[1])
		if err != nil {
			return err
		}
	}
	r, err := intALU(in.Op, x, y)
	if err != nil {
		return err
	}
	return c.setIntReg(dst, r)
}

func floatALU(op isa.Op, x, y float64) (float64, error) {
	switch op {
	case isa.OpAdd:
		return x + y, nil
	case isa.OpSub:
		return x - y, nil
	case isa.OpMul:
		return x * y, nil
	case isa.OpDiv:
		return x / y, nil
	}
	return 0, fmt.Errorf("no scalar float form for %s", op)
}

func intALU(op isa.Op, x, y int64) (int64, error) {
	switch op {
	case isa.OpAdd:
		return x + y, nil
	case isa.OpSub:
		return x - y, nil
	case isa.OpMul:
		return x * y, nil
	case isa.OpDiv:
		if y == 0 {
			return 0, fmt.Errorf("integer division by zero")
		}
		return x / y, nil
	case isa.OpAnd:
		return x & y, nil
	case isa.OpOr:
		return x | y, nil
	case isa.OpShf:
		if y >= 0 {
			return x << uint(y&63), nil
		}
		return x >> uint((-y)&63), nil
	}
	return 0, fmt.Errorf("no integer form for %s", op)
}

func (c *CPU) scalarCompare(in isa.Instr) error {
	if len(in.Ops) != 2 {
		return fmt.Errorf("compare needs 2 operands")
	}
	c.tickASU(int64(c.cfg.ScalarOpLat))
	var cmp int
	if in.Suffix == isa.SufD || in.Suffix == isa.SufS {
		x, err := c.floatVal(in.Ops[0])
		if err != nil {
			return err
		}
		y, err := c.floatVal(in.Ops[1])
		if err != nil {
			return err
		}
		switch {
		case x < y:
			cmp = -1
		case x > y:
			cmp = 1
		}
	} else {
		x, err := c.intVal(in.Ops[0])
		if err != nil {
			return err
		}
		y, err := c.intVal(in.Ops[1])
		if err != nil {
			return err
		}
		switch {
		case x < y:
			cmp = -1
		case x > y:
			cmp = 1
		}
	}
	switch in.Op {
	case isa.OpLe:
		c.tf = cmp <= 0
	case isa.OpLt:
		c.tf = cmp < 0
	case isa.OpGt:
		c.tf = cmp > 0
	case isa.OpGe:
		c.tf = cmp >= 0
	case isa.OpEq:
		c.tf = cmp == 0
	case isa.OpNe:
		c.tf = cmp != 0
	}
	return nil
}

func clampI64(v, lo, hi int64) int64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func maxI64(vs ...int64) int64 {
	m := vs[0]
	for _, v := range vs[1:] {
		if v > m {
			m = v
		}
	}
	return m
}
