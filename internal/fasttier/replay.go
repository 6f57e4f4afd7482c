package fasttier

import (
	"errors"
	"fmt"
	"math"

	"macs/internal/asm"
	"macs/internal/core"
	"macs/internal/isa"
	"macs/internal/mem"
)

// vwriter records the in-flight producer of a vector register for the
// chaining and completion constraints (the simulator's record, verbatim).
type vwriter struct {
	valid bool
	chime int64
	start int64
	y     int
	z     float64
	fin   int64
}

// replay is one schedule replayer. It carries the simulator's *timing*
// state — chime formation, pipe tailgates, producer records, port times,
// attribution frontiers — plus a symbolic integer machine (registers and
// memory cells with known bits) that resolves trip counts and addresses
// without a memory image. There is deliberately no floating-point value
// state and no per-element work anywhere in this file.
type replay struct {
	cfg    Config
	prog   *asm.Program
	layout *mem.Layout

	// Symbolic integer state. Registers start zero and known, exactly as
	// the simulator zero-initializes them; a value becomes unknown only
	// when floating-point data flows in (float loads, float arithmetic).
	a       [isa.NumARegs]int64
	aKnown  [isa.NumARegs]bool
	s       [isa.NumSRegs]int64
	sKnown  [isa.NumSRegs]bool
	vl      int
	vlKnown bool
	vs      int64
	vsKnown bool
	tf      bool
	tfKnown bool
	pc      int

	// cells holds integer memory words (trip counts, loop bookkeeping);
	// unknownCells marks words holding floating-point or otherwise
	// unmodeled data. A word in neither map reads as zero, matching the
	// simulator's zeroed memory image.
	cells        map[int64]int64
	unknownCells map[int64]bool

	// Timing state, mirroring vm.CPU field for field.
	clock          int64
	pipeFree       [4]int64
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
	prevGateSplit  bool
	maxEvent       int64
	laneTime       [NumLanes]int64

	bankCfg  mem.Config
	stallTab *mem.StallTable

	// Interval (path-enumeration) mode. When forking is true, a branch on
	// an unmodeled comparison consumes the next scripted outcome from
	// decisions instead of failing with ErrDataDependent; when the script
	// is exhausted the replay stops with errNeedDecision so the
	// enumerator can extend the script both ways and try again.
	forking     bool
	decisions   []bool
	decisionIdx int

	halted   bool
	finished bool
	pred     Prediction
}

// errNeedDecision reports that a forking replay reached a branch on an
// unmodeled comparison with no scripted outcome left. It never escapes
// the package: predictInterval catches it and deepens the script.
var errNeedDecision = errors.New("fasttier: undecided data-dependent branch")

func newReplay(cfg Config) *replay {
	r := &replay{
		cfg:          cfg,
		layout:       mem.NewLayout(),
		cells:        make(map[int64]int64),
		unknownCells: make(map[int64]bool),
		builder:      core.NewChimeBuilder(cfg.Rules),
	}
	r.bankCfg = cfg.bankConfig()
	if cfg.BankConflicts || cfg.RefreshStalls {
		r.stallTab = mem.NewStallTable(r.bankCfg)
	}
	return r
}

// bankConfig renders the fast tier's memory geometry as the bank model's
// configuration, with zero fields falling back to the C-240 defaults —
// the same convention as vm.Machine.BankConfig, so both tiers describe
// the same memory system for the same machine.
func (cfg Config) bankConfig() mem.Config {
	c := mem.DefaultConfig()
	if cfg.Banks > 0 {
		c.Banks = cfg.Banks
	}
	if cfg.BankCycle > 0 {
		c.BankCycle = cfg.BankCycle
	}
	if cfg.RefreshPeriod > 0 {
		c.RefreshPeriod = cfg.RefreshPeriod
	}
	if cfg.RefreshLen > 0 {
		c.RefreshLen = cfg.RefreshLen
	}
	c.RefreshEnabled = cfg.RefreshStalls
	return c
}

// reset prepares the replayer for the next prediction. The memoized
// stream-stall table survives — its answers depend only on configuration,
// and keeping it warm across pooled predictions is much of the tier's
// speed.
func (r *replay) reset() {
	r.prog = nil
	r.layout.Reset()
	clear(r.cells)
	clear(r.unknownCells)
	r.a = [isa.NumARegs]int64{}
	r.s = [isa.NumSRegs]int64{}
	for i := range r.aKnown {
		r.aKnown[i] = true
	}
	for i := range r.sKnown {
		r.sKnown[i] = true
	}
	r.vl, r.vlKnown = r.cfg.VLMax, true
	r.vs, r.vsKnown = isa.WordBytes, true
	r.tf, r.tfKnown = false, true
	r.pc = 0

	r.clock = 0
	r.pipeFree = [4]int64{}
	r.pipeUsed = [4]bool{}
	r.vw = [isa.NumVRegs]vwriter{}
	r.sReady = [isa.NumSRegs]int64{}
	r.vectorPortFree = 0
	r.scalarPortFree = 0
	r.builder.Reset()
	r.chimeID = 0
	r.chimeStart = 0
	r.chimeMemStall = 0
	r.chimeVL = 0
	r.lastChimeStart = 0
	r.prevGate = 0
	r.prevGateSplit = false
	r.maxEvent = 0
	r.laneTime = [NumLanes]int64{}

	r.forking = false
	r.decisions = nil
	r.decisionIdx = 0

	r.halted = false
	r.finished = false
	r.pred = Prediction{}
}

// predict replays one program. See Predictor.Predict for the contract.
func (r *replay) predict(prog *asm.Program, iterations int64, ints map[string]int64) (Prediction, error) {
	return r.run(prog, iterations, ints, nil, false)
}

// run replays one program, optionally under a branch-decision script
// (forking mode). See predict and predictInterval.
func (r *replay) run(prog *asm.Program, iterations int64, ints map[string]int64, decisions []bool, forking bool) (Prediction, error) {
	r.reset()
	r.forking = forking
	r.decisions = decisions
	if err := prog.Validate(); err != nil {
		return Prediction{}, err
	}
	r.prog = prog
	for _, d := range prog.Data {
		addr, err := r.layout.Place(d.Name, d.Size)
		if err != nil {
			return Prediction{}, err
		}
		// Initialized data is floating point: its words are real values
		// the fast tier does not carry.
		for i := range d.Init {
			r.unknownCells[addr+int64(i*8)] = true
		}
	}
	for name, v := range ints {
		addr, ok := r.layout.Addr(name)
		if !ok {
			return Prediction{}, fmt.Errorf("fasttier: priming unknown symbol %q", name)
		}
		r.cells[addr] = v
		delete(r.unknownCells, addr)
	}
	if idx, ok := prog.Labels["main"]; ok {
		r.pc = idx
	}
	for {
		done, err := r.step()
		if err != nil {
			return Prediction{}, err
		}
		if done {
			break
		}
	}
	pred := r.pred
	finishPrediction(&pred, prog, r.cfg.Rules, iterations)
	return pred, nil
}

func (r *replay) step() (bool, error) {
	if r.halted || r.pc < 0 || r.pc >= len(r.prog.Instrs) {
		r.finish()
		return true, nil
	}
	in := r.prog.Instrs[r.pc]
	r.pred.Instrs++
	if r.pred.Instrs > r.cfg.MaxInstrs {
		return true, fmt.Errorf("fasttier: replay limit exceeded at pc=%d (%s)", r.pc, in)
	}
	var jumped bool
	var err error
	if in.IsVector() {
		r.pred.VectorInstrs++
		err = r.execVector(in)
	} else {
		r.pred.ScalarInstrs++
		if in.Op == isa.OpHalt {
			r.halted = true
			r.finish()
			return true, nil
		}
		jumped, err = r.execScalar(in)
	}
	if err != nil {
		return true, fmt.Errorf("fasttier: pc=%d (%s): %w", r.pc, in, err)
	}
	if !jumped {
		r.pc++
	}
	if r.pc < 0 || r.pc >= len(r.prog.Instrs) {
		r.halted = true
		r.finish()
		return true, nil
	}
	return false, nil
}

func (r *replay) finish() {
	if r.finished {
		return
	}
	r.finished = true
	r.closeChime(false)
	r.pred.Cycles = maxI64(r.clock, r.maxEvent, r.prevGate)
	// Conservation: top every lane's ledger up to the final cycle count,
	// mirroring the simulator's drain accounting.
	for lane := 0; lane < NumLanes; lane++ {
		r.chargeStall(lane, r.pred.Cycles, CauseDrain)
	}
}

// Attribution frontiers, verbatim from the simulator's ledger mechanics.

func (r *replay) chargeStall(lane int, t int64, cause Cause) {
	if t > r.laneTime[lane] {
		r.pred.Attr.Lanes[lane].Stalls[cause] += t - r.laneTime[lane]
		r.laneTime[lane] = t
	}
}

func (r *replay) chargeIssue(lane int, t int64) {
	if t > r.laneTime[lane] {
		r.pred.Attr.Lanes[lane].Issue += t - r.laneTime[lane]
		r.laneTime[lane] = t
	}
}

func (r *replay) tickASU(n int64) {
	r.clock += n
	r.chargeIssue(LaneASU, r.clock)
}

// waitScalar delays the ASU until a vector-produced scalar is available.
func (r *replay) waitScalar(reg isa.Reg) {
	if reg.Class == isa.ClassS && r.sReady[reg.N] > r.clock {
		r.clock = r.sReady[reg.N]
		r.chargeStall(LaneASU, r.clock, CauseChain)
	}
}

// closeChime retires the forming chime, fixing the gate before which the
// next chime may not stream and bounding ASU runahead to one chime.
func (r *replay) closeChime(split bool) {
	cur, ok := r.builder.Flush()
	if !ok {
		r.chimeMemStall = 0
		return
	}
	r.pred.Chimes++
	cost := cur.ZMax * float64(r.chimeVL)
	if r.cfg.Rules.Bubbles {
		cost += float64(cur.SumB)
	}
	r.prevGate = r.chimeStart + int64(math.Ceil(cost)) + r.chimeMemStall
	r.prevGateSplit = split
	if r.prevGate > r.maxEvent {
		r.maxEvent = r.prevGate
	}
	r.lastChimeStart = r.chimeStart
	if r.clock < r.lastChimeStart {
		r.clock = r.lastChimeStart
		cause := CauseChimeSync
		if split {
			cause = CauseChimeSplit
		}
		r.chargeStall(LaneASU, r.clock, cause)
	}
	r.chimeID++
	r.chimeMemStall = 0
	r.chimeVL = 0
}

// effAddr resolves a memory operand. known is false when the base
// register's value carries unmodeled data.
func (r *replay) effAddr(o isa.Operand) (addr int64, known bool, err error) {
	addr = o.Disp
	known = true
	if o.Sym != "" {
		base, ok := r.layout.Addr(o.Sym)
		if !ok {
			return 0, false, fmt.Errorf("undefined symbol %q", o.Sym)
		}
		addr += base
	}
	if o.Base.Class == isa.ClassA {
		addr += r.a[o.Base.N]
		known = known && r.aKnown[o.Base.N]
	}
	return addr, known, nil
}

// cellVal reads one integer memory word: primed or stored words return
// their value, unmarked words read zero (the simulator's zeroed image),
// and words holding floating-point data are unknown.
func (r *replay) cellVal(addr int64) (int64, bool) {
	if r.unknownCells[addr] {
		return 0, false
	}
	return r.cells[addr], true
}

func (r *replay) setCell(addr, v int64, known bool) {
	if known {
		r.cells[addr] = v
		delete(r.unknownCells, addr)
		return
	}
	delete(r.cells, addr)
	r.unknownCells[addr] = true
}

// intVal reads an operand as an integer plus its known bit.
func (r *replay) intVal(o isa.Operand) (v int64, known bool, err error) {
	switch o.Kind {
	case isa.KindImm:
		return o.Imm, true, nil
	case isa.KindReg:
		switch o.Reg.Class {
		case isa.ClassA:
			return r.a[o.Reg.N], r.aKnown[o.Reg.N], nil
		case isa.ClassS:
			r.waitScalar(o.Reg)
			return r.s[o.Reg.N], r.sKnown[o.Reg.N], nil
		case isa.ClassVL:
			return int64(r.vl), r.vlKnown, nil
		case isa.ClassVS:
			return r.vs, r.vsKnown, nil
		}
	}
	return 0, false, fmt.Errorf("operand %s is not an integer source", o)
}

func (r *replay) setIntReg(reg isa.Reg, v int64, known bool) error {
	switch reg.Class {
	case isa.ClassA:
		r.a[reg.N] = v
		r.aKnown[reg.N] = known
	case isa.ClassS:
		r.s[reg.N] = v
		r.sKnown[reg.N] = known
	case isa.ClassVL:
		if !known {
			return fmt.Errorf("vector length set from unmodeled data: %w", ErrDataDependent)
		}
		r.vl = int(clampI64(v, 0, int64(r.cfg.VLMax)))
		r.vlKnown = true
	case isa.ClassVS:
		if !known {
			return fmt.Errorf("vector stride set from unmodeled data: %w", ErrDataDependent)
		}
		r.vs = v
		r.vsKnown = true
	default:
		return fmt.Errorf("cannot write integer to %s", reg)
	}
	return nil
}

// execScalar replays one ASU instruction: exact latency accounting, with
// integer effects tracked symbolically and float effects dropped.
func (r *replay) execScalar(in isa.Instr) (jumped bool, err error) {
	switch in.Op {
	case isa.OpNop:
		r.tickASU(int64(r.cfg.ScalarOpLat))
		return false, nil
	case isa.OpMov:
		if len(in.Ops) != 2 {
			return false, fmt.Errorf("mov needs 2 operands")
		}
		r.tickASU(int64(r.cfg.ScalarOpLat))
		dst := in.Ops[1].Reg
		if in.Suffix == isa.SufD && dst.Class == isa.ClassS && in.Ops[0].Kind == isa.KindReg && in.Ops[0].Reg.Class == isa.ClassS {
			src := in.Ops[0].Reg
			r.waitScalar(src)
			r.s[dst.N], r.sKnown[dst.N] = r.s[src.N], r.sKnown[src.N]
			return false, nil
		}
		v, known, err := r.intVal(in.Ops[0])
		if err != nil {
			return false, err
		}
		return false, r.setIntReg(dst, v, known)
	case isa.OpLd:
		return false, r.scalarLoad(in)
	case isa.OpSt:
		return false, r.scalarStore(in)
	case isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpDiv, isa.OpNeg, isa.OpAnd, isa.OpOr, isa.OpShf:
		return false, r.scalarALU(in)
	case isa.OpLe, isa.OpLt, isa.OpGt, isa.OpGe, isa.OpEq, isa.OpNe:
		return false, r.scalarCompare(in)
	case isa.OpJmp:
		r.tickASU(int64(r.cfg.ScalarOpLat + r.cfg.BranchPenalty))
		r.closeChime(false)
		return true, r.jumpTo(in)
	case isa.OpJbrs:
		r.tickASU(int64(r.cfg.ScalarOpLat))
		if !r.tfKnown {
			if !r.forking {
				return false, fmt.Errorf("branch on unmodeled comparison: %w", ErrDataDependent)
			}
			if r.decisionIdx >= len(r.decisions) {
				return false, errNeedDecision
			}
			// Adopt the scripted outcome as the T value so later branches
			// on the same (unrewritten) flag stay path-consistent.
			r.tf, r.tfKnown = r.decisions[r.decisionIdx], true
			r.decisionIdx++
		}
		take := r.tf
		if in.Suffix == isa.SufF {
			take = !take
		}
		if !take {
			return false, nil
		}
		r.tickASU(int64(r.cfg.BranchPenalty))
		r.closeChime(false)
		return true, r.jumpTo(in)
	case isa.OpSum, isa.OpSqrt, isa.OpCvt:
		return false, fmt.Errorf("%s has no scalar form in this subset", in.Op)
	}
	return false, fmt.Errorf("unreplayed scalar op %s", in.Op)
}

func (r *replay) jumpTo(in isa.Instr) error {
	for _, o := range in.Ops {
		if o.Kind == isa.KindLabel {
			idx, ok := r.prog.Labels[o.Label]
			if !ok {
				return fmt.Errorf("undefined label %q", o.Label)
			}
			r.pc = idx
			return nil
		}
	}
	return fmt.Errorf("branch without label")
}

// scalarMemStart delays a scalar access while vector traffic holds the
// single CPU port, and notifies the chime builder (split rule).
func (r *replay) scalarMemStart() int64 {
	start := r.clock
	if r.vectorPortFree > start {
		start = r.vectorPortFree
		r.pred.PortConflicts++
		r.chargeStall(LaneASU, start, CausePortArb)
	}
	if r.builder.NoteScalarMem() {
		r.closeChime(true)
	}
	return start
}

func (r *replay) scalarMemLat() int64 {
	lat := float64(r.cfg.ScalarLoadLat)
	if r.cfg.MemSlowdown > 1 {
		lat *= r.cfg.MemSlowdown
	}
	return int64(math.Ceil(lat))
}

func (r *replay) scalarLoad(in isa.Instr) error {
	if len(in.Ops) != 2 {
		return fmt.Errorf("scalar load needs 2 operands")
	}
	addr, addrKnown, err := r.effAddr(in.Ops[0])
	if err != nil {
		return err
	}
	start := r.scalarMemStart()
	r.clock = start + r.scalarMemLat()
	r.chargeIssue(LaneASU, r.clock)
	r.scalarPortFree = r.clock
	var v int64
	known := false
	// A floating-point load produces a real value the fast tier does not
	// carry; only integer loads read the symbolic cell map.
	if addrKnown && in.Suffix != isa.SufD && in.Suffix != isa.SufS {
		v, known = r.cellVal(addr)
	}
	dst := in.Ops[1].Reg
	switch dst.Class {
	case isa.ClassA:
		r.a[dst.N], r.aKnown[dst.N] = v, known
	case isa.ClassS:
		r.s[dst.N], r.sKnown[dst.N] = v, known
		r.sReady[dst.N] = r.clock
	default:
		return fmt.Errorf("bad scalar load destination %s", dst)
	}
	return nil
}

func (r *replay) scalarStore(in isa.Instr) error {
	if len(in.Ops) != 2 {
		return fmt.Errorf("scalar store needs 2 operands")
	}
	addr, addrKnown, err := r.effAddr(in.Ops[1])
	if err != nil {
		return err
	}
	start := r.scalarMemStart()
	r.clock = start + r.scalarMemLat()
	r.chargeIssue(LaneASU, r.clock)
	r.scalarPortFree = r.clock
	if !addrKnown {
		// A store to an unresolvable address could alias any integer
		// cell the replay later reads; refuse rather than guess.
		return fmt.Errorf("store to unmodeled address: %w", ErrDataDependent)
	}
	src := in.Ops[0].Reg
	// A floating-point store poisons the cell for integer readers: the
	// simulator writes real bits there, which the fast tier does not carry.
	floatStore := in.Suffix == isa.SufD || in.Suffix == isa.SufS
	switch src.Class {
	case isa.ClassA:
		r.setCell(addr, r.a[src.N], r.aKnown[src.N] && !floatStore)
		return nil
	case isa.ClassS:
		r.waitScalar(src)
		r.setCell(addr, r.s[src.N], r.sKnown[src.N] && !floatStore)
		return nil
	}
	return fmt.Errorf("bad scalar store source %s", src)
}

func (r *replay) scalarALU(in isa.Instr) error {
	r.tickASU(int64(r.cfg.ScalarOpLat))
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
		// Floating-point result: honor the timing side effects (waits on
		// vector-produced scalars) and mark the destination unmodeled.
		for _, o := range in.Ops[:len(in.Ops)-1] {
			if o.Kind == isa.KindReg && o.Reg.Class == isa.ClassS {
				r.waitScalar(o.Reg)
			}
		}
		if len(in.Ops) == 2 && in.Op != isa.OpNeg {
			r.waitScalar(dst) // two-operand form reads the destination
		}
		if dst.Class != isa.ClassS {
			return fmt.Errorf("cannot write float to %s", dst)
		}
		r.s[dst.N], r.sKnown[dst.N] = 0, false
		return nil
	}
	var x, y int64
	var xk, yk bool
	var err error
	if len(in.Ops) == 2 {
		if in.Op == isa.OpNeg {
			x, xk, err = r.intVal(in.Ops[0])
			if err != nil {
				return err
			}
			return r.setIntReg(dst, -x, xk)
		}
		x, xk, err = r.intVal(isa.RegOp(dst))
		if err != nil {
			return err
		}
		y, yk, err = r.intVal(in.Ops[0])
		if err != nil {
			return err
		}
	} else {
		x, xk, err = r.intVal(in.Ops[0])
		if err != nil {
			return err
		}
		y, yk, err = r.intVal(in.Ops[1])
		if err != nil {
			return err
		}
	}
	if !xk || !yk {
		return r.setIntReg(dst, 0, false)
	}
	v, err := intALU(in.Op, x, y)
	if err != nil {
		return err
	}
	return r.setIntReg(dst, v, true)
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

func (r *replay) scalarCompare(in isa.Instr) error {
	if len(in.Ops) != 2 {
		return fmt.Errorf("compare needs 2 operands")
	}
	r.tickASU(int64(r.cfg.ScalarOpLat))
	if in.Suffix == isa.SufD || in.Suffix == isa.SufS {
		for _, o := range in.Ops {
			if o.Kind == isa.KindReg && o.Reg.Class == isa.ClassS {
				r.waitScalar(o.Reg)
			}
		}
		r.tfKnown = false
		return nil
	}
	x, xk, err := r.intVal(in.Ops[0])
	if err != nil {
		return err
	}
	y, yk, err := r.intVal(in.Ops[1])
	if err != nil {
		return err
	}
	if !xk || !yk {
		r.tfKnown = false
		return nil
	}
	var cmp int
	switch {
	case x < y:
		cmp = -1
	case x > y:
		cmp = 1
	}
	switch in.Op {
	case isa.OpLe:
		r.tf = cmp <= 0
	case isa.OpLt:
		r.tf = cmp < 0
	case isa.OpGt:
		r.tf = cmp > 0
	case isa.OpGe:
		r.tf = cmp >= 0
	case isa.OpEq:
		r.tf = cmp == 0
	case isa.OpNe:
		r.tf = cmp != 0
	}
	r.tfKnown = true
	return nil
}

// execVector replays one vector instruction's stream timing under the
// chime model — the simulator's execVector minus every element.
func (r *replay) execVector(in isa.Instr) error {
	t, ok := isa.VectorTiming(in.Op)
	if !ok {
		return fmt.Errorf("no vector form for %s", in.Op)
	}
	var regs [8]isa.Reg // decode buffer, see isa.Instr.AppendSources
	for _, reg := range in.AppendSources(regs[:0]) {
		if reg.Class == isa.ClassS {
			r.waitScalar(reg)
		}
	}
	r.clock += int64(r.cfg.DispatchLat)
	r.chargeIssue(LaneASU, r.clock)
	dispatchDone := r.clock

	if !r.vlKnown {
		return fmt.Errorf("vector length unknown: %w", ErrDataDependent)
	}
	vl := r.vl
	if vl <= 0 {
		r.clock += int64(t.X)
		r.chargeStall(LaneASU, r.clock, CauseStartup)
		return nil
	}

	if !r.builder.Fits(in) {
		r.closeChime(false)
	}
	newChime := r.builder.Empty()
	r.builder.Add(in)
	if vl > r.chimeVL {
		r.chimeVL = vl
	}

	// Stream entry time S with chronological attribution checkpoints,
	// exactly as the simulator computes it.
	type waitPoint struct {
		t     int64
		cause Cause
	}
	var wbuf [6]waitPoint
	waits := wbuf[:0]

	s := dispatchDone + int64(t.X)
	waits = append(waits,
		waitPoint{dispatchDone, CauseScalar},
		waitPoint{s, CauseStartup})
	pipe := in.Pipe()
	lane := int(pipe)
	pf := r.pipeFree[pipe]
	if r.cfg.Rules.Bubbles && r.pipeUsed[pipe] {
		pf += int64(t.B)
		waits = append(waits, waitPoint{pf, CauseBubble})
	}
	if pf > s {
		s = pf
	}
	r.pipeUsed[pipe] = true
	gateCause := CauseChimeSync
	if r.prevGateSplit {
		gateCause = CauseChimeSplit
	}
	if newChime {
		waits = append(waits, waitPoint{r.prevGate, gateCause})
		if r.prevGate > s {
			s = r.prevGate
		}
	} else {
		waits = append(waits, waitPoint{r.chimeStart, CauseChimeSync})
		if r.chimeStart > s {
			s = r.chimeStart
		}
	}

	var chainT int64
	for _, reg := range in.AppendVectorReads(regs[:0]) {
		w := r.vw[reg.N]
		if !w.valid {
			continue
		}
		if w.chime == r.chimeID && r.cfg.Rules.Chaining {
			dep := w.start + int64(w.y)
			if w.z > t.Z {
				dep += int64(math.Ceil((w.z - t.Z) * float64(vl-1)))
			}
			if dep > chainT {
				chainT = dep
			}
			if dep > s {
				s = dep
			}
		} else if w.fin > s {
			chainT = w.fin
			s = w.fin
		}
	}
	if chainT > 0 {
		waits = append(waits, waitPoint{chainT, CauseChain})
	}

	var stBank, stRefresh, stContention int64
	if in.IsMemory() {
		ea, err := r.vectorEA(in)
		if err != nil {
			return err
		}
		if r.scalarPortFree > s {
			r.pred.PortConflicts++
		}
		waits = append(waits, waitPoint{r.scalarPortFree, CausePortArb})
		if r.scalarPortFree > s {
			s = r.scalarPortFree
		}
		stBank, stRefresh, stContention, err = r.memStreamStall(s, ea, vl)
		if err != nil {
			return err
		}
		r.chimeMemStall += stBank + stRefresh + stContention
		r.pred.MemStalls += stBank + stRefresh + stContention
	}
	stall := stBank + stRefresh + stContention

	for i := 1; i < len(waits); i++ {
		for j := i; j > 0 && waits[j].t < waits[j-1].t; j-- {
			waits[j], waits[j-1] = waits[j-1], waits[j]
		}
	}
	for _, w := range waits {
		wt := w.t
		if wt > s {
			wt = s
		}
		r.chargeStall(lane, wt, w.cause)
	}

	if newChime {
		r.chimeStart = s
	}

	streamIn := int64(math.Ceil(t.Z * float64(vl)))
	streamEnd := s + streamIn
	r.chargeIssue(lane, streamEnd)
	r.chargeStall(lane, streamEnd+stBank, CauseBankConflict)
	r.chargeStall(lane, streamEnd+stBank+stRefresh, CauseRefresh)
	r.chargeStall(lane, streamEnd+stall, CauseContention)
	r.pipeFree[pipe] = s + streamIn + stall
	fin := s + int64(t.Y) + streamIn + stall
	if fin > r.maxEvent {
		r.maxEvent = fin
	}
	if in.IsMemory() && fin > r.vectorPortFree {
		r.vectorPortFree = fin
	}
	if d, ok := in.VectorWrite(); ok {
		r.vw[d.N] = vwriter{valid: true, chime: r.chimeID, start: s, y: t.Y, z: t.Z, fin: fin}
	}
	if in.Op == isa.OpSum {
		if d, ok := in.Dst(); ok && d.Class == isa.ClassS {
			r.sReady[d.N] = fin
			r.s[d.N], r.sKnown[d.N] = 0, false
		}
	}
	return nil
}

// vectorEA resolves the memory operand of a vector load or store; the
// fast tier needs the exact address for bank-phase math.
func (r *replay) vectorEA(in isa.Instr) (int64, error) {
	for _, o := range in.Ops {
		if o.Kind == isa.KindMem {
			addr, known, err := r.effAddr(o)
			if err != nil {
				return 0, err
			}
			if !known {
				return 0, fmt.Errorf("vector stream address unknown: %w", ErrDataDependent)
			}
			return addr, nil
		}
	}
	return 0, fmt.Errorf("vector memory op without memory operand")
}

// memStreamStall prices one vector memory stream: bank and refresh stalls
// from the memoized stall table, plus the multi-process contention
// surcharge. The same decomposition as the simulator's standalone path.
func (r *replay) memStreamStall(start, base int64, vl int) (bank, refresh, contention int64, err error) {
	stride := r.vs
	if !r.vsKnown {
		if r.cfg.BankConflicts {
			return 0, 0, 0, fmt.Errorf("vector stride unknown: %w", ErrDataDependent)
		}
		stride = isa.WordBytes
	}
	if !r.cfg.BankConflicts {
		stride = isa.WordBytes
	}
	if r.stallTab != nil {
		bank, refresh = r.stallTab.StreamStallParts(start, base, stride, vl)
	}
	if r.cfg.MemSlowdown > 1 {
		contention = int64(math.Ceil((r.cfg.MemSlowdown - 1) * float64(vl)))
	}
	return bank, refresh, contention, nil
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
