package fasttier

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"macs/internal/asm"
	"macs/internal/core"
	"macs/internal/isa"
	"macs/internal/mem"
	"macs/internal/vm"
)

// A schedule replay comes in two halves. The walk is everything the
// machine cannot change: the program counter, a symbolic integer machine
// (registers and memory cells with known bits) that resolves trip counts
// and addresses without a memory image, the data layout, chime formation
// and the instruction and chime counters. A timer is one machine's clock:
// pipe tailgates, producer times, port times, the chime gate, memory
// stalls and the attribution frontiers — the simulator's timing
// equations, ported verbatim.
//
// One walk drives any number of timers in lockstep: it decodes each
// dynamic instruction once and hands every timer the same
// machine-independent description of it. No branch, address or vector
// length ever reads a clock, so a timer driven alongside others sees
// exactly the event sequence it would see alone; only the vector length
// ceiling, the chime rules and the instruction budget shape the walk
// itself, and timers are grouped by those (groupKey). There is
// deliberately no floating-point value state and no per-element work
// anywhere in this file.

// groupKey is the part of a vm.Config the walk depends on. Timers whose
// configurations share it can ride one walk.
type groupKey struct {
	vlMax     int
	rules     core.Rules
	maxInstrs int64
}

func groupOf(cfg vm.Config) groupKey {
	return groupKey{vlMax: cfg.VLMax, rules: cfg.Rules, maxInstrs: cfg.MaxInstrs}
}

// producer is the machine-independent half of a vector register's
// in-flight producer record: which chime wrote it, with what timing.
type producer struct {
	valid bool
	chime int64
	y     int
	z     float64
}

// chainDep is one vector operand's dependence on its producer, as the
// walk resolves it: chained (same chime, chaining on) with the lag behind
// the producer's stream start, or otherwise a wait for its completion.
type chainDep struct {
	reg     int
	chained bool
	lag     int64
}

// vecOp is one vector instruction as the walk decoded it — everything the
// timing equations need that does not depend on the machine.
type vecOp struct {
	timing isa.Timing
	vl     int
	// waits lists the scalar sources the ASU must have before dispatch.
	waits  []int
	wbuf   [8]int
	closes bool  // the instruction closed the forming chime first
	span   int64 // the closed chime's stream span, in cycles
	// newChime reports that the instruction opens a chime.
	newChime bool
	pipe     isa.Pipe
	streamIn int64
	chains   []chainDep
	cbuf     [8]chainDep
	mem      bool
	ea       int64
	stride   int64
	write    int // vector register written, or -1
	sum      int // scalar register a reduction writes, or -1
}

// walk is the machine-independent half of a replay. See the comment at
// the top of the file.
type walk struct {
	groupKey
	prog   *asm.Program
	layout *mem.Layout

	// Symbolic integer state. Registers start zero and known, exactly as
	// the simulator zero-initializes them; a value becomes unknown only
	// when floating-point data flows in (float loads, float arithmetic).
	// VL and VS are always known: setIntReg refuses unmodeled values.
	a       [isa.NumARegs]int64
	aKnown  [isa.NumARegs]bool
	s       [isa.NumSRegs]int64
	sKnown  [isa.NumSRegs]bool
	vl      int
	vs      int64
	tf      bool
	tfKnown bool
	pc      int

	// cells holds integer memory words (trip counts, loop bookkeeping);
	// unknownCells marks words holding floating-point or otherwise
	// unmodeled data. A word in neither map reads as zero, matching the
	// simulator's zeroed memory image.
	cells        map[int64]int64
	unknownCells map[int64]bool

	builder *core.ChimeBuilder
	chimeID int64
	chimeVL int
	vw      [isa.NumVRegs]producer
	op      vecOp

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
	instrs   int64
	vectors  int64
	scalars  int64
	chimes   int64

	timers []*timer
}

// timer is one machine's half of a replay: the simulator's timing state,
// field for field, plus the machine's memory model.
type timer struct {
	cfg            vm.Machine
	clock          int64
	pipeFree       [4]int64
	pipeUsed       [4]bool
	vw             [isa.NumVRegs]struct{ start, fin int64 }
	sReady         [isa.NumSRegs]int64
	vectorPortFree int64
	scalarPortFree int64
	chimeStart     int64
	chimeMemStall  int64
	lastChimeStart int64
	prevGate       int64
	prevGateSplit  bool
	maxEvent       int64
	laneTime       [vm.NumLanes]int64

	bankCfg  mem.Config
	stallTab *mem.StallTable

	// pred accumulates the timer's share of the answer: Cycles,
	// MemStalls, PortConflicts and Attr.
	pred Prediction
}

// errNeedDecision reports that a forking replay reached a branch on an
// unmodeled comparison with no scripted outcome left. It never escapes
// the package: predictInterval catches it and deepens the script.
var errNeedDecision = errors.New("fasttier: undecided data-dependent branch")

// walks recycles walks, whose layout and cell maps are worth keeping.
var walks = sync.Pool{New: func() any {
	return &walk{
		layout:       mem.NewLayout(),
		cells:        make(map[int64]int64),
		unknownCells: make(map[int64]bool),
	}
}}

// getWalk returns a pooled walk configured for one group.
func getWalk(g groupKey) *walk {
	w := walks.Get().(*walk)
	if w.builder == nil || w.rules != g.rules {
		w.builder = core.NewChimeBuilder(g.rules)
	}
	w.groupKey = g
	return w
}

// putWalk returns a walk to the pool without keeping its program, script
// or timers alive.
func putWalk(w *walk) {
	w.prog = nil
	w.decisions = nil
	clear(w.timers)
	w.timers = w.timers[:0]
	walks.Put(w)
}

func newTimer(m vm.Machine) *timer {
	t := &timer{cfg: m, bankCfg: m.BankConfig()}
	if m.BankConflicts || m.RefreshStalls {
		t.stallTab = mem.NewStallTable(t.bankCfg)
	}
	return t
}

// replay walks prog once, timing it on every timer (all of group g), and
// writes timer i's prediction to out[i]. An error comes from the walk and
// so holds for every timer.
func replay(prog *asm.Program, iterations int64, ints map[string]int64, g groupKey, timers []*timer, out []Prediction) error {
	w := getWalk(g)
	defer putWalk(w)
	w.timers = append(w.timers, timers...)
	if err := w.run(prog, ints, nil, false); err != nil {
		return err
	}
	for i, t := range timers {
		out[i] = w.prediction(t, iterations)
	}
	return nil
}

// reset prepares the walk for the next replay.
func (w *walk) reset() {
	w.prog = nil
	w.layout.Reset()
	clear(w.cells)
	clear(w.unknownCells)
	w.a = [isa.NumARegs]int64{}
	w.s = [isa.NumSRegs]int64{}
	for i := range w.aKnown {
		w.aKnown[i] = true
	}
	for i := range w.sKnown {
		w.sKnown[i] = true
	}
	w.vl = w.vlMax
	w.vs = isa.WordBytes
	w.tf, w.tfKnown = false, true
	w.pc = 0

	w.builder.Reset()
	w.chimeID = 0
	w.chimeVL = 0
	w.vw = [isa.NumVRegs]producer{}

	w.forking = false
	w.decisions = nil
	w.decisionIdx = 0

	w.halted = false
	w.finished = false
	w.instrs, w.vectors, w.scalars, w.chimes = 0, 0, 0, 0
}

// reset prepares the timer for the next replay. The memoized
// stream-stall table survives — its answers depend only on
// configuration, and keeping it warm across pooled predictions is much
// of the tier's speed.
func (t *timer) reset() {
	t.clock = 0
	t.pipeFree = [4]int64{}
	t.pipeUsed = [4]bool{}
	t.vw = [isa.NumVRegs]struct{ start, fin int64 }{}
	t.sReady = [isa.NumSRegs]int64{}
	t.vectorPortFree = 0
	t.scalarPortFree = 0
	t.chimeStart = 0
	t.chimeMemStall = 0
	t.lastChimeStart = 0
	t.prevGate = 0
	t.prevGateSplit = false
	t.maxEvent = 0
	t.laneTime = [vm.NumLanes]int64{}
	t.pred = Prediction{}
}

// run replays one program on every timer, optionally under a
// branch-decision script (forking mode). See replay and predictInterval.
func (w *walk) run(prog *asm.Program, ints map[string]int64, decisions []bool, forking bool) error {
	w.reset()
	for _, t := range w.timers {
		t.reset()
	}
	w.forking = forking
	w.decisions = decisions
	if err := prog.Validate(); err != nil {
		return err
	}
	w.prog = prog
	for _, d := range prog.Data {
		addr, err := w.layout.Place(d.Name, d.Size)
		if err != nil {
			return err
		}
		// Initialized data is floating point: its words are real values
		// the fast tier does not carry.
		for i := range d.Init {
			w.unknownCells[addr+int64(i*8)] = true
		}
	}
	for name, v := range ints {
		addr, ok := w.layout.Addr(name)
		if !ok {
			return fmt.Errorf("fasttier: priming unknown symbol %q", name)
		}
		w.cells[addr] = v
		delete(w.unknownCells, addr)
	}
	if idx, ok := prog.Labels["main"]; ok {
		w.pc = idx
	}
	for {
		done, err := w.step()
		if err != nil {
			return err
		}
		if done {
			return nil
		}
	}
}

// prediction assembles timer t's answer after a successful run.
func (w *walk) prediction(t *timer, iterations int64) Prediction {
	pred := t.pred
	pred.Instrs = w.instrs
	pred.VectorInstrs = w.vectors
	pred.ScalarInstrs = w.scalars
	pred.Chimes = w.chimes
	finishPrediction(&pred, w.prog, w.rules, iterations)
	return pred
}

func (w *walk) step() (bool, error) {
	if w.halted || w.pc < 0 || w.pc >= len(w.prog.Instrs) {
		w.finish()
		return true, nil
	}
	in := &w.prog.Instrs[w.pc]
	w.instrs++
	if w.instrs > w.maxInstrs {
		return true, fmt.Errorf("fasttier: replay limit exceeded at pc=%d (%s)", w.pc, in)
	}
	var jumped bool
	var err error
	if in.IsVector() {
		w.vectors++
		err = w.execVector(in)
	} else {
		w.scalars++
		if in.Op == isa.OpHalt {
			w.halted = true
			w.finish()
			return true, nil
		}
		jumped, err = w.execScalar(in)
	}
	if err != nil {
		return true, fmt.Errorf("fasttier: pc=%d (%s): %w", w.pc, in, err)
	}
	if !jumped {
		w.pc++
	}
	if w.pc < 0 || w.pc >= len(w.prog.Instrs) {
		w.halted = true
		w.finish()
		return true, nil
	}
	return false, nil
}

func (w *walk) finish() {
	if w.finished {
		return
	}
	w.finished = true
	w.closeChime(false)
	for _, t := range w.timers {
		t.finish()
	}
}

func (t *timer) finish() {
	t.pred.Cycles = maxI64(t.clock, t.maxEvent, t.prevGate)
	// Conservation: top every lane's ledger up to the final cycle count,
	// mirroring the simulator's drain accounting.
	for lane := 0; lane < vm.NumLanes; lane++ {
		t.chargeStall(lane, t.pred.Cycles, vm.StallDrain)
	}
}

// Attribution frontiers, verbatim from the simulator's ledger mechanics.

func (t *timer) chargeStall(lane int, at int64, cause vm.StallCause) {
	if at > t.laneTime[lane] {
		t.pred.Attr.Lanes[lane].Stalls[cause] += at - t.laneTime[lane]
		t.laneTime[lane] = at
	}
}

func (t *timer) chargeIssue(lane int, at int64) {
	if at > t.laneTime[lane] {
		t.pred.Attr.Lanes[lane].Issue += at - t.laneTime[lane]
		t.laneTime[lane] = at
	}
}

func (t *timer) tickASU(n int64) {
	t.clock += n
	t.chargeIssue(vm.LaneASU, t.clock)
}

// tickOp charges every timer one scalar operation.
func (w *walk) tickOp() {
	for _, t := range w.timers {
		t.tickASU(int64(t.cfg.ScalarOpLat))
	}
}

// waitScalar delays the ASU until a vector-produced scalar is available.
func (w *walk) waitScalar(reg isa.Reg) {
	if reg.Class != isa.ClassS {
		return
	}
	for _, t := range w.timers {
		t.waitScalar(reg.N)
	}
}

func (t *timer) waitScalar(n int) {
	if t.sReady[n] > t.clock {
		t.clock = t.sReady[n]
		t.chargeStall(vm.LaneASU, t.clock, vm.StallChain)
	}
}

// closeChime retires the forming chime on the walk and every timer.
func (w *walk) closeChime(split bool) {
	span, ok := w.flushChime()
	for _, t := range w.timers {
		t.closeChime(span, ok, split)
	}
}

// flushChime retires the forming chime on the walk's side and returns its
// stream span — Z_max·VL plus, under the bubble rule, the members'
// bubbles, rounded up. ok is false when no chime was forming.
func (w *walk) flushChime() (span int64, ok bool) {
	cur, ok := w.builder.Flush()
	if !ok {
		return 0, false
	}
	w.chimes++
	cost := cur.ZMax * float64(w.chimeVL)
	if w.rules.Bubbles {
		cost += float64(cur.SumB)
	}
	w.chimeID++
	w.chimeVL = 0
	return int64(math.Ceil(cost)), true
}

// closeChime fixes the gate before which the next chime may not stream
// and bounds ASU runahead to one chime.
func (t *timer) closeChime(span int64, ok, split bool) {
	if !ok {
		t.chimeMemStall = 0
		return
	}
	t.prevGate = t.chimeStart + span + t.chimeMemStall
	t.prevGateSplit = split
	if t.prevGate > t.maxEvent {
		t.maxEvent = t.prevGate
	}
	t.lastChimeStart = t.chimeStart
	if t.clock < t.lastChimeStart {
		t.clock = t.lastChimeStart
		cause := vm.StallChimeSync
		if split {
			cause = vm.StallChimeSplit
		}
		t.chargeStall(vm.LaneASU, t.clock, cause)
	}
	t.chimeMemStall = 0
}

// effAddr resolves a memory operand. known is false when the base
// register's value carries unmodeled data.
func (w *walk) effAddr(o isa.Operand) (addr int64, known bool, err error) {
	addr = o.Disp
	known = true
	if o.Sym != "" {
		base, ok := w.layout.Addr(o.Sym)
		if !ok {
			return 0, false, fmt.Errorf("undefined symbol %q", o.Sym)
		}
		addr += base
	}
	if o.Base.Class == isa.ClassA {
		addr += w.a[o.Base.N]
		known = known && w.aKnown[o.Base.N]
	}
	return addr, known, nil
}

// cellVal reads one integer memory word: primed or stored words return
// their value, unmarked words read zero (the simulator's zeroed image),
// and words holding floating-point data are unknown.
func (w *walk) cellVal(addr int64) (int64, bool) {
	if w.unknownCells[addr] {
		return 0, false
	}
	return w.cells[addr], true
}

func (w *walk) setCell(addr, v int64, known bool) {
	if known {
		w.cells[addr] = v
		delete(w.unknownCells, addr)
		return
	}
	delete(w.cells, addr)
	w.unknownCells[addr] = true
}

// intVal reads an operand as an integer plus its known bit.
func (w *walk) intVal(o isa.Operand) (v int64, known bool, err error) {
	switch o.Kind {
	case isa.KindImm:
		return o.Imm, true, nil
	case isa.KindReg:
		switch o.Reg.Class {
		case isa.ClassA:
			return w.a[o.Reg.N], w.aKnown[o.Reg.N], nil
		case isa.ClassS:
			w.waitScalar(o.Reg)
			return w.s[o.Reg.N], w.sKnown[o.Reg.N], nil
		case isa.ClassVL:
			return int64(w.vl), true, nil
		case isa.ClassVS:
			return w.vs, true, nil
		}
	}
	return 0, false, fmt.Errorf("operand %s is not an integer source", o)
}

func (w *walk) setIntReg(reg isa.Reg, v int64, known bool) error {
	switch reg.Class {
	case isa.ClassA:
		w.a[reg.N] = v
		w.aKnown[reg.N] = known
	case isa.ClassS:
		w.s[reg.N] = v
		w.sKnown[reg.N] = known
	case isa.ClassVL:
		if !known {
			return fmt.Errorf("vector length set from unmodeled data: %w", ErrDataDependent)
		}
		w.vl = int(clampI64(v, 0, int64(w.vlMax)))
	case isa.ClassVS:
		if !known {
			return fmt.Errorf("vector stride set from unmodeled data: %w", ErrDataDependent)
		}
		w.vs = v
	default:
		return fmt.Errorf("cannot write integer to %s", reg)
	}
	return nil
}

// execScalar replays one ASU instruction: exact latency accounting, with
// integer effects tracked symbolically and float effects dropped.
func (w *walk) execScalar(in *isa.Instr) (jumped bool, err error) {
	switch in.Op {
	case isa.OpNop:
		w.tickOp()
		return false, nil
	case isa.OpMov:
		if len(in.Ops) != 2 {
			return false, fmt.Errorf("mov needs 2 operands")
		}
		w.tickOp()
		dst := in.Ops[1].Reg
		if in.Suffix == isa.SufD && dst.Class == isa.ClassS && in.Ops[0].Kind == isa.KindReg && in.Ops[0].Reg.Class == isa.ClassS {
			src := in.Ops[0].Reg
			w.waitScalar(src)
			w.s[dst.N], w.sKnown[dst.N] = w.s[src.N], w.sKnown[src.N]
			return false, nil
		}
		v, known, err := w.intVal(in.Ops[0])
		if err != nil {
			return false, err
		}
		return false, w.setIntReg(dst, v, known)
	case isa.OpLd:
		return false, w.scalarLoad(in)
	case isa.OpSt:
		return false, w.scalarStore(in)
	case isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpDiv, isa.OpNeg, isa.OpAnd, isa.OpOr, isa.OpShf:
		return false, w.scalarALU(in)
	case isa.OpLe, isa.OpLt, isa.OpGt, isa.OpGe, isa.OpEq, isa.OpNe:
		return false, w.scalarCompare(in)
	case isa.OpJmp:
		for _, t := range w.timers {
			t.tickASU(int64(t.cfg.ScalarOpLat + t.cfg.BranchPenalty))
		}
		w.closeChime(false)
		return true, w.jumpTo(in)
	case isa.OpJbrs:
		w.tickOp()
		if !w.tfKnown {
			if !w.forking {
				return false, fmt.Errorf("branch on unmodeled comparison: %w", ErrDataDependent)
			}
			if w.decisionIdx >= len(w.decisions) {
				return false, errNeedDecision
			}
			// Adopt the scripted outcome as the T value so later branches
			// on the same (unrewritten) flag stay path-consistent.
			w.tf, w.tfKnown = w.decisions[w.decisionIdx], true
			w.decisionIdx++
		}
		take := w.tf
		if in.Suffix == isa.SufF {
			take = !take
		}
		if !take {
			return false, nil
		}
		for _, t := range w.timers {
			t.tickASU(int64(t.cfg.BranchPenalty))
		}
		w.closeChime(false)
		return true, w.jumpTo(in)
	case isa.OpSum, isa.OpSqrt, isa.OpCvt:
		return false, fmt.Errorf("%s has no scalar form in this subset", in.Op)
	}
	return false, fmt.Errorf("unreplayed scalar op %s", in.Op)
}

func (w *walk) jumpTo(in *isa.Instr) error {
	for _, o := range in.Ops {
		if o.Kind == isa.KindLabel {
			idx, ok := w.prog.Labels[o.Label]
			if !ok {
				return fmt.Errorf("undefined label %q", o.Label)
			}
			w.pc = idx
			return nil
		}
	}
	return fmt.Errorf("branch without label")
}

// scalarMem times one scalar memory access on every timer: a wait while
// vector traffic holds the single CPU port, the split rule's chime close,
// then the access latency. sdst is the S register a load writes, or -1.
func (w *walk) scalarMem(sdst int) {
	// The split rule only terminates a chime holding a vector memory
	// access, so a split always flushes a formed chime.
	split := w.builder.NoteScalarMem()
	var span int64
	if split {
		span, _ = w.flushChime()
	}
	for _, t := range w.timers {
		start := t.clock
		if t.vectorPortFree > start {
			start = t.vectorPortFree
			t.pred.PortConflicts++
			t.chargeStall(vm.LaneASU, start, vm.StallPortArb)
		}
		if split {
			t.closeChime(span, true, true)
		}
		t.clock = start + t.scalarMemLat()
		t.chargeIssue(vm.LaneASU, t.clock)
		t.scalarPortFree = t.clock
		if sdst >= 0 {
			t.sReady[sdst] = t.clock
		}
	}
}

func (t *timer) scalarMemLat() int64 {
	lat := float64(t.cfg.ScalarLoadLat)
	if t.cfg.MemSlowdown > 1 {
		lat *= t.cfg.MemSlowdown
	}
	return int64(math.Ceil(lat))
}

func (w *walk) scalarLoad(in *isa.Instr) error {
	if len(in.Ops) != 2 {
		return fmt.Errorf("scalar load needs 2 operands")
	}
	addr, addrKnown, err := w.effAddr(in.Ops[0])
	if err != nil {
		return err
	}
	dst := in.Ops[1].Reg
	if dst.Class != isa.ClassA && dst.Class != isa.ClassS {
		return fmt.Errorf("bad scalar load destination %s", dst)
	}
	sdst := -1
	if dst.Class == isa.ClassS {
		sdst = dst.N
	}
	w.scalarMem(sdst)
	var v int64
	known := false
	// A floating-point load produces a real value the fast tier does not
	// carry; only integer loads read the symbolic cell map.
	if addrKnown && in.Suffix != isa.SufD && in.Suffix != isa.SufS {
		v, known = w.cellVal(addr)
	}
	if dst.Class == isa.ClassA {
		w.a[dst.N], w.aKnown[dst.N] = v, known
	} else {
		w.s[dst.N], w.sKnown[dst.N] = v, known
	}
	return nil
}

func (w *walk) scalarStore(in *isa.Instr) error {
	if len(in.Ops) != 2 {
		return fmt.Errorf("scalar store needs 2 operands")
	}
	addr, addrKnown, err := w.effAddr(in.Ops[1])
	if err != nil {
		return err
	}
	w.scalarMem(-1)
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
		w.setCell(addr, w.a[src.N], w.aKnown[src.N] && !floatStore)
		return nil
	case isa.ClassS:
		w.waitScalar(src)
		w.setCell(addr, w.s[src.N], w.sKnown[src.N] && !floatStore)
		return nil
	}
	return fmt.Errorf("bad scalar store source %s", src)
}

func (w *walk) scalarALU(in *isa.Instr) error {
	w.tickOp()
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
			if o.Kind == isa.KindReg {
				w.waitScalar(o.Reg)
			}
		}
		if len(in.Ops) == 2 && in.Op != isa.OpNeg {
			w.waitScalar(dst) // two-operand form reads the destination
		}
		if dst.Class != isa.ClassS {
			return fmt.Errorf("cannot write float to %s", dst)
		}
		w.s[dst.N], w.sKnown[dst.N] = 0, false
		return nil
	}
	var x, y int64
	var xk, yk bool
	var err error
	if len(in.Ops) == 2 {
		if in.Op == isa.OpNeg {
			x, xk, err = w.intVal(in.Ops[0])
			if err != nil {
				return err
			}
			return w.setIntReg(dst, -x, xk)
		}
		x, xk, err = w.intVal(isa.RegOp(dst))
		if err != nil {
			return err
		}
		y, yk, err = w.intVal(in.Ops[0])
		if err != nil {
			return err
		}
	} else {
		x, xk, err = w.intVal(in.Ops[0])
		if err != nil {
			return err
		}
		y, yk, err = w.intVal(in.Ops[1])
		if err != nil {
			return err
		}
	}
	if !xk || !yk {
		return w.setIntReg(dst, 0, false)
	}
	v, err := intALU(in.Op, x, y)
	if err != nil {
		return err
	}
	return w.setIntReg(dst, v, true)
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

func (w *walk) scalarCompare(in *isa.Instr) error {
	if len(in.Ops) != 2 {
		return fmt.Errorf("compare needs 2 operands")
	}
	w.tickOp()
	if in.Suffix == isa.SufD || in.Suffix == isa.SufS {
		for _, o := range in.Ops {
			if o.Kind == isa.KindReg {
				w.waitScalar(o.Reg)
			}
		}
		w.tfKnown = false
		return nil
	}
	x, xk, err := w.intVal(in.Ops[0])
	if err != nil {
		return err
	}
	y, yk, err := w.intVal(in.Ops[1])
	if err != nil {
		return err
	}
	if !xk || !yk {
		w.tfKnown = false
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
		w.tf = cmp <= 0
	case isa.OpLt:
		w.tf = cmp < 0
	case isa.OpGt:
		w.tf = cmp > 0
	case isa.OpGe:
		w.tf = cmp >= 0
	case isa.OpEq:
		w.tf = cmp == 0
	case isa.OpNe:
		w.tf = cmp != 0
	}
	w.tfKnown = true
	return nil
}

// execVector decodes one vector instruction — the simulator's execVector
// minus every element and every clock — and times it on every timer.
func (w *walk) execVector(in *isa.Instr) error {
	t, ok := vectorTiming(in.Op)
	if !ok {
		return fmt.Errorf("no vector form for %s", in.Op)
	}
	op := &w.op
	op.timing = t
	op.vl = w.vl
	op.waits = op.wbuf[:0]
	var regs [8]isa.Reg // decode buffer, see isa.Instr.AppendSources
	for _, reg := range in.AppendSources(regs[:0]) {
		if reg.Class == isa.ClassS {
			op.waits = append(op.waits, reg.N)
		}
	}
	if op.vl <= 0 {
		for _, tm := range w.timers {
			tm.vectorIdle(op)
		}
		return nil
	}

	// Fits accepts anything into an empty chime, so a closing instruction
	// always flushes a formed one.
	op.closes = !w.builder.Fits(*in)
	if op.closes {
		op.span, _ = w.flushChime()
	}
	op.newChime = w.builder.Empty()
	w.builder.Add(*in)
	if op.vl > w.chimeVL {
		w.chimeVL = op.vl
	}
	op.pipe = in.Op.Pipe() // in is a vector instruction

	op.chains = op.cbuf[:0]
	for _, reg := range in.AppendVectorReads(regs[:0]) {
		p := w.vw[reg.N]
		if !p.valid {
			continue
		}
		d := chainDep{reg: reg.N}
		if p.chime == w.chimeID && w.rules.Chaining {
			d.chained = true
			d.lag = int64(p.y)
			if p.z > t.Z {
				d.lag += int64(math.Ceil((p.z - t.Z) * float64(op.vl-1)))
			}
		}
		op.chains = append(op.chains, d)
	}

	op.mem = in.IsMemory()
	if op.mem {
		ea, err := w.vectorEA(in)
		if err != nil {
			return err
		}
		op.ea, op.stride = ea, w.vs
	}
	op.streamIn = int64(math.Ceil(t.Z * float64(op.vl)))
	op.write = -1
	if d, ok := in.VectorWrite(); ok {
		op.write = d.N
	}
	op.sum = -1
	if in.Op == isa.OpSum {
		if d, ok := in.Dst(); ok && d.Class == isa.ClassS {
			op.sum = d.N
		}
	}

	for _, tm := range w.timers {
		tm.vector(op)
	}

	if op.write >= 0 {
		w.vw[op.write] = producer{valid: true, chime: w.chimeID, y: t.Y, z: t.Z}
	}
	if op.sum >= 0 {
		w.s[op.sum], w.sKnown[op.sum] = 0, false
	}
	return nil
}

// dispatch waits for the instruction's scalar sources and dispatches it.
func (t *timer) dispatch(op *vecOp) int64 {
	for _, n := range op.waits {
		t.waitScalar(n)
	}
	t.clock += int64(t.cfg.DispatchLat)
	t.chargeIssue(vm.LaneASU, t.clock)
	return t.clock
}

// vectorIdle times a vector instruction issued at zero vector length:
// dispatch and startup, no stream.
func (t *timer) vectorIdle(op *vecOp) {
	t.dispatch(op)
	t.clock += int64(op.timing.X)
	t.chargeStall(vm.LaneASU, t.clock, vm.StallStartup)
}

// vector replays one vector instruction's stream timing under the chime
// model, exactly as the simulator computes it.
func (t *timer) vector(op *vecOp) {
	dispatchDone := t.dispatch(op)
	if op.closes {
		t.closeChime(op.span, true, false)
	}
	tm, vl := op.timing, op.vl

	// Stream entry time S with chronological attribution checkpoints.
	type waitPoint struct {
		t     int64
		cause vm.StallCause
	}
	var wbuf [6]waitPoint
	waits := wbuf[:0]

	s := dispatchDone + int64(tm.X)
	waits = append(waits,
		waitPoint{dispatchDone, vm.StallScalar},
		waitPoint{s, vm.StallStartup})
	pipe := op.pipe
	lane := int(pipe)
	pf := t.pipeFree[pipe]
	if t.cfg.Rules.Bubbles && t.pipeUsed[pipe] {
		pf += int64(tm.B)
		waits = append(waits, waitPoint{pf, vm.StallBubble})
	}
	if pf > s {
		s = pf
	}
	t.pipeUsed[pipe] = true
	gateCause := vm.StallChimeSync
	if t.prevGateSplit {
		gateCause = vm.StallChimeSplit
	}
	if op.newChime {
		waits = append(waits, waitPoint{t.prevGate, gateCause})
		if t.prevGate > s {
			s = t.prevGate
		}
	} else {
		waits = append(waits, waitPoint{t.chimeStart, vm.StallChimeSync})
		if t.chimeStart > s {
			s = t.chimeStart
		}
	}

	var chainT int64
	for _, d := range op.chains {
		v := t.vw[d.reg]
		if d.chained {
			dep := v.start + d.lag
			if dep > chainT {
				chainT = dep
			}
			if dep > s {
				s = dep
			}
		} else if v.fin > s {
			chainT = v.fin
			s = v.fin
		}
	}
	if chainT > 0 {
		waits = append(waits, waitPoint{chainT, vm.StallChain})
	}

	var stBank, stRefresh, stContention int64
	if op.mem {
		if t.scalarPortFree > s {
			t.pred.PortConflicts++
		}
		waits = append(waits, waitPoint{t.scalarPortFree, vm.StallPortArb})
		if t.scalarPortFree > s {
			s = t.scalarPortFree
		}
		stBank, stRefresh, stContention = t.memStreamStall(s, op.ea, op.stride, vl)
		t.chimeMemStall += stBank + stRefresh + stContention
		t.pred.MemStalls += stBank + stRefresh + stContention
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
		t.chargeStall(lane, wt, w.cause)
	}

	if op.newChime {
		t.chimeStart = s
	}

	streamEnd := s + op.streamIn
	t.chargeIssue(lane, streamEnd)
	t.chargeStall(lane, streamEnd+stBank, vm.StallBankConflict)
	t.chargeStall(lane, streamEnd+stBank+stRefresh, vm.StallRefresh)
	t.chargeStall(lane, streamEnd+stall, vm.StallContention)
	t.pipeFree[pipe] = s + op.streamIn + stall
	fin := s + int64(tm.Y) + op.streamIn + stall
	if fin > t.maxEvent {
		t.maxEvent = fin
	}
	if op.mem && fin > t.vectorPortFree {
		t.vectorPortFree = fin
	}
	if op.write >= 0 {
		t.vw[op.write].start, t.vw[op.write].fin = s, fin
	}
	if op.sum >= 0 {
		t.sReady[op.sum] = fin
	}
}

// vectorEA resolves the memory operand of a vector load or store; the
// fast tier needs the exact address for bank-phase math.
func (w *walk) vectorEA(in *isa.Instr) (int64, error) {
	for _, o := range in.Ops {
		if o.Kind == isa.KindMem {
			addr, known, err := w.effAddr(o)
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
func (t *timer) memStreamStall(start, base, stride int64, vl int) (bank, refresh, contention int64) {
	if !t.cfg.BankConflicts {
		stride = isa.WordBytes
	}
	if t.stallTab != nil {
		bank, refresh = t.stallTab.StreamStallParts(start, base, stride, vl)
	}
	if t.cfg.MemSlowdown > 1 {
		contention = int64(math.Ceil((t.cfg.MemSlowdown - 1) * float64(vl)))
	}
	return bank, refresh, contention
}

// vectorTimings caches isa.VectorTiming by opcode: the walk looks it up
// once per dynamic vector instruction.
var vectorTimings = func() (tab [isa.OpHalt + 1]struct {
	t  isa.Timing
	ok bool
}) {
	for op := range tab {
		tab[op].t, tab[op].ok = isa.VectorTiming(isa.Op(op))
	}
	return tab
}()

func vectorTiming(op isa.Op) (isa.Timing, bool) {
	if op < 0 || int(op) >= len(vectorTimings) {
		return isa.VectorTiming(op)
	}
	return vectorTimings[op].t, vectorTimings[op].ok
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
