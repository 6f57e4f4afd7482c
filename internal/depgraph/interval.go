package depgraph

import (
	"fmt"
	"math"

	"macs/internal/asm"
	"macs/internal/isa"
)

// Interval is one value range over int64, possibly unbounded on either
// side. The zero value is the unconstrained interval (top).
type Interval struct {
	Lo, Hi int64
	// LoBnd and HiBnd report whether the corresponding bound holds; an
	// unbounded side's numeric field is meaningless.
	LoBnd, HiBnd bool
}

// Top returns the unconstrained interval.
func Top() Interval { return Interval{} }

// Point returns the singleton interval [v, v].
func Point(v int64) Interval { return Interval{Lo: v, Hi: v, LoBnd: true, HiBnd: true} }

// Range returns the interval [lo, hi].
func Range(lo, hi int64) Interval { return Interval{Lo: lo, Hi: hi, LoBnd: true, HiBnd: true} }

// AtLeast returns [lo, +inf); AtMost returns (-inf, hi].
func AtLeast(lo int64) Interval { return Interval{Lo: lo, LoBnd: true} }
func AtMost(hi int64) Interval  { return Interval{Hi: hi, HiBnd: true} }

// IsPoint reports whether the interval is a single value.
func (iv Interval) IsPoint() (int64, bool) {
	if iv.LoBnd && iv.HiBnd && iv.Lo == iv.Hi {
		return iv.Lo, true
	}
	return 0, false
}

// Bounded reports whether both sides are finite.
func (iv Interval) Bounded() bool { return iv.LoBnd && iv.HiBnd }

// Empty reports an infeasible interval (refinement produced lo > hi).
func (iv Interval) Empty() bool { return iv.LoBnd && iv.HiBnd && iv.Lo > iv.Hi }

func (iv Interval) String() string {
	lo, hi := "-inf", "+inf"
	if iv.LoBnd {
		lo = fmt.Sprintf("%d", iv.Lo)
	}
	if iv.HiBnd {
		hi = fmt.Sprintf("%d", iv.Hi)
	}
	if p, ok := iv.IsPoint(); ok {
		return fmt.Sprintf("%d", p)
	}
	return fmt.Sprintf("[%s,%s]", lo, hi)
}

// addSat adds with saturation detection; ok is false on overflow.
func addSat(a, b int64) (int64, bool) {
	s := a + b
	if (a > 0 && b > 0 && s < 0) || (a < 0 && b < 0 && s >= 0) {
		return 0, false
	}
	return s, true
}

// Add returns the interval sum.
func (iv Interval) Add(o Interval) Interval {
	var out Interval
	if iv.LoBnd && o.LoBnd {
		if v, ok := addSat(iv.Lo, o.Lo); ok {
			out.Lo, out.LoBnd = v, true
		}
	}
	if iv.HiBnd && o.HiBnd {
		if v, ok := addSat(iv.Hi, o.Hi); ok {
			out.Hi, out.HiBnd = v, true
		}
	}
	return out
}

// Neg returns the negated interval.
func (iv Interval) Neg() Interval {
	var out Interval
	if iv.HiBnd && iv.Hi != math.MinInt64 {
		out.Lo, out.LoBnd = -iv.Hi, true
	}
	if iv.LoBnd && iv.Lo != math.MinInt64 {
		out.Hi, out.HiBnd = -iv.Lo, true
	}
	return out
}

// Sub returns the interval difference.
func (iv Interval) Sub(o Interval) Interval { return iv.Add(o.Neg()) }

// Mul returns the interval product; unbounded unless both operands are
// bounded and no corner product overflows.
func (iv Interval) Mul(o Interval) Interval {
	if !iv.Bounded() || !o.Bounded() {
		return Top()
	}
	mul := func(a, b int64) (int64, bool) {
		if a == 0 || b == 0 {
			return 0, true
		}
		p := a * b
		if p/b != a {
			return 0, false
		}
		return p, true
	}
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for _, a := range []int64{iv.Lo, iv.Hi} {
		for _, b := range []int64{o.Lo, o.Hi} {
			p, ok := mul(a, b)
			if !ok {
				return Top()
			}
			if p < lo {
				lo = p
			}
			if p > hi {
				hi = p
			}
		}
	}
	return Range(lo, hi)
}

// Join returns the least interval containing both.
func (iv Interval) Join(o Interval) Interval {
	var out Interval
	if iv.LoBnd && o.LoBnd {
		out.LoBnd = true
		out.Lo = min64(iv.Lo, o.Lo)
	}
	if iv.HiBnd && o.HiBnd {
		out.HiBnd = true
		out.Hi = max64(iv.Hi, o.Hi)
	}
	return out
}

// Meet intersects two intervals; the result may be Empty.
func (iv Interval) Meet(o Interval) Interval {
	out := iv
	if o.LoBnd && (!out.LoBnd || o.Lo > out.Lo) {
		out.Lo, out.LoBnd = o.Lo, true
	}
	if o.HiBnd && (!out.HiBnd || o.Hi < out.Hi) {
		out.Hi, out.HiBnd = o.Hi, true
	}
	return out
}

// Widen drops any bound that moved since prev, guaranteeing termination
// of the fixpoint iteration.
func (iv Interval) Widen(prev Interval) Interval {
	out := iv
	if prev.LoBnd && iv.LoBnd && iv.Lo < prev.Lo {
		out.LoBnd = false
	}
	if !prev.LoBnd {
		out.LoBnd = false
	}
	if prev.HiBnd && iv.HiBnd && iv.Hi > prev.Hi {
		out.HiBnd = false
	}
	if !prev.HiBnd {
		out.HiBnd = false
	}
	return out
}

// Clamp intersects with [lo, hi] after the machine's clamp semantics
// (values below lo map to lo, above hi to hi), so the result is always
// bounded.
func (iv Interval) Clamp(lo, hi int64) Interval {
	l, h := lo, hi
	if iv.LoBnd {
		l = clamp64(iv.Lo, lo, hi)
	}
	if iv.HiBnd {
		h = clamp64(iv.Hi, lo, hi)
	}
	return Range(l, h)
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
func clamp64(v, lo, hi int64) int64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// ivSlots is the number of register slots the interval analysis tracks:
// the a and s registers, VL and VS (gSlot numbers them first).
const ivSlots = gSlotV

// Env is the abstract state at one program point: one interval per
// scalar register slot (a, s, vl, vs). Vector registers and the T flag
// carry no interval.
type Env struct {
	regs [ivSlots]Interval
	live bool
}

// Reg returns the interval of one register (top for vector registers).
func (e *Env) Reg(r isa.Reg) Interval {
	s := gSlot(r)
	if s < 0 || s >= ivSlots {
		return Top()
	}
	return e.regs[s]
}

func (e *Env) set(s int, iv Interval) {
	if s >= 0 && s < ivSlots {
		e.regs[s] = iv
	}
}

// join merges src into e; changed reports growth.
func (e *Env) join(src *Env) (changed bool) {
	if !src.live {
		return false
	}
	if !e.live {
		*e = *src
		return true
	}
	for i := range e.regs {
		n := e.regs[i].Join(src.regs[i])
		if n != e.regs[i] {
			e.regs[i] = n
			changed = true
		}
	}
	return changed
}

// widen joins src into e with widening on moved bounds.
func (e *Env) widen(src *Env) (changed bool) {
	if !src.live {
		return false
	}
	if !e.live {
		*e = *src
		return true
	}
	for i := range e.regs {
		n := e.regs[i].Join(src.regs[i]).Widen(e.regs[i])
		if n != e.regs[i] {
			e.regs[i] = n
			changed = true
		}
	}
	return changed
}

// IntervalResult carries the converged abstract states of a program. It
// keeps the state before the first instruction of every reachable block,
// before every memory instruction (the points the verifier and
// StreamFacts query), and at least every keepEvery instructions of a
// long block; Reg answers any other point by stepping forward from the
// nearest kept state of its block, so no query costs more than
// keepEvery transfer steps. It reads the program's instructions, which
// must not change afterwards, and is otherwise read-only once built:
// concurrent Reg calls are safe.
type IntervalResult struct {
	instrs []isa.Instr
	// near[i] indexes kept with the state nearest before instruction i
	// in its block; -1 marks a statically unreachable instruction.
	near []int32
	kept []keptEnv
}

// keptEnv is the converged state before instruction at.
type keptEnv struct {
	at  int
	env Env
}

// keepEvery bounds the distance Reg steps from a kept state.
const keepEvery = 16

// Reg returns the interval of a register before instruction idx.
func (r *IntervalResult) Reg(idx int, reg isa.Reg) Interval {
	if r == nil || idx < 0 || idx >= len(r.near) || r.near[idx] < 0 {
		return Top()
	}
	k := &r.kept[r.near[idx]]
	if k.at == idx {
		return k.env.Reg(reg)
	}
	st := k.env
	var cmp cmpFact
	for i := k.at; i < idx; i++ {
		stepInterval(&st, r.instrs[i], &cmp)
	}
	return st.Reg(reg)
}

// widenAfter is the number of times a block's entry state may grow by
// plain join before widening kicks in; narrowRounds re-applies the
// transfer that many times afterwards to recover widened-away bounds.
const (
	widenAfter   = 3
	narrowRounds = 3
)

// cmpFact remembers the last scalar integer compare of a block so the
// branch that consumes it can refine operand ranges on its out-edges.
type cmpFact struct {
	valid bool
	op    isa.Op
	// slot/rhs describe "slot OP rhs" with rhs a known interval; when
	// the register was the right operand the op has been flipped.
	slot int
	rhs  Interval
}

// Intervals runs the interval abstract interpretation over a whole
// program: a forward fixpoint on its CFG with widening, constants and
// integer ALU folded to ranges, VL writes clamped to [0, VLMax] like the
// machine, and compare-plus-branch pairs refining ranges on both edges.
// Loads and floating-point results are unconstrained.
func Intervals(p *asm.Program) *IntervalResult {
	res := &IntervalResult{instrs: p.Instrs, near: make([]int32, len(p.Instrs))}
	if len(p.Instrs) == 0 {
		return res
	}
	blocks, entry := buildBlocks(p)
	in := make([]Env, len(blocks))
	joins := make([]int, len(blocks))
	var e0 Env
	e0.live = true
	for i := range e0.regs {
		// Registers start zeroed, exactly as the machine images them.
		e0.regs[i] = Point(0)
	}
	in[entry] = e0

	// flow runs one block from its entry state and leaves the states on
	// its out-edges in outs, their target blocks in targets; both
	// buffers are reused across calls.
	var outs []Env
	var targets []int
	flow := func(bi int) {
		outs, targets = outs[:0], targets[:0]
		st := in[bi]
		var cmp cmpFact
		b := &blocks[bi]
		for i := b.start; i < b.end; i++ {
			stepInterval(&st, p.Instrs[i], &cmp)
		}
		if b.end == b.start {
			return
		}
		last := p.Instrs[b.end-1]
		if last.Op == isa.OpJbrs && b.nsucc > 0 && cmp.valid {
			// succs = [target, fallthrough?]: refine per edge. The taken
			// edge asserts the compare (inverted for .f), the
			// fallthrough edge its negation.
			takenTrue := last.Suffix != isa.SufF
			for si, succ := range b.succs() {
				ref := st
				assert := takenTrue
				if si == 1 {
					assert = !assert
				}
				refine(&ref, cmp, assert)
				if ref.live {
					outs = append(outs, ref)
					targets = append(targets, succ)
				}
			}
			return
		}
		for _, succ := range b.succs() {
			outs = append(outs, st)
			targets = append(targets, succ)
		}
	}

	work := []int{entry}
	queued := make([]bool, len(blocks))
	queued[entry] = true
	for len(work) > 0 {
		bi := work[0]
		work = work[1:]
		queued[bi] = false
		flow(bi)
		for i, succ := range targets {
			var changed bool
			if joins[succ] >= widenAfter {
				changed = in[succ].widen(&outs[i])
			} else {
				changed = in[succ].join(&outs[i])
			}
			if changed {
				joins[succ]++
				if !queued[succ] {
					queued[succ] = true
					work = append(work, succ)
				}
			}
		}
	}
	// Narrowing: re-apply the (monotone) transfer from the widened
	// post-fixpoint a few times with plain joins, recovering bounds the
	// widening discarded (e.g. a counter's loop-exit limit). Starting
	// above the least fixpoint keeps every round sound.
	next := make([]Env, len(blocks))
	for round := 0; round < narrowRounds; round++ {
		clear(next)
		next[entry].join(&e0)
		for bi := range blocks {
			if !in[bi].live {
				continue
			}
			flow(bi)
			for i, succ := range targets {
				next[succ].join(&outs[i])
			}
		}
		in, next = next, in
	}
	res.keep(blocks, in)
	return res
}

// keep records the converged states Reg answers from: each reachable
// block's entry, each memory instruction, and every keepEvery-th
// instruction between them.
func (r *IntervalResult) keep(blocks []iblock, in []Env) {
	n := 0
	for bi, b := range blocks {
		if !in[bi].live {
			continue
		}
		last := b.start - keepEvery // keeps the entry state
		for i := b.start; i < b.end; i++ {
			if i-last >= keepEvery || r.instrs[i].IsMemory() {
				n++
				last = i
			}
		}
	}
	r.kept = make([]keptEnv, 0, n)
	for bi, b := range blocks {
		if !in[bi].live {
			for i := b.start; i < b.end; i++ {
				r.near[i] = -1
			}
			continue
		}
		st := in[bi]
		var cmp cmpFact
		last := b.start - keepEvery
		for i := b.start; i < b.end; i++ {
			if i-last >= keepEvery || r.instrs[i].IsMemory() {
				r.kept = append(r.kept, keptEnv{at: i, env: st})
				last = i
			}
			r.near[i] = int32(len(r.kept) - 1)
			stepInterval(&st, r.instrs[i], &cmp)
		}
	}
}

// stepInterval applies one instruction to the abstract state.
func stepInterval(st *Env, in isa.Instr, cmp *cmpFact) {
	if isCompare(in.Op) {
		*cmp = compareFact(st, in)
		return
	}
	dst, hasDst := in.Dst()
	if !hasDst {
		return
	}
	s := gSlot(dst)
	if s < 0 || s >= ivSlots {
		return
	}
	if cmp.valid && s == cmp.slot {
		cmp.valid = false // the compared register is being overwritten
	}
	nv := Top()
	switch {
	case in.Suffix == isa.SufD || in.Suffix == isa.SufS:
		// Floating-point result: no integer range.
	case in.Op == isa.OpMov && len(in.Ops) == 2:
		nv = operandInterval(st, in.Ops[0])
	case in.Op == isa.OpLd:
		// Loaded values are runtime data.
	case isScalarIntALUOp(in):
		nv = aluInterval(st, in)
	case in.IsVector():
		// Vector op writing a scalar (sum.d) or other: unconstrained.
	}
	if s == gSlotVL {
		nv = nv.Clamp(0, int64(isa.VLMax))
	}
	st.set(s, nv)
}

func isScalarIntALUOp(in isa.Instr) bool {
	if in.IsVector() {
		return false
	}
	switch in.Op {
	case isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpDiv, isa.OpNeg, isa.OpAnd, isa.OpOr, isa.OpShf:
		return len(in.Ops) == 2 || len(in.Ops) == 3
	}
	return false
}

func operandInterval(st *Env, o isa.Operand) Interval {
	switch o.Kind {
	case isa.KindImm:
		return Point(o.Imm)
	case isa.KindReg:
		return st.Reg(o.Reg)
	}
	return Top()
}

func aluInterval(st *Env, in isa.Instr) Interval {
	var x, y Interval
	dst := in.Ops[len(in.Ops)-1]
	if len(in.Ops) == 2 {
		if in.Op == isa.OpNeg {
			return operandInterval(st, in.Ops[0]).Neg()
		}
		x = operandInterval(st, dst)
		y = operandInterval(st, in.Ops[0])
	} else {
		x = operandInterval(st, in.Ops[0])
		y = operandInterval(st, in.Ops[1])
	}
	switch in.Op {
	case isa.OpAdd:
		return x.Add(y)
	case isa.OpSub:
		return x.Sub(y)
	case isa.OpMul:
		return x.Mul(y)
	case isa.OpDiv, isa.OpAnd, isa.OpOr, isa.OpShf:
		// Fold only point operands; ranges of these are rarely useful.
		xv, xok := x.IsPoint()
		yv, yok := y.IsPoint()
		if xok && yok {
			switch in.Op {
			case isa.OpDiv:
				if yv != 0 {
					return Point(xv / yv)
				}
			case isa.OpAnd:
				return Point(xv & yv)
			case isa.OpOr:
				return Point(xv | yv)
			case isa.OpShf:
				if yv >= 0 {
					return Point(xv << uint(yv&63))
				}
				return Point(xv >> uint((-yv)&63))
			}
		}
	}
	return Top()
}

// compareFact extracts a refinable fact from a scalar integer compare:
// one side a tracked register, the other a known interval.
func compareFact(st *Env, in isa.Instr) cmpFact {
	if in.Suffix == isa.SufD || in.Suffix == isa.SufS || len(in.Ops) != 2 {
		return cmpFact{}
	}
	slotOf := func(o isa.Operand) int {
		if o.Kind == isa.KindReg && o.Reg.Class != isa.ClassV {
			if s := gSlot(o.Reg); s >= 0 && s < ivSlots {
				return s
			}
		}
		return -1
	}
	l, r := slotOf(in.Ops[0]), slotOf(in.Ops[1])
	if l >= 0 {
		return cmpFact{valid: true, op: in.Op, slot: l, rhs: operandInterval(st, in.Ops[1])}
	}
	if r >= 0 {
		return cmpFact{valid: true, op: flipCmp(in.Op), slot: r, rhs: operandInterval(st, in.Ops[0])}
	}
	return cmpFact{}
}

// flipCmp rewrites "c OP x" as "x OP' c".
func flipCmp(op isa.Op) isa.Op {
	switch op {
	case isa.OpLe:
		return isa.OpGe
	case isa.OpLt:
		return isa.OpGt
	case isa.OpGt:
		return isa.OpLt
	case isa.OpGe:
		return isa.OpLe
	}
	return op // Eq, Ne are symmetric
}

// refine narrows the compared register's range along one branch edge.
// assert=true keeps states where "slot OP rhs" holds, false its negation.
func refine(st *Env, cmp cmpFact, assert bool) {
	op := cmp.op
	if !assert {
		switch op {
		case isa.OpLe:
			op = isa.OpGt
		case isa.OpLt:
			op = isa.OpGe
		case isa.OpGt:
			op = isa.OpLe
		case isa.OpGe:
			op = isa.OpLt
		case isa.OpEq:
			op = isa.OpNe
		case isa.OpNe:
			op = isa.OpEq
		}
	}
	cur := st.regs[cmp.slot]
	var ref Interval
	switch op {
	case isa.OpLe:
		if !cmp.rhs.HiBnd {
			return
		}
		ref = cur.Meet(AtMost(cmp.rhs.Hi))
	case isa.OpLt:
		if !cmp.rhs.HiBnd || cmp.rhs.Hi == math.MinInt64 {
			return
		}
		ref = cur.Meet(AtMost(cmp.rhs.Hi - 1))
	case isa.OpGe:
		if !cmp.rhs.LoBnd {
			return
		}
		ref = cur.Meet(AtLeast(cmp.rhs.Lo))
	case isa.OpGt:
		if !cmp.rhs.LoBnd || cmp.rhs.Lo == math.MaxInt64 {
			return
		}
		ref = cur.Meet(AtLeast(cmp.rhs.Lo + 1))
	case isa.OpEq:
		ref = cur.Meet(cmp.rhs)
	case isa.OpNe:
		// Only a point can be excluded, and only at a boundary.
		p, ok := cmp.rhs.IsPoint()
		if !ok {
			return
		}
		ref = cur
		if ref.LoBnd && ref.Lo == p {
			ref.Lo++
		}
		if ref.HiBnd && ref.Hi == p {
			ref.Hi--
		}
	default:
		return
	}
	if ref.Empty() {
		st.live = false
		return
	}
	st.set(cmp.slot, ref)
}

// iblock is one basic block of the interval CFG.
type iblock struct {
	start, end int
	// succ[:nsucc] lists successor block indices: for a conditional
	// branch the taken target first, then the fallthrough.
	succ  [2]int
	nsucc int
}

func (b *iblock) succs() []int { return b.succ[:b.nsucc] }

func (b *iblock) addSucc(s int) {
	b.succ[b.nsucc] = s
	b.nsucc++
}

// buildBlocks partitions a program into basic blocks (the same shape the
// verifier uses; duplicated here to keep the import graph acyclic).
func buildBlocks(p *asm.Program) (blocks []iblock, entry int) {
	n := len(p.Instrs)
	entryPC := 0
	if idx, ok := p.Labels["main"]; ok && idx >= 0 && idx < n {
		entryPC = idx
	}
	leader := make([]bool, n+1)
	leader[0] = true
	leader[entryPC] = true
	nblocks := 1
	for i, in := range p.Instrs {
		if in.IsBranch() || in.Op == isa.OpHalt {
			leader[i+1] = true
		}
		if in.IsBranch() {
			if t, ok := labelTarget(p, in); ok && t < n {
				leader[t] = true
			}
		}
	}
	for i := 1; i < n; i++ {
		if leader[i] {
			nblocks++
		}
	}
	// blockOf[i] is the block a leader instruction i starts.
	blockOf := make([]int, n)
	blocks = make([]iblock, 0, nblocks)
	for i := 0; i < n; i++ {
		if leader[i] {
			blockOf[i] = len(blocks)
			blocks = append(blocks, iblock{start: i})
		}
	}
	for bi := range blocks {
		b := &blocks[bi]
		end := n
		if bi+1 < len(blocks) {
			end = blocks[bi+1].start
		}
		b.end = end
		if end == b.start {
			continue
		}
		last := p.Instrs[end-1]
		switch {
		case last.Op == isa.OpHalt:
		case last.IsBranch():
			if t, ok := labelTarget(p, last); ok && t < n {
				b.addSucc(blockOf[t])
			}
			if last.Op == isa.OpJbrs && end < n {
				b.addSucc(blockOf[end])
			}
		default:
			if end < n {
				b.addSucc(blockOf[end])
			}
		}
	}
	return blocks, blockOf[entryPC]
}

func labelTarget(p *asm.Program, in isa.Instr) (int, bool) {
	for _, o := range in.Ops {
		if o.Kind == isa.KindLabel {
			t, ok := p.Labels[o.Label]
			return t, ok && t >= 0
		}
	}
	return 0, false
}
