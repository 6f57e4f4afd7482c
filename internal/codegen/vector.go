package codegen

import (
	"fmt"

	"macs/internal/ftn"
	"macs/internal/isa"
	"macs/internal/vectorize"
)

// streamGroup is a set of memory streams sharing one advancing address
// register: same element stride and same loop-invariant base expression.
type streamGroup struct {
	strideElems int64
	base        ftn.Expr
	reg         isa.Reg
}

// groupKey identifies a stream group: element stride and the base
// expression's printed form.
type groupKey struct {
	stride int64
	base   string
}

func groupOf(aff vectorize.Affine) groupKey {
	return groupKey{stride: aff.Stride, base: aff.BaseKey()}
}

// vloop carries the state of one vector-loop emission.
type vloop struct {
	g      *gen
	res    *vectorize.Result
	groups map[groupKey]*streamGroup
	order  []*vectorize.Node // emission order of vector-producing nodes
	// uses counts remaining consumers of each vector node; lastUse is the
	// position of the final consumer.
	uses    map[int]int
	lastUse map[int]int
	pos     map[int]int
	// scalars: slot register per scalar-operand node, or reload symbol
	// for overflow values fetched inside the loop (the LFK8 effect).
	slotOf   map[int]isa.Reg
	reloadOf map[int]string
	// vector register state.
	regOwner map[int]*vectorize.Node // reg number -> node
	nodeReg  map[int]isa.Reg         // node id -> register
	spilled  map[int]string          // node id -> spill symbol
	reserved map[int]bool            // accumulator registers
	pinned   map[int]bool            // operands of the instruction in flight
	accReg   []isa.Reg               // per reduction
	rrNext   int                     // round-robin allocation pointer
	curVS    int64
	emitted  map[int]bool
}

const revolvingSlot = 6 // s6 doubles as the in-loop reload register

// emitVectorLoop lowers a vectorized inner loop to a strip-mined vector
// loop in the style of the paper's LFK1 listing (§3.5).
func (g *gen) emitVectorLoop(res *vectorize.Result) error {
	v := &vloop{
		g:        g,
		res:      res,
		groups:   make(map[groupKey]*streamGroup),
		uses:     make(map[int]int),
		lastUse:  make(map[int]int),
		pos:      make(map[int]int),
		slotOf:   make(map[int]isa.Reg),
		reloadOf: make(map[int]string),
		regOwner: make(map[int]*vectorize.Node),
		nodeReg:  make(map[int]isa.Reg),
		spilled:  make(map[int]string),
		reserved: make(map[int]bool),
		pinned:   make(map[int]bool),
		emitted:  make(map[int]bool),
		curVS:    -1,
	}
	if err := v.plan(); err != nil {
		return err
	}
	return v.emit()
}

// isScalarNode reports whether a node broadcasts a loop-invariant scalar
// (no vector register needed).
func isScalarNode(n *vectorize.Node) bool {
	switch n.Kind {
	case vectorize.NConst, vectorize.NScalar:
		return true
	case vectorize.NBin:
		return isScalarNode(n.X) && isScalarNode(n.Y)
	case vectorize.NNeg:
		return isScalarNode(n.X)
	}
	return false
}

// plan assigns stream groups, scalar slots and the emission order.
func (v *vloop) plan() error {
	res := v.res
	// Stream groups in first-appearance order.
	groupRegs := []isa.Reg{isa.A(3), isa.A(4), isa.A(5), isa.A(6), isa.A(7)}
	var scalars []*vectorize.Node
	seenScalar := make(map[int]bool)
	for _, n := range res.Nodes {
		switch {
		case n.Kind == vectorize.NLoad || n.Kind == vectorize.NStore:
			key := groupOf(n.Aff)
			if _, ok := v.groups[key]; !ok {
				if len(v.groups) == len(groupRegs) {
					return fmt.Errorf("codegen: too many distinct memory stream groups (max %d)", len(groupRegs))
				}
				v.groups[key] = &streamGroup{
					strideElems: n.Aff.Stride,
					base:        n.Aff.Base,
					reg:         groupRegs[len(v.groups)],
				}
			}
		case isScalarNode(n) && !seenScalar[n.ID]:
			if v.usedAsOperand(n) {
				seenScalar[n.ID] = true
				scalars = append(scalars, n)
			}
		}
	}
	// Scalar slot assignment: values that must be register-resident first
	// (array-element broadcasts and invariant arithmetic have no simple
	// reload address), then constants and plain scalars.
	slots := v.g.opts.FPSlots
	var mustResident, mayReload []*vectorize.Node
	for _, n := range scalars {
		if reloadSym(v.g, n) == "" {
			mustResident = append(mustResident, n)
		} else {
			mayReload = append(mayReload, n)
		}
	}
	ordered := append(append([]*vectorize.Node{}, mustResident...), mayReload...)
	resident := slots
	if len(ordered) > slots {
		resident = revolvingSlot - 1 // s1..s5 stay resident, s6 revolves
	}
	if len(mustResident) > resident {
		return fmt.Errorf("codegen: too many loop-invariant scalar operands (%d need residency, %d slots)", len(mustResident), resident)
	}
	for i, n := range ordered {
		if i < resident {
			v.slotOf[n.ID] = isa.S(i + 1)
		} else {
			v.reloadOf[n.ID] = reloadSym(v.g, n)
		}
	}
	// Reduction accumulators reserve the highest vector registers.
	if len(res.Reductions) > 4 {
		return fmt.Errorf("codegen: too many reductions (%d)", len(res.Reductions))
	}
	for i := range res.Reductions {
		r := isa.V(isa.NumVRegs - 1 - i)
		v.reserved[r.N] = true
		v.accReg = append(v.accReg, r)
	}
	// Emission order: depth-first from each sink in statement order, with
	// the deeper subtree first (Sethi-Ullman). This keeps each load next
	// to its consumer, reproducing the chime structure of the paper's fc
	// listing for LFK1.
	var visit func(n *vectorize.Node)
	visited := make(map[int]bool)
	visit = func(n *vectorize.Node) {
		if visited[n.ID] || isScalarNode(n) {
			return
		}
		visited[n.ID] = true
		for _, a := range n.After {
			visit(a) // anti-dependence: the old value is read first
		}
		x, y := n.X, n.Y
		if x != nil && y != nil && nodeDepth(y) > nodeDepth(x) {
			x, y = y, x
		}
		if x != nil {
			visit(x)
		}
		if y != nil {
			visit(y)
		}
		v.pos[n.ID] = len(v.order)
		v.order = append(v.order, n)
	}
	for _, st := range res.Stores {
		visit(st)
	}
	for _, r := range res.Reductions {
		visit(r.Expr)
	}
	// Consumer counts for register freeing.
	note := func(op, consumer *vectorize.Node) {
		if op == nil || isScalarNode(op) {
			return
		}
		v.uses[op.ID]++
		if p, ok := v.pos[consumer.ID]; ok && p > v.lastUse[op.ID] {
			v.lastUse[op.ID] = p
		}
	}
	for _, n := range v.order {
		note(n.X, n)
		note(n.Y, n)
	}
	for _, r := range res.Reductions {
		v.uses[r.Expr.ID]++
		v.lastUse[r.Expr.ID] = len(v.order) + 1
	}
	return nil
}

// usedAsOperand reports whether a scalar node feeds a vector operation
// (pure scalar subtrees of larger scalar nodes do not need their own slot).
func (v *vloop) usedAsOperand(n *vectorize.Node) bool {
	for _, m := range v.res.Nodes {
		for _, op := range []*vectorize.Node{m.X, m.Y} {
			if op == n && !isScalarNode(m) {
				return true
			}
		}
	}
	for _, r := range v.res.Reductions {
		if r.Expr == n {
			return true
		}
	}
	return false
}

// reloadSym returns the memory symbol a scalar-operand node can be
// reloaded from inside the loop, or "" when it has none.
func reloadSym(g *gen, n *vectorize.Node) string {
	switch n.Kind {
	case vectorize.NConst:
		return g.floatConst(n.Value)
	case vectorize.NScalar:
		if len(n.Scalar.Indices) == 0 {
			return SymName(n.Scalar.Name)
		}
	}
	return ""
}

func (v *vloop) emit() error {
	g := v.g
	ints := newPool(isa.A(0), isa.A(1), isa.A(2))
	res := v.res

	// Trip count: (hi - lo + step) / step, in s0 and a scratch slot.
	lo, hi := res.Loop.Lo, res.Loop.Hi
	step := ftn.Num{Val: float64(res.Step), IsInt: true}
	countExpr := ftn.Bin{Op: '/', L: ftn.Bin{Op: '+', L: ftn.Bin{Op: '-', L: hi, R: lo}, R: step}, R: step}
	rc, err := g.evalInt(countExpr, ints)
	if err != nil {
		return err
	}
	cntSym := g.scratchSym("vcnt", 8)
	g.emit(isa.Instr{Op: isa.OpSt, Suffix: isa.SufL, Ops: []isa.Operand{isa.RegOp(rc), isa.MemOp(cntSym, 0, isa.NoReg())}})
	g.emit(isa.Instr{Op: isa.OpMov, Ops: []isa.Operand{isa.RegOp(rc), isa.RegOp(isa.S(0))}})
	ints.put(rc)
	end := g.freshLabel("VE")
	top := g.freshLabel("VL")
	g.emit(isa.Instr{Op: isa.OpLt, Suffix: isa.SufW, Ops: []isa.Operand{isa.ImmOp(0), isa.RegOp(isa.S(0))}})
	g.emit(isa.Instr{Op: isa.OpJbrs, Suffix: isa.SufF, Ops: []isa.Operand{isa.LabelOp(end)}})

	// Prologue: invariant scalars into their slots.
	if err := v.emitScalarSlots(ints); err != nil {
		return err
	}
	// Stream base registers: 8 * eval(base).
	for _, grp := range v.groupsInOrder() {
		if grp.base == nil {
			g.emit(isa.Instr{Op: isa.OpMov, Ops: []isa.Operand{isa.ImmOp(0), isa.RegOp(grp.reg)}})
			continue
		}
		r, err := g.evalInt(grp.base, ints)
		if err != nil {
			return err
		}
		g.emit(isa.Instr{Op: isa.OpMul, Suffix: isa.SufW, Ops: []isa.Operand{isa.RegOp(r), isa.ImmOp(8), isa.RegOp(r)}})
		g.emit(isa.Instr{Op: isa.OpMov, Ops: []isa.Operand{isa.RegOp(r), isa.RegOp(grp.reg)}})
		ints.put(r)
	}
	// Reduction accumulators cleared from the zero vector. VL is set to
	// min(count, VLMax) — the hardware clamp on "mov s0,vl" — so short
	// loops do not pay for 128-element clears and sums.
	if len(res.Reductions) > 0 {
		g.emit(isa.Instr{Op: isa.OpMov, Ops: []isa.Operand{isa.RegOp(isa.S(0)), isa.RegOp(isa.VL())}})
		v.setVS(8)
		for i := range res.Reductions {
			g.emit(isa.Instr{Op: isa.OpLd, Suffix: isa.SufL, Ops: []isa.Operand{isa.MemOp(g.zerosSym(), 0, isa.NoReg()), isa.RegOp(v.accReg[i])}})
		}
	}

	// Strip loop. VS is unknown at the loop head (the back edge arrives
	// with whatever stride the last memory operation used), so the first
	// memory operation of the body must re-establish it.
	g.placeLabel(top)
	v.curVS = -1
	g.emit(isa.Instr{Op: isa.OpMov, Ops: []isa.Operand{isa.RegOp(isa.S(0)), isa.RegOp(isa.VL())}})
	for _, st := range res.Stores {
		if _, err := v.emitNode(st); err != nil {
			return err
		}
	}
	for i, r := range res.Reductions {
		op, err := v.emitNode(r.Expr)
		if err != nil {
			return err
		}
		g.emit(isa.Instr{Op: isa.OpAdd, Suffix: isa.SufD, Ops: []isa.Operand{op, isa.RegOp(v.accReg[i]), isa.RegOp(v.accReg[i])}})
		v.release(r.Expr)
	}
	// Advance stream bases, decrement the count, loop.
	for _, grp := range v.groupsInOrder() {
		adv := 8 * grp.strideElems * int64(g.opts.VL)
		g.emit(isa.Instr{Op: isa.OpAdd, Suffix: isa.SufW, Ops: []isa.Operand{isa.ImmOp(adv), isa.RegOp(grp.reg)}})
	}
	g.emit(isa.Instr{Op: isa.OpSub, Suffix: isa.SufW, Ops: []isa.Operand{isa.ImmOp(int64(g.opts.VL)), isa.RegOp(isa.S(0))}})
	g.emit(isa.Instr{Op: isa.OpLt, Suffix: isa.SufW, Ops: []isa.Operand{isa.ImmOp(0), isa.RegOp(isa.S(0))}})
	g.emit(isa.Instr{Op: isa.OpJbrs, Suffix: isa.SufT, Ops: []isa.Operand{isa.LabelOp(top)}})

	// Epilogue: fold reductions into their targets and update secondary
	// induction variables.
	if len(res.Reductions) > 0 {
		// Final sums run at VL = min(count, VLMax): full strips filled all
		// VLMax partial slots, shorter totals touched only the first ones.
		rv, err := ints.get()
		if err != nil {
			return err
		}
		g.emit(isa.Instr{Op: isa.OpLd, Suffix: isa.SufL, Ops: []isa.Operand{isa.MemOp(cntSym, 0, isa.NoReg()), isa.RegOp(rv)}})
		g.emit(isa.Instr{Op: isa.OpMov, Ops: []isa.Operand{isa.RegOp(rv), isa.RegOp(isa.VL())}})
		ints.put(rv)
	}
	for i, r := range res.Reductions {
		g.emit(isa.Instr{Op: isa.OpSum, Suffix: isa.SufD, Ops: []isa.Operand{isa.RegOp(v.accReg[i]), isa.RegOp(isa.S(7))}})
		mem, err := g.lhsAddr(r.Target, ints)
		if err != nil {
			return err
		}
		g.emit(isa.Instr{Op: isa.OpLd, Suffix: isa.SufL, Ops: []isa.Operand{mem, isa.RegOp(isa.S(6))}})
		op := isa.OpAdd
		if r.Op == '-' {
			op = isa.OpSub
		}
		g.emit(isa.Instr{Op: op, Suffix: isa.SufD, Ops: []isa.Operand{isa.RegOp(isa.S(6)), isa.RegOp(isa.S(7)), isa.RegOp(isa.S(6))}})
		g.emit(isa.Instr{Op: isa.OpSt, Suffix: isa.SufL, Ops: []isa.Operand{isa.RegOp(isa.S(6)), mem}})
		if mem.Base.Class == isa.ClassA {
			ints.put(mem.Base)
		}
	}
	for _, si := range res.SecInds {
		ra, err := ints.get()
		if err != nil {
			return err
		}
		rb, err := ints.get()
		if err != nil {
			return err
		}
		varSym := SymName(si.Var)
		g.emit(isa.Instr{Op: isa.OpLd, Suffix: isa.SufL, Ops: []isa.Operand{isa.MemOp(varSym, 0, isa.NoReg()), isa.RegOp(ra)}})
		g.emit(isa.Instr{Op: isa.OpLd, Suffix: isa.SufL, Ops: []isa.Operand{isa.MemOp(cntSym, 0, isa.NoReg()), isa.RegOp(rb)}})
		if si.Inc != 1 {
			g.emit(isa.Instr{Op: isa.OpMul, Suffix: isa.SufW, Ops: []isa.Operand{isa.RegOp(rb), isa.ImmOp(si.Inc), isa.RegOp(rb)}})
		}
		g.emit(isa.Instr{Op: isa.OpAdd, Suffix: isa.SufW, Ops: []isa.Operand{isa.RegOp(ra), isa.RegOp(rb), isa.RegOp(ra)}})
		g.emit(isa.Instr{Op: isa.OpSt, Suffix: isa.SufL, Ops: []isa.Operand{isa.RegOp(ra), isa.MemOp(varSym, 0, isa.NoReg())}})
		ints.put(ra)
		ints.put(rb)
	}
	g.placeLabel(end)
	g.emit(isa.Instr{Op: isa.OpNop})
	return nil
}

// groupsInOrder returns stream groups by register number (stable).
func (v *vloop) groupsInOrder() []*streamGroup {
	out := make([]*streamGroup, 0, len(v.groups))
	for n := 3; n <= 7; n++ {
		for _, grp := range v.groups {
			if grp.reg == isa.A(n) {
				out = append(out, grp)
			}
		}
	}
	return out
}

// emitScalarSlots loads the loop's invariant scalar operands into their
// s-register slots.
func (v *vloop) emitScalarSlots(ints *regPool) error {
	g := v.g
	for _, n := range v.res.Nodes {
		slot, ok := v.slotOf[n.ID]
		if !ok {
			continue
		}
		switch n.Kind {
		case vectorize.NConst:
			g.emit(isa.Instr{Op: isa.OpLd, Suffix: isa.SufL, Ops: []isa.Operand{isa.MemOp(g.floatConst(n.Value), 0, isa.NoReg()), isa.RegOp(slot)}})
		case vectorize.NScalar:
			if len(n.Scalar.Indices) == 0 {
				g.emit(isa.Instr{Op: isa.OpLd, Suffix: isa.SufL, Ops: []isa.Operand{isa.MemOp(SymName(n.Scalar.Name), 0, isa.NoReg()), isa.RegOp(slot)}})
				continue
			}
			d, _ := g.prog.Decl(n.Scalar.Name)
			off, err := g.elementOffset(d, n.Scalar.Indices, ints)
			if err != nil {
				return err
			}
			g.emit(isa.Instr{Op: isa.OpLd, Suffix: isa.SufL, Ops: []isa.Operand{isa.MemOp(SymName(n.Scalar.Name), 0, off), isa.RegOp(slot)}})
			ints.put(off)
		default:
			// Invariant arithmetic: evaluate with scalar scratch and move
			// into the slot.
			if n.Src == nil {
				return fmt.Errorf("codegen: invariant node without source expression")
			}
			fps := newPool(isa.S(7), isa.S(6))
			r, err := g.evalFloat(n.Src, fps, ints)
			if err != nil {
				return err
			}
			g.emit(isa.Instr{Op: isa.OpMov, Suffix: isa.SufD, Ops: []isa.Operand{isa.RegOp(r), isa.RegOp(slot)}})
			fps.put(r)
		}
	}
	return nil
}

// setVS switches the vector stride register when needed.
func (v *vloop) setVS(bytes int64) {
	if v.curVS == bytes {
		return
	}
	v.g.emit(isa.Instr{Op: isa.OpMov, Ops: []isa.Operand{isa.ImmOp(bytes), isa.RegOp(isa.VS())}})
	v.curVS = bytes
}

// scalarOperand returns the operand for a broadcast scalar node, emitting
// an in-loop reload when the value has no resident slot.
func (v *vloop) scalarOperand(n *vectorize.Node) (isa.Operand, error) {
	if slot, ok := v.slotOf[n.ID]; ok {
		return isa.RegOp(slot), nil
	}
	if sym, ok := v.reloadOf[n.ID]; ok {
		reload := isa.S(revolvingSlot)
		v.g.emit(isa.Instr{Op: isa.OpLd, Suffix: isa.SufL, Ops: []isa.Operand{isa.MemOp(sym, 0, isa.NoReg()), isa.RegOp(reload)}})
		return isa.RegOp(reload), nil
	}
	return isa.Operand{}, fmt.Errorf("codegen: scalar node %s has no slot", n)
}

// memOperand builds the memory operand of a load/store node.
func (v *vloop) memOperand(n *vectorize.Node) isa.Operand {
	grp := v.groups[groupOf(n.Aff)]
	return isa.MemOp(SymName(n.Array), 8*n.Aff.Const, grp.reg)
}

// nodeDepth is the height of a node's vector subtree (scalar broadcasts
// are free).
func nodeDepth(n *vectorize.Node) int {
	if n == nil || isScalarNode(n) {
		return 0
	}
	d := 1
	if x := nodeDepth(n.X); x+1 > d {
		d = x + 1
	}
	if y := nodeDepth(n.Y); y+1 > d {
		d = y + 1
	}
	return d
}

// allocReg finds a vector register for a node round-robin (like the fc
// compiler: a fresh register for each result, which keeps register-pair
// references per chime within the hardware limits), spilling the live
// value with the farthest next use when none is free.
func (v *vloop) allocReg(n *vectorize.Node) (isa.Reg, error) {
	for k := 0; k < isa.NumVRegs; k++ {
		r := (v.rrNext + k) % isa.NumVRegs
		if v.reserved[r] {
			continue
		}
		if _, busy := v.regOwner[r]; !busy {
			v.rrNext = (r + 1) % isa.NumVRegs
			v.regOwner[r] = n
			v.nodeReg[n.ID] = isa.V(r)
			return isa.V(r), nil
		}
	}
	// Spill the victim with the farthest last use, never a pinned operand
	// of the instruction being emitted.
	victimReg := -1
	far := -1
	for r, owner := range v.regOwner {
		if v.reserved[r] || v.pinned[owner.ID] {
			continue
		}
		if lu := v.lastUse[owner.ID]; lu > far {
			far = lu
			victimReg = r
		}
	}
	if victimReg < 0 {
		return isa.Reg{}, fmt.Errorf("codegen: no spillable vector register")
	}
	victim := v.regOwner[victimReg]
	sym := v.g.scratchSym(fmt.Sprintf("spill%d", victim.ID), int64(isa.VLMax)*8)
	v.setVS(8)
	v.g.emit(isa.Instr{Op: isa.OpSt, Suffix: isa.SufL, Ops: []isa.Operand{isa.RegOp(isa.V(victimReg)), isa.MemOp(sym, 0, isa.NoReg())}})
	v.spilled[victim.ID] = sym
	delete(v.nodeReg, victim.ID)
	v.regOwner[victimReg] = n
	v.nodeReg[n.ID] = isa.V(victimReg)
	return isa.V(victimReg), nil
}

// release decrements a node's pending uses, freeing its register after
// the last consumer.
func (v *vloop) release(n *vectorize.Node) {
	if n == nil || isScalarNode(n) {
		return
	}
	v.uses[n.ID]--
	if v.uses[n.ID] > 0 {
		return
	}
	if r, ok := v.nodeReg[n.ID]; ok {
		delete(v.regOwner, r.N)
		delete(v.nodeReg, n.ID)
	}
}

// nodeOperand materializes a node as an instruction operand: its vector
// register (reloading spills) or its scalar slot.
func (v *vloop) nodeOperand(n *vectorize.Node) (isa.Operand, error) {
	if isScalarNode(n) {
		return v.scalarOperand(n)
	}
	if r, ok := v.nodeReg[n.ID]; ok {
		return isa.RegOp(r), nil
	}
	if sym, ok := v.spilled[n.ID]; ok {
		r, err := v.allocReg(n)
		if err != nil {
			return isa.Operand{}, err
		}
		v.setVS(8)
		v.g.emit(isa.Instr{Op: isa.OpLd, Suffix: isa.SufL, Ops: []isa.Operand{isa.MemOp(sym, 0, isa.NoReg()), isa.RegOp(r)}})
		return isa.RegOp(r), nil
	}
	return isa.Operand{}, fmt.Errorf("codegen: node %s not materialized", n)
}

// emitNode emits a node (once) and returns its operand.
func (v *vloop) emitNode(n *vectorize.Node) (isa.Operand, error) {
	if isScalarNode(n) {
		return v.scalarOperand(n)
	}
	if v.emitted[n.ID] {
		return v.nodeOperand(n)
	}
	v.emitted[n.ID] = true
	for _, a := range n.After {
		// Anti-dependence: loads of the location this store overwrites.
		if _, err := v.emitNode(a); err != nil {
			return isa.Operand{}, err
		}
	}
	switch n.Kind {
	case vectorize.NLoad:
		v.setVS(8 * n.Aff.Stride)
		mem := v.memOperand(n)
		r, err := v.allocReg(n)
		if err != nil {
			return isa.Operand{}, err
		}
		v.g.emit(isa.Instr{Op: isa.OpLd, Suffix: isa.SufL, Ops: []isa.Operand{mem, isa.RegOp(r)}})
		return isa.RegOp(r), nil
	case vectorize.NStore:
		if isScalarNode(n.X) {
			// Storing a broadcast scalar: materialize it in a register.
			src, err := v.scalarOperand(n.X)
			if err != nil {
				return isa.Operand{}, err
			}
			r, err := v.allocReg(n)
			if err != nil {
				return isa.Operand{}, err
			}
			v.g.emit(isa.Instr{Op: isa.OpMov, Suffix: isa.SufD, Ops: []isa.Operand{src, isa.RegOp(r)}})
			v.setVS(8 * n.Aff.Stride)
			v.g.emit(isa.Instr{Op: isa.OpSt, Suffix: isa.SufL, Ops: []isa.Operand{isa.RegOp(r), v.memOperand(n)}})
			v.release(n) // frees the temporary register (no consumers)
			delete(v.regOwner, r.N)
			delete(v.nodeReg, n.ID)
			return isa.Operand{}, nil
		}
		if _, err := v.emitNode(n.X); err != nil {
			return isa.Operand{}, err
		}
		// Refresh the operand in case emitting other nodes spilled it.
		val, err := v.nodeOperand(n.X)
		if err != nil {
			return isa.Operand{}, err
		}
		v.setVS(8 * n.Aff.Stride)
		v.g.emit(isa.Instr{Op: isa.OpSt, Suffix: isa.SufL, Ops: []isa.Operand{val, v.memOperand(n)}})
		v.release(n.X)
		return isa.Operand{}, nil
	case vectorize.NNeg:
		if _, err := v.emitNode(n.X); err != nil {
			return isa.Operand{}, err
		}
		x, err := v.nodeOperand(n.X)
		if err != nil {
			return isa.Operand{}, err
		}
		v.release(n.X)
		r, err := v.allocReg(n)
		if err != nil {
			return isa.Operand{}, err
		}
		v.g.emit(isa.Instr{Op: isa.OpNeg, Suffix: isa.SufD, Ops: []isa.Operand{x, isa.RegOp(r)}})
		return isa.RegOp(r), nil
	case vectorize.NBin:
		// Emit vector subtrees deeper-first (matching the planned order);
		// scalar operands are fetched at use time so a reloaded value is
		// not clobbered by subtree emission.
		first, second := n.X, n.Y
		if nodeDepth(second) > nodeDepth(first) {
			first, second = second, first
		}
		if !isScalarNode(first) {
			if _, err := v.emitNode(first); err != nil {
				return isa.Operand{}, err
			}
		}
		if !isScalarNode(second) {
			if _, err := v.emitNode(second); err != nil {
				return isa.Operand{}, err
			}
		}
		v.pinned[n.X.ID], v.pinned[n.Y.ID] = true, true
		x, err := v.nodeOperand(n.X)
		if err != nil {
			return isa.Operand{}, err
		}
		y, err := v.nodeOperand(n.Y)
		if err != nil {
			return isa.Operand{}, err
		}
		delete(v.pinned, n.X.ID)
		delete(v.pinned, n.Y.ID)
		if isScalarNode(n.X) && isScalarNode(n.Y) {
			return isa.Operand{}, fmt.Errorf("codegen: both operands of a vector op are scalar")
		}
		if x.Kind == isa.KindReg && y.Kind == isa.KindReg &&
			x.Reg == isa.S(revolvingSlot) && y.Reg == isa.S(revolvingSlot) {
			return isa.Operand{}, fmt.Errorf("codegen: two reloaded scalars in one vector op")
		}
		v.release(n.X)
		v.release(n.Y)
		r, err := v.allocReg(n)
		if err != nil {
			return isa.Operand{}, err
		}
		op, err := binOp(n.Op)
		if err != nil {
			return isa.Operand{}, err
		}
		v.g.emit(isa.Instr{Op: op, Suffix: isa.SufD, Ops: []isa.Operand{x, y, isa.RegOp(r)}})
		return isa.RegOp(r), nil
	}
	return isa.Operand{}, fmt.Errorf("codegen: cannot emit node %s", n)
}
