package verify

import (
	"fmt"

	"macs/internal/asm"
	"macs/internal/depgraph"
	"macs/internal/isa"
)

// The dataflow pass runs a forward must-defined analysis with constant
// propagation over the program's control flow graph. Lattice per register:
// (defined, known constant). At joins both degrade monotonically
// (defined: AND, constant: equal-or-unknown), so the fixpoint iteration
// terminates and a register is only reported used-before-defined when some
// path from the entry reaches the use without an assignment.
//
// The propagated constants feed the static memory-bounds check (absolute
// operands and bases with known values, vector streams over their whole
// VL×VS span with VL clamped to the hardware maximum like the machine
// does) and the bank-conflict stride warning.

// Register slots: a0-7, s0-7, v0-7, vl, vs, and the scalar comparison
// flag T (written by compares, read by jbrs).
const (
	slotA   = 0
	slotS   = 8
	slotV   = 16
	slotVL  = 24
	slotVS  = 25
	slotT   = 26
	numSlot = 27
)

func regSlot(r isa.Reg) int {
	switch r.Class {
	case isa.ClassA:
		if r.N >= 0 && r.N < isa.NumARegs {
			return slotA + r.N
		}
	case isa.ClassS:
		if r.N >= 0 && r.N < isa.NumSRegs {
			return slotS + r.N
		}
	case isa.ClassV:
		if r.N >= 0 && r.N < isa.NumVRegs {
			return slotV + r.N
		}
	case isa.ClassVL:
		return slotVL
	case isa.ClassVS:
		return slotVS
	}
	return -1
}

// absVal is one register's abstract state.
type absVal struct {
	def   bool // definitely assigned on every path from entry
	known bool // constant value known
	c     int64
}

type state [numSlot]absVal

// merge joins two states (path intersection). changed reports whether dst
// degraded.
func (dst *state) merge(src *state) (changed bool) {
	for i := range dst {
		d, s := dst[i], src[i]
		n := absVal{
			def:   d.def && s.def,
			known: d.known && s.known && d.c == s.c,
		}
		if n.known {
			n.c = d.c
		}
		if n != d {
			dst[i] = n
			changed = true
		}
	}
	return changed
}

// block is one basic block [start, end) with successor block indices.
type block struct {
	start, end int
	succs      []int
}

// buildCFG partitions the program into basic blocks. entry is the block
// started by the load entry point (label "main" if present, else 0).
func buildCFG(p *asm.Program) (blocks []block, entry int) {
	n := len(p.Instrs)
	entryPC := 0
	if idx, ok := p.Labels["main"]; ok && idx >= 0 && idx < n {
		entryPC = idx
	}
	leader := make([]bool, n+1)
	leader[0] = true
	leader[entryPC] = true
	for i, in := range p.Instrs {
		if in.IsBranch() {
			if i+1 <= n {
				leader[i+1] = true
			}
			if t, ok := branchTarget(p, in); ok && t < n {
				leader[t] = true
			}
		}
		if in.Op == isa.OpHalt && i+1 <= n {
			leader[i+1] = true
		}
	}
	startOf := make(map[int]int) // instr index -> block index
	for i := 0; i < n; i++ {
		if leader[i] {
			startOf[i] = len(blocks)
			blocks = append(blocks, block{start: i})
		}
	}
	for bi := range blocks {
		end := n
		if bi+1 < len(blocks) {
			end = blocks[bi+1].start
		}
		blocks[bi].end = end
		if end == blocks[bi].start {
			continue
		}
		last := p.Instrs[end-1]
		switch {
		case last.Op == isa.OpHalt:
			// No successors.
		case last.IsBranch():
			if t, ok := branchTarget(p, last); ok && t < n {
				blocks[bi].succs = append(blocks[bi].succs, startOf[t])
			}
			if last.Op == isa.OpJbrs && end < n {
				blocks[bi].succs = append(blocks[bi].succs, startOf[end])
			}
		default:
			if end < n {
				blocks[bi].succs = append(blocks[bi].succs, startOf[end])
			}
		}
	}
	return blocks, startOf[entryPC]
}

// feasibleSuccs filters a block's successors through the folded T flag:
// a conditional branch whose condition is a propagated constant only
// reaches the branch side the machine would actually take, so registers
// assigned on the taken side are not reported as use-before-def via the
// impossible side. Blocks only reachable through pruned edges surface as
// "unreachable code".
func feasibleSuccs(p *asm.Program, b block, st *state) []int {
	if b.end == b.start || len(b.succs) != 2 {
		return b.succs
	}
	last := p.Instrs[b.end-1]
	if last.Op != isa.OpJbrs {
		return b.succs
	}
	t := st[slotT]
	if !t.def || !t.known {
		return b.succs
	}
	take := t.c != 0
	if last.Suffix == isa.SufF {
		take = !take
	}
	// succs order from buildCFG: [branch target, fallthrough].
	if take {
		return b.succs[:1]
	}
	return b.succs[1:]
}

func branchTarget(p *asm.Program, in isa.Instr) (int, bool) {
	for _, o := range in.Ops {
		if o.Kind == isa.KindLabel {
			t, ok := p.Labels[o.Label]
			return t, ok && t >= 0
		}
	}
	return 0, false
}

// dataflow runs the fixpoint iteration, then a reporting pass over the
// converged block-entry states.
func dataflow(p *asm.Program) []Diagnostic {
	if len(p.Instrs) == 0 {
		return nil
	}
	blocks, entry := buildCFG(p)
	in := make([]state, len(blocks))
	seen := make([]bool, len(blocks))
	seen[entry] = true

	work := []int{entry}
	for len(work) > 0 {
		bi := work[0]
		work = work[1:]
		st := in[bi]
		for i := blocks[bi].start; i < blocks[bi].end; i++ {
			step(&st, p.Instrs[i])
		}
		for _, si := range feasibleSuccs(p, blocks[bi], &st) {
			if !seen[si] {
				seen[si] = true
				in[si] = st
				work = append(work, si)
				continue
			}
			if in[si].merge(&st) {
				work = append(work, si)
			}
		}
	}

	var ds []Diagnostic
	rep := func(sev Severity, idx int, format string, args ...any) {
		ds = append(ds, Diagnostic{sev, idx, fmt.Sprintf(format, args...)})
	}
	// The interval analysis generalizes the const-prop above to value
	// ranges, deciding memory accesses whose addresses are loop-variant
	// but statically bounded (symbolic trip counts).
	iv := depgraph.Intervals(p)
	for bi, b := range blocks {
		if !seen[bi] {
			if b.end > b.start {
				rep(SevInfo, b.start, "unreachable code")
			}
			continue
		}
		st := in[bi]
		for i := b.start; i < b.end; i++ {
			inst := p.Instrs[i]
			reportUses(&st, inst, i, rep)
			checkMem(&st, iv, p, inst, i, rep)
			step(&st, inst)
		}
	}
	return ds
}

// reportUses flags reads of never-assigned registers, including the
// implicit VL/VS reads of vector instructions.
func reportUses(st *state, in isa.Instr, idx int, rep func(Severity, int, string, ...any)) {
	reported := [numSlot]bool{}
	var regs [8]isa.Reg
	for _, r := range in.AppendSources(regs[:0]) {
		s := regSlot(r)
		if s < 0 || st[s].def || reported[s] {
			continue
		}
		reported[s] = true
		switch r.Class {
		case isa.ClassVL:
			rep(SevError, idx, "vector instruction before vl is set")
		case isa.ClassVS:
			rep(SevError, idx, "vector memory access before vs is set")
		default:
			rep(SevError, idx, "use of %s before definition", r)
		}
	}
	if in.IsVector() {
		if vl := st[slotVL]; vl.def && vl.known && vl.c == 0 {
			rep(SevInfo, idx, "vector instruction with vl=0 is a no-op")
		}
	}
}

// step applies one instruction's effect on the abstract state.
func step(st *state, in isa.Instr) {
	if isCompareOp(in.Op) && !in.IsVector() {
		// Fold the compare into the T flag so constant branch conditions
		// prune infeasible paths (a compare the VM folds but the checker
		// skipped used to merge impossible paths and report registers
		// defined on every feasible path as use-before-def).
		st[slotT] = compareVal(st, in)
		return
	}
	dst, hasDst := in.Dst()
	if !hasDst {
		return
	}
	s := regSlot(dst)
	if s < 0 {
		return
	}
	nv := absVal{def: true}
	switch {
	case in.Op == isa.OpMov && len(in.Ops) == 2:
		nv = operandVal(st, in.Ops[0])
		nv.def = true
	case in.Op == isa.OpLd:
		// Loaded values are runtime data: defined, unknown.
	case isScalarIntALU(in):
		nv = intALUVal(st, in)
	}
	if s == slotVL && nv.known {
		// The machine clamps VL writes to [0, VLMax].
		if nv.c < 0 {
			nv.c = 0
		}
		if nv.c > int64(isa.VLMax) {
			nv.c = int64(isa.VLMax)
		}
	}
	st[s] = nv
}

func isCompareOp(op isa.Op) bool {
	switch op {
	case isa.OpLe, isa.OpLt, isa.OpGt, isa.OpGe, isa.OpEq, isa.OpNe:
		return true
	}
	return false
}

// compareVal mirrors the VM's scalarCompare in the abstract domain:
// T = Ops[0] OP Ops[1]. Floating-point compares depend on runtime data
// and leave T defined-but-unknown.
func compareVal(st *state, in isa.Instr) absVal {
	out := absVal{def: true}
	if in.Suffix == isa.SufD || in.Suffix == isa.SufS || len(in.Ops) != 2 {
		return out
	}
	x := operandVal(st, in.Ops[0])
	y := operandVal(st, in.Ops[1])
	if !x.known || !y.known {
		return out
	}
	var tf bool
	switch in.Op {
	case isa.OpLe:
		tf = x.c <= y.c
	case isa.OpLt:
		tf = x.c < y.c
	case isa.OpGt:
		tf = x.c > y.c
	case isa.OpGe:
		tf = x.c >= y.c
	case isa.OpEq:
		tf = x.c == y.c
	case isa.OpNe:
		tf = x.c != y.c
	}
	out.known = true
	if tf {
		out.c = 1
	}
	return out
}

func isScalarIntALU(in isa.Instr) bool {
	if in.IsVector() || in.Suffix == isa.SufD || in.Suffix == isa.SufS {
		return false
	}
	switch in.Op {
	case isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpDiv, isa.OpNeg, isa.OpAnd, isa.OpOr, isa.OpShf:
		return len(in.Ops) == 2 || len(in.Ops) == 3
	}
	return false
}

// operandVal evaluates an operand in the abstract domain.
func operandVal(st *state, o isa.Operand) absVal {
	switch o.Kind {
	case isa.KindImm:
		return absVal{def: true, known: true, c: o.Imm}
	case isa.KindReg:
		if s := regSlot(o.Reg); s >= 0 {
			return st[s]
		}
	}
	return absVal{}
}

// intALUVal mirrors the VM's integer ALU: two-operand form is
// dst = dst OP src, three-operand form is dst = op1 OP op2.
func intALUVal(st *state, in isa.Instr) absVal {
	out := absVal{def: true}
	var x, y absVal
	dst := in.Ops[len(in.Ops)-1]
	if len(in.Ops) == 2 {
		if in.Op == isa.OpNeg {
			x = operandVal(st, in.Ops[0])
			if x.known {
				out.known, out.c = true, -x.c
			}
			return out
		}
		x = operandVal(st, dst)
		y = operandVal(st, in.Ops[0])
	} else {
		x = operandVal(st, in.Ops[0])
		y = operandVal(st, in.Ops[1])
	}
	if !x.known || !y.known {
		return out
	}
	switch in.Op {
	case isa.OpAdd:
		out.known, out.c = true, x.c+y.c
	case isa.OpSub:
		out.known, out.c = true, x.c-y.c
	case isa.OpMul:
		out.known, out.c = true, x.c*y.c
	case isa.OpDiv:
		if y.c != 0 {
			out.known, out.c = true, x.c/y.c
		}
	case isa.OpAnd:
		out.known, out.c = true, x.c&y.c
	case isa.OpOr:
		out.known, out.c = true, x.c|y.c
	case isa.OpShf:
		if y.c >= 0 {
			out.known, out.c = true, x.c<<uint(y.c&63)
		} else {
			out.known, out.c = true, x.c>>uint((-y.c)&63)
		}
	}
	return out
}

// checkMem statically bounds-checks memory operands whose effective
// address is resolvable — exactly (no base register, or a base with a
// propagated constant) or as a bounded interval from the value-range
// analysis — and warns about bank-conflict strides on vector streams.
func checkMem(st *state, iv *depgraph.IntervalResult, p *asm.Program, in isa.Instr, idx int, rep func(Severity, int, string, ...any)) {
	if !in.IsMemory() {
		return
	}
	vector := in.IsVector()
	for _, o := range in.Ops {
		if o.Kind != isa.KindMem || o.Sym == "" {
			continue
		}
		d, ok := p.FindData(o.Sym)
		if !ok {
			continue // structural pass reports the undefined symbol
		}
		off, offKnown := o.Disp, true
		if o.Base.Class == isa.ClassA {
			b := st[regSlot(o.Base)]
			if b.known {
				off += b.c
			} else {
				offKnown = false
			}
		}
		if !vector {
			if offKnown && (off < 0 || off+isa.WordBytes > d.Size) {
				rep(SevError, idx, "scalar access at %s%+d is out of bounds (%s is %d bytes)",
					o.Sym, off, o.Sym, d.Size)
			}
			if !offKnown {
				checkMemInterval(iv, in, o, d.Size, idx, rep)
			}
			continue
		}
		vl, vs := st[slotVL], st[slotVS]
		count := int64(isa.VLMax) // the machine clamps VL to VLMax
		if vl.known {
			count = vl.c
		}
		if vs.known && count > 1 && vs.c%(isa.WordBytes*isa.MemBanks) == 0 {
			rep(SevWarning, idx,
				"stride %d bytes ≡ 0 mod %d banks: every element hits the same memory bank (%d-cycle bank busy serializes the stream)",
				vs.c, isa.MemBanks, isa.BankCycle)
		}
		if !offKnown || !vs.known || count <= 0 {
			if !(offKnown && vs.known) {
				checkMemInterval(iv, in, o, d.Size, idx, rep)
			}
			continue
		}
		lo, hi := off, off
		last := off + (count-1)*vs.c
		if last < lo {
			lo = last
		}
		if last > hi {
			hi = last
		}
		hi += isa.WordBytes
		if lo < 0 || hi > d.Size {
			rep(SevError, idx,
				"vector %s spans [%d,%d) of %s (%d bytes): out of bounds for %d elements, stride %d",
				memVerb(in), lo, hi, o.Sym, d.Size, count, vs.c)
		}
	}
}

// checkMemInterval decides accesses the exact const-prop could not,
// using the effective-address (and, for vector streams, whole-span)
// interval from the value-range analysis. A bounded range wholly inside
// the symbol is silently proven in bounds — the upgrade from
// exact-const-only checking that handles loop-variant bases with
// symbolic trip counts. A bounded range that can exceed the symbol may
// be out of bounds on some admitted path (warning); one that cannot
// possibly be in bounds is an error. Unbounded ranges stay silent: an
// over-approximation cannot prove a violation.
func checkMemInterval(iv *depgraph.IntervalResult, in isa.Instr, o isa.Operand, size int64, idx int, rep func(Severity, int, string, ...any)) {
	off := depgraph.Point(o.Disp)
	if o.Base.Class == isa.ClassA {
		off = off.Add(iv.Reg(idx, o.Base))
	}
	span := off
	if in.IsVector() {
		count := iv.Reg(idx, isa.VL()).Meet(depgraph.Range(1, int64(isa.VLMax)))
		if count.Empty() {
			return // provably zero-length stream: no access at all
		}
		stride := iv.Reg(idx, isa.VS())
		last := off.Add(count.Sub(depgraph.Point(1)).Mul(stride))
		span = span.Join(last)
	}
	if !span.Bounded() {
		return
	}
	lo, hi := span.Lo, span.Hi+isa.WordBytes
	kind := "scalar"
	if in.IsVector() {
		kind = "vector"
	}
	switch {
	case lo >= 0 && hi <= size:
		// Statically proven in bounds.
	case span.Lo+isa.WordBytes > size || span.Hi < 0:
		rep(SevError, idx,
			"%s %s range [%d,%d) of %s (%d bytes): out of bounds for every admitted address",
			kind, memVerb(in), lo, hi, o.Sym, size)
	default:
		rep(SevWarning, idx,
			"%s %s range [%d,%d) of %s (%d bytes): may be out of bounds",
			kind, memVerb(in), lo, hi, o.Sym, size)
	}
}

func memVerb(in isa.Instr) string {
	if in.IsStore() {
		return "store"
	}
	return "load"
}
