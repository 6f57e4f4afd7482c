package vm

import (
	"fmt"
	"math"

	"macs/internal/isa"
	"macs/internal/mem"
)

// closeChime retires the forming chime: it fixes the gate time before
// which the next chime may not start streaming (the chime-synchronized
// serialization the paper's calibration loops observe) and bounds ASU
// runahead to one chime. split records whether the close was forced by
// the scalar-memory split rule, so gate waits behind this chime can be
// attributed to the split rather than ordinary chime serialization.
func (c *CPU) closeChime(split bool) {
	cur, ok := c.builder.Flush()
	if !ok {
		c.chimeMemStall = 0
		return
	}
	c.stats.Chimes++
	cost := cur.ZMax * float64(c.chimeVL)
	if c.cfg.Rules.Bubbles {
		cost += float64(cur.SumB)
	}
	c.prevGate = c.chimeStart + int64(math.Ceil(cost)) + c.chimeMemStall
	c.prevGateSplit = split
	if c.prevGate > c.maxEvent {
		c.maxEvent = c.prevGate
	}
	c.lastChimeStart = c.chimeStart
	if c.clock < c.lastChimeStart {
		// The ASU cannot run more than one chime ahead of the VP.
		c.clock = c.lastChimeStart
		cause := StallChimeSync
		if split {
			cause = StallChimeSplit
		}
		c.chargeStall(LaneASU, c.clock, cause)
	}
	c.chimeID++
	c.chimeMemStall = 0
	c.chimeVL = 0
}

// execVector dispatches one vector instruction: computes its stream timing
// under the chime model and executes it functionally.
func (c *CPU) execVector(in isa.Instr) error {
	t, ok := isa.VectorTiming(in.Op)
	if !ok {
		return fmt.Errorf("no vector form for %s", in.Op)
	}
	// Vector instructions reading vector-produced scalars wait for them.
	// regs is a stack buffer for the decoded operands (see
	// isa.Instr.AppendSources).
	var regs [8]isa.Reg
	for _, r := range in.AppendSources(regs[:0]) {
		if r.Class == isa.ClassS {
			c.waitScalar(r)
		}
	}
	c.clock += int64(c.cfg.DispatchLat)
	c.chargeIssue(LaneASU, c.clock)
	dispatchDone := c.clock

	vl := c.vl
	if vl <= 0 {
		// A zero-length vector instruction is a no-op taking only its
		// startup overhead.
		c.clock += int64(t.X)
		c.chargeStall(LaneASU, c.clock, StallStartup)
		return nil
	}

	if !c.builder.Fits(in) {
		c.closeChime(false)
	}
	newChime := c.builder.Empty()
	c.builder.Add(in)
	if vl > c.chimeVL {
		c.chimeVL = vl
	}

	// Stream entry time S, with each constraint kept as an attribution
	// checkpoint: after S is fixed, the pipe's wait [frontier, S] is
	// attributed chronologically across the checkpoints in ascending
	// order, so each cause is charged exactly the span it was binding
	// beyond all earlier constraints (no double counting, exact
	// conservation).
	type waitPoint struct {
		t     int64
		cause StallCause
	}
	var wbuf [6]waitPoint
	waits := wbuf[:0]

	// The tailgating bubble applies only when the instruction actually
	// follows another down the same pipe.
	s := dispatchDone + int64(t.X)
	waits = append(waits,
		waitPoint{dispatchDone, StallScalar},
		waitPoint{s, StallStartup})
	pipe := in.Pipe()
	lane := int(pipe)
	pf := c.pipeFree[pipe]
	if c.cfg.Rules.Bubbles && c.pipeUsed[pipe] {
		pf += int64(t.B)
		waits = append(waits, waitPoint{pf, StallBubble})
	}
	if pf > s {
		s = pf
	}
	c.pipeUsed[pipe] = true
	gateCause := StallChimeSync
	if c.prevGateSplit {
		gateCause = StallChimeSplit
	}
	if newChime {
		waits = append(waits, waitPoint{c.prevGate, gateCause})
		if c.prevGate > s {
			s = c.prevGate
		}
	} else {
		waits = append(waits, waitPoint{c.chimeStart, StallChimeSync})
		if c.chimeStart > s {
			s = c.chimeStart
		}
	}

	// Data dependences on vector registers.
	var chainT int64
	for _, r := range in.AppendVectorReads(regs[:0]) {
		w := c.vw[r.N]
		if !w.valid {
			continue
		}
		if w.chime == c.chimeID && c.cfg.Rules.Chaining {
			// Chaining: element k is consumed no earlier than the
			// producer writes it (Figure 2): S >= S_p + Y_p, plus a rate
			// correction when the producer streams slower.
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
			// Cross-chime (or unchained) consumers wait for completion.
			chainT = w.fin
			s = w.fin
		}
	}
	if chainT > 0 {
		waits = append(waits, waitPoint{chainT, StallChain})
	}
	// Write-after-write needs no explicit constraint: streams are issued
	// in order and the pipe input constraint keeps a later writer a full
	// stream behind an earlier same-pipe writer, which is exactly how the
	// paper's calibration loops reuse one register across iterations.

	// Memory port and stream stalls.
	var st memStall
	var stall int64
	var ea int64
	if in.IsMemory() {
		var err error
		ea, err = c.vectorEA(in)
		if err != nil {
			return err
		}
		if c.scalarPortFree > s {
			c.stats.PortConflicts++
		}
		waits = append(waits, waitPoint{c.scalarPortFree, StallPortArb})
		if c.scalarPortFree > s {
			s = c.scalarPortFree
		}
		st = c.memStreamStall(s, ea, vl)
		stall = st.total()
		c.chimeMemStall += stall
		c.stats.MemStalls += stall
	}

	// Attribute the pipe's pre-stream wait, then its streaming interval.
	// Stable insertion sort: waits holds at most six checkpoints, and the
	// sort.Slice closure forced the buffer to escape — a heap allocation
	// per vector instruction. Same comparison, same tie order.
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
		c.chargeStall(lane, wt, w.cause)
	}

	if newChime {
		c.chimeStart = s
	}

	streamIn := int64(math.Ceil(t.Z * float64(vl)))
	streamEnd := s + streamIn
	c.chargeIssue(lane, streamEnd)
	c.chargeStall(lane, streamEnd+st.bank, StallBankConflict)
	c.chargeStall(lane, streamEnd+st.bank+st.refresh, StallRefresh)
	c.chargeStall(lane, streamEnd+stall, StallContention)
	c.pipeFree[pipe] = s + streamIn + stall
	c.stats.PipeBusy[pipe] += streamIn + stall
	fin := s + int64(t.Y) + streamIn + stall
	if fin > c.maxEvent {
		c.maxEvent = fin
	}
	if in.IsMemory() && fin > c.vectorPortFree {
		c.vectorPortFree = fin
	}
	if d, ok := in.VectorWrite(); ok {
		c.vw[d.N] = vwriter{valid: true, chime: c.chimeID, start: s, y: t.Y, z: t.Z, fin: fin}
	}
	if in.Op == isa.OpSum {
		// Reduction result lands in a scalar register when the stream
		// drains.
		if d, ok := in.Dst(); ok && d.Class == isa.ClassS {
			c.sReady[d.N] = fin
		}
	}

	if c.cfg.Trace || c.ring != nil {
		ev := TraceEvent{
			Instr:       in,
			Chime:       c.chimeID + 1,
			Dispatch:    dispatchDone,
			Start:       s,
			FirstResult: s + int64(t.Y),
			Finish:      fin,
			Stall:       stall,
			VL:          vl,
		}
		if c.cfg.Trace {
			c.trace = append(c.trace, ev)
		} else {
			c.ring.push(ev)
		}
	}

	return c.execVectorFunc(in, vl, ea)
}

// vectorEA resolves the memory operand of a vector load or store.
func (c *CPU) vectorEA(in isa.Instr) (int64, error) {
	for _, o := range in.Ops {
		if o.Kind == isa.KindMem {
			return c.effAddr(o)
		}
	}
	return 0, fmt.Errorf("vector memory op without memory operand")
}

// memStall decomposes one vector stream's stall cycles by mechanism.
type memStall struct {
	bank       int64 // bank-busy conflicts (incl. shared-bank contention)
	refresh    int64 // refresh windows
	contention int64 // multi-process memory slowdown surcharge
}

func (m memStall) total() int64 { return m.bank + m.refresh + m.contention }

// memStreamStall returns the stall cycles a vector memory stream suffers
// from bank conflicts, refresh, and multi-process contention, decomposed
// by cause. In cluster mode the stream runs against the banks shared with
// the other CPUs (mutating their state) and the whole shared-bank wait is
// booked as bank conflict; standalone it probes zero-state bank timing —
// through the memoized stall table on the fast path, or a fresh naive
// bank walk when Config.NaiveMemPath keeps the reference implementation
// in charge (the two are bit-equivalent).
func (c *CPU) memStreamStall(start, base int64, vl int) memStall {
	var st memStall
	stride := c.vs
	if !c.cfg.BankConflicts {
		stride = isa.WordBytes // unit stride never conflicts
	}
	switch {
	case c.sharedBank != nil:
		st.bank = c.sharedBank.Stream(start, base, stride, vl)
	case c.stallTab != nil:
		st.bank, st.refresh = c.stallTab.StreamStallParts(start, base, stride, vl)
	case c.cfg.BankConflicts || c.cfg.RefreshStalls:
		cfg := c.bankCfg
		cfg.RefreshEnabled = c.cfg.RefreshStalls
		bm := mem.NewBankModel(cfg)
		st.bank, st.refresh = bm.StreamStallParts(start, base, stride, vl)
	}
	if c.cfg.MemSlowdown > 1 {
		st.contention = int64(math.Ceil((c.cfg.MemSlowdown - 1) * float64(vl)))
	}
	return st
}

// vecOperand returns an element accessor for a vector-op operand:
// vector registers index per element, scalar registers and immediates
// broadcast.
func (c *CPU) vecOperand(o isa.Operand) (func(k int) float64, error) {
	switch o.Kind {
	case isa.KindReg:
		switch o.Reg.Class {
		case isa.ClassV:
			vec := c.v[o.Reg.N]
			return func(k int) float64 { return vec[k] }, nil
		case isa.ClassS:
			val := math.Float64frombits(c.s[o.Reg.N])
			return func(int) float64 { return val }, nil
		}
	case isa.KindImm:
		val := float64(o.Imm)
		return func(int) float64 { return val }, nil
	}
	return nil, fmt.Errorf("bad vector operand %s", o)
}

// execVectorFunc performs the functional (value) semantics of a vector
// instruction over vl elements.
func (c *CPU) execVectorFunc(in isa.Instr, vl int, ea int64) error {
	switch in.Op {
	case isa.OpLd:
		dst := in.Ops[len(in.Ops)-1].Reg
		if dst.Class != isa.ClassV {
			return fmt.Errorf("vector load into %s", dst)
		}
		for k := 0; k < vl; k++ {
			v, err := c.mem.ReadF64(ea + int64(k)*c.vs)
			if err != nil {
				return err
			}
			c.v[dst.N][k] = v
		}
		c.stats.VectorElems += int64(vl)
		return nil
	case isa.OpSt:
		src := in.Ops[0].Reg
		if src.Class != isa.ClassV {
			return fmt.Errorf("vector store from %s", src)
		}
		for k := 0; k < vl; k++ {
			if err := c.mem.WriteF64(ea+int64(k)*c.vs, c.v[src.N][k]); err != nil {
				return err
			}
		}
		c.stats.VectorElems += int64(vl)
		return nil
	case isa.OpSum:
		src := in.Ops[0].Reg
		if src.Class != isa.ClassV || len(in.Ops) != 2 {
			return fmt.Errorf("sum needs v,s operands")
		}
		var acc float64
		for k := 0; k < vl; k++ {
			acc += c.v[src.N][k]
		}
		c.stats.VectorFlops += int64(vl)
		return c.setFloatReg(in.Ops[1].Reg, acc)
	case isa.OpNeg, isa.OpMov:
		if len(in.Ops) != 2 {
			return fmt.Errorf("%s needs 2 operands", in.Op)
		}
		src, err := c.vecOperand(in.Ops[0])
		if err != nil {
			return err
		}
		dst := in.Ops[1].Reg
		if dst.Class != isa.ClassV {
			return fmt.Errorf("vector %s into %s", in.Op, dst)
		}
		for k := 0; k < vl; k++ {
			v := src(k)
			if in.Op == isa.OpNeg {
				v = -v
			}
			c.v[dst.N][k] = v
		}
		if in.Op == isa.OpNeg {
			c.stats.VectorFlops += int64(vl)
		}
		return nil
	case isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpDiv:
		if len(in.Ops) != 3 {
			return fmt.Errorf("%s needs 3 operands", in.Op)
		}
		x, err := c.vecOperand(in.Ops[0])
		if err != nil {
			return err
		}
		y, err := c.vecOperand(in.Ops[1])
		if err != nil {
			return err
		}
		dst := in.Ops[2].Reg
		if dst.Class != isa.ClassV {
			return fmt.Errorf("vector %s into %s", in.Op, dst)
		}
		out := c.vscratch[:vl]
		for k := 0; k < vl; k++ {
			a, b := x(k), y(k)
			switch in.Op {
			case isa.OpAdd:
				out[k] = a + b
			case isa.OpSub:
				out[k] = a - b
			case isa.OpMul:
				out[k] = a * b
			case isa.OpDiv:
				out[k] = a / b
			}
		}
		copy(c.v[dst.N], out)
		c.stats.VectorFlops += int64(vl)
		return nil
	case isa.OpSqrt:
		if len(in.Ops) != 2 {
			return fmt.Errorf("sqrt needs 2 operands")
		}
		src, err := c.vecOperand(in.Ops[0])
		if err != nil {
			return err
		}
		dst := in.Ops[1].Reg
		if dst.Class != isa.ClassV {
			return fmt.Errorf("vector sqrt into %s", dst)
		}
		for k := 0; k < vl; k++ {
			c.v[dst.N][k] = math.Sqrt(src(k))
		}
		c.stats.VectorFlops += int64(vl)
		return nil
	}
	return fmt.Errorf("unimplemented vector op %s", in.Op)
}
