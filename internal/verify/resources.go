package verify

import (
	"fmt"

	"macs/internal/asm"
	"macs/internal/isa"
)

// resources walks the inner vectorized loop (the code the MACS model
// bounds) replaying the C-240 chime-formation rules, and warns where the
// single memory port or the register-pair limits force a chime split —
// legal programs that will run slower than their instruction mix
// suggests, the paper's LFK8 signature.
func resources(p *asm.Program) []Diagnostic {
	loop, ok := asm.InnerVectorLoop(p)
	if !ok {
		return nil
	}
	var ds []Diagnostic
	warn := func(i int, msg string) {
		ds = append(ds, Diagnostic{SevWarning, loop.Start + i, msg})
	}

	var (
		pipesUsed  [4]bool
		pairReads  [4]int
		pairWrites [4]int
		hasMem     bool
		scalarMem  bool
		members    int
	)
	reset := func() {
		pipesUsed = [4]bool{}
		pairReads = [4]int{}
		pairWrites = [4]int{}
		hasMem, scalarMem, members = false, false, 0
	}
	reset()

	for i, in := range loop.Body {
		if !in.IsVector() {
			if in.IsMemory() {
				if hasMem {
					warn(i, "single memory port: scalar memory access splits a chime carrying vector memory traffic")
					reset()
				} else {
					scalarMem = true
				}
			}
			continue
		}
		if _, ok := isa.VectorTiming(in.Op); !ok {
			continue // structural pass reports the missing timing
		}
		split := false
		if members > 0 {
			if pipesUsed[in.Pipe()] {
				split = true // ordinary chime formation, not a finding
			}
			if scalarMem && in.IsMemory() {
				warn(i, "single memory port: vector memory access follows a scalar memory access and starts a new chime")
				split = true
			}
			var r, w [4]int
			r, w = pairReads, pairWrites
			accumulatePairs(in, &r, &w)
			for pr := 0; pr < 4; pr++ {
				if r[pr] > isa.PairMaxReads || w[pr] > isa.PairMaxWrites {
					warn(i, fmt.Sprintf("register pair pressure on {v%d,v%d}: more than %d reads or %d write per chime forces a split",
						pr, pr+4, isa.PairMaxReads, isa.PairMaxWrites))
					split = true
					break
				}
			}
		}
		if split {
			reset()
		}
		members++
		pipesUsed[in.Pipe()] = true
		if in.IsMemory() {
			hasMem = true
		}
		accumulatePairs(in, &pairReads, &pairWrites)
	}
	return ds
}

func accumulatePairs(in isa.Instr, reads, writes *[4]int) {
	var regs [8]isa.Reg
	for _, r := range in.AppendVectorReads(regs[:0]) {
		reads[r.Pair()]++
	}
	if w, ok := in.VectorWrite(); ok {
		writes[w.Pair()]++
	}
}
