package vectorize

import (
	"fmt"

	"macs/internal/core"
	"macs/internal/ftn"
)

// MAWorkload performs the paper's MA analysis (§3.1) on the high-level
// inner loop: it counts the floating point additions and multiplications
// in the loop body, and the loads and stores that remain assuming perfect
// index analysis — array references with the same stride whose offsets
// fall in the same residue class form a single reused stream, values
// stored earlier in the iteration are forwarded in registers, and
// loop-invariant operands live in registers.
func MAWorkload(prog *ftn.Program, loop *ftn.DoStmt) (core.Workload, error) {
	sc, err := newScope(prog, loop)
	if err != nil {
		return core.Workload{}, err
	}
	var w core.Workload
	// Floating point operation counts from the statement expressions.
	for _, s := range loop.Body {
		a, ok := s.(*ftn.Assign)
		if !ok {
			return w, fmt.Errorf("vectorize: loop contains non-assignment statement %T", s)
		}
		if _, isInd := sc.secInds[a.LHS.Name]; isInd && len(a.LHS.Indices) == 0 {
			continue
		}
		fa, fm, err := countFlops(prog, a.RHS)
		if err != nil {
			return w, err
		}
		w.FA += fa
		w.FM += fm
	}
	// Memory streams with perfect reuse.
	accs, err := collectAccesses(sc)
	if err != nil {
		return w, err
	}
	loadStreams := make(map[streamID]bool)
	storeStreams := make(map[streamID]bool)
	written := make(map[accKey]bool)
	for _, a := range accs {
		if a.Aff.Invariant() {
			continue // register-resident
		}
		key := streamKey(a)
		if a.IsWrite {
			storeStreams[key] = true
			written[accessKey(a.Array, a.Aff)] = true
			continue
		}
		// A read of a location written earlier in the iteration is
		// forwarded in a register.
		if written[accessKey(a.Array, a.Aff)] {
			continue
		}
		loadStreams[key] = true
	}
	w.Loads = len(loadStreams)
	w.Stores = len(storeStreams)
	return w, nil
}

// streamID identifies one memory stream of perfect index analysis.
type streamID struct {
	array, base string
	stride, res int64
}

// streamKey groups accesses that perfect index analysis can serve from a
// single memory stream: same array, stride, symbolic base, and offset
// residue class modulo the stride.
func streamKey(a Access) streamID {
	stride := a.Aff.Stride
	if stride < 0 {
		stride = -stride
	}
	res := int64(0)
	if stride != 0 {
		res = ((a.Aff.Const % stride) + stride) % stride
	}
	return streamID{array: a.Array, base: a.Aff.BaseKey(), stride: a.Aff.Stride, res: res}
}

// countFlops counts floating point additions (incl. subtractions and
// negations) and multiplications (incl. divisions) in a value expression,
// ignoring integer (index) arithmetic.
func countFlops(prog *ftn.Program, e ftn.Expr) (fa, fm int, err error) {
	switch x := e.(type) {
	case ftn.Bin:
		k, terr := ftn.TypeOf(prog, x)
		if terr != nil {
			return 0, 0, terr
		}
		la, lm, err := countFlops(prog, x.L)
		if err != nil {
			return 0, 0, err
		}
		ra, rm, err := countFlops(prog, x.R)
		if err != nil {
			return 0, 0, err
		}
		fa, fm = la+ra, lm+rm
		if k == ftn.KindReal {
			switch x.Op {
			case '+', '-':
				fa++
			case '*', '/':
				fm++
			}
		}
		return fa, fm, nil
	case ftn.Neg:
		fa, fm, err = countFlops(prog, x.X)
		if err != nil {
			return 0, 0, err
		}
		k, terr := ftn.TypeOf(prog, x)
		if terr != nil {
			return 0, 0, terr
		}
		if k == ftn.KindReal {
			fa++
		}
		return fa, fm, nil
	default:
		return 0, 0, nil
	}
}
