package vectorize

import (
	"fmt"
	"math"

	"macs/internal/ftn"
)

// NodeKind classifies DAG nodes.
type NodeKind int

// Node kinds of the vector IR.
const (
	NLoad   NodeKind = iota // vector load from an array stream
	NStore                  // vector store to an array stream
	NConst                  // broadcast numeric constant
	NScalar                 // broadcast loop-invariant scalar (or array element)
	NBin                    // elementwise binary op (+ - * /)
	NNeg                    // elementwise negation
)

// Node is one value in the vectorized loop body DAG.
type Node struct {
	ID    int
	Kind  NodeKind
	Op    byte  // NBin: + - * /
	X, Y  *Node // operands (NStore: X is the stored value)
	Array string
	Aff   Affine
	Value float64 // NConst
	// Scalar is the invariant reference broadcast by an NScalar node (a
	// plain scalar or an invariant array element like Y(5)).
	Scalar *ftn.Ref
	// Src is the source expression of arithmetic nodes; code generation
	// uses it to hoist loop-invariant subtrees into scalar registers.
	Src ftn.Expr
	// After lists loads that must be emitted before this store: reads of
	// the same location in earlier statements (anti-dependences).
	After []*Node
}

func (n *Node) String() string {
	switch n.Kind {
	case NLoad:
		return fmt.Sprintf("load %s[%s+%d+%d*t]", n.Array, n.Aff.BaseKey(), n.Aff.Const, n.Aff.Stride)
	case NStore:
		return fmt.Sprintf("store %s[%s+%d+%d*t] <- n%d", n.Array, n.Aff.BaseKey(), n.Aff.Const, n.Aff.Stride, n.X.ID)
	case NConst:
		return fmt.Sprintf("const %g", n.Value)
	case NScalar:
		return "scalar " + n.Scalar.String()
	case NBin:
		return fmt.Sprintf("n%d %c n%d", n.X.ID, n.Op, n.Y.ID)
	case NNeg:
		return fmt.Sprintf("neg n%d", n.X.ID)
	}
	return "node?"
}

// Reduction is a recognized reduction: Target = Target Op sum(Expr over
// the loop). Target is a scalar or a loop-invariant array element.
type Reduction struct {
	Op     byte // '+' or '-'
	Expr   *Node
	Target *ftn.Ref
}

// Result is a vectorized inner loop.
type Result struct {
	Loop       *ftn.DoStmt
	Nodes      []*Node // topological (construction) order
	Stores     []*Node // store sinks, in statement order
	Reductions []Reduction
	SecInds    []SecInduction
	// Step is the constant loop step.
	Step int64
}

// builder constructs the DAG with common subexpression elimination and
// store-to-load forwarding.
type builder struct {
	sc     *scope
	nodes  []*Node
	cse    map[cseKey]*Node
	stores []*Node
	// expanded maps scalar-expanded temporaries to their current node.
	expanded map[string]*Node
	// written maps the access of each store to its value for forwarding;
	// loadsOf maps the same keys to load nodes for anti-dependence
	// ordering.
	written map[accKey]*Node
	loadsOf map[accKey][]*Node
	reds    []Reduction
}

// cseKey identifies one value the builder shares between uses: a
// constant by bit pattern, a negation or binary node by operator and
// operand IDs, a broadcast scalar or invariant element by its printed
// reference, a load by its access.
type cseKey struct {
	kind NodeKind
	op   byte
	x, y int
	bits uint64
	ref  string
	acc  accKey
}

func (b *builder) intern(key cseKey, mk func() *Node) *Node {
	if n, ok := b.cse[key]; ok {
		return n
	}
	n := mk()
	n.ID = len(b.nodes)
	b.nodes = append(b.nodes, n)
	b.cse[key] = n
	return n
}

// accKey identifies one array access: the array, the affine offset's
// symbolic base, constant and stride.
type accKey struct {
	array, base string
	off, stride int64
}

func accessKey(arr string, a Affine) accKey {
	return accKey{array: arr, base: a.BaseKey(), off: a.Const, stride: a.Stride}
}

// buildExpr converts a real-valued expression to a DAG node.
func (b *builder) buildExpr(e ftn.Expr) (*Node, error) {
	switch x := e.(type) {
	case ftn.Num:
		key := cseKey{kind: NConst, bits: math.Float64bits(x.Val)}
		return b.intern(key, func() *Node { return &Node{Kind: NConst, Value: x.Val} }), nil
	case ftn.Neg:
		n, err := b.buildExpr(x.X)
		if err != nil {
			return nil, err
		}
		return b.intern(cseKey{kind: NNeg, x: n.ID}, func() *Node { return &Node{Kind: NNeg, X: n, Src: x} }), nil
	case ftn.Bin:
		l, err := b.buildExpr(x.L)
		if err != nil {
			return nil, err
		}
		r, err := b.buildExpr(x.R)
		if err != nil {
			return nil, err
		}
		key := cseKey{kind: NBin, op: x.Op, x: l.ID, y: r.ID}
		return b.intern(key, func() *Node { return &Node{Kind: NBin, Op: x.Op, X: l, Y: r, Src: x} }), nil
	case *ftn.Ref:
		return b.buildRef(x)
	}
	return nil, fmt.Errorf("vectorize: unsupported expression %T", e)
}

func (b *builder) buildRef(r *ftn.Ref) (*Node, error) {
	if len(r.Indices) == 0 {
		if n, ok := b.expanded[r.Name]; ok {
			return n, nil
		}
		d, ok := b.sc.prog.Decl(r.Name)
		if !ok {
			return nil, fmt.Errorf("vectorize: undeclared %s", r.Name)
		}
		if d.Kind != ftn.KindReal {
			return nil, fmt.Errorf("vectorize: integer %s used as a value in vector context", r.Name)
		}
		if b.sc.realAssigned[r.Name] {
			// Assigned somewhere in the body but not yet on this scan:
			// reading last iteration's value is a loop-carried recurrence.
			return nil, fmt.Errorf("vectorize: %s carries a value across iterations (recurrence)", r.Name)
		}
		key := cseKey{kind: NScalar, op: 's', ref: r.Name}
		return b.intern(key, func() *Node { return &Node{Kind: NScalar, Scalar: r} }), nil
	}
	acc, err := b.sc.refAccess(r, false)
	if err != nil {
		return nil, err
	}
	if acc.Aff.Invariant() {
		// Loop-invariant array element: broadcast like a scalar.
		key := cseKey{kind: NScalar, op: 'e', ref: r.String()}
		return b.intern(key, func() *Node { return &Node{Kind: NScalar, Scalar: r} }), nil
	}
	key := accessKey(acc.Array, acc.Aff)
	// Store-to-load forwarding: a read of a location written earlier in
	// the iteration reuses the stored value's register (the compiler
	// behaviour behind LFK8's MAC load count).
	if n, ok := b.written[key]; ok {
		return n, nil
	}
	ld := b.intern(cseKey{kind: NLoad, acc: key}, func() *Node {
		return &Node{Kind: NLoad, Array: acc.Array, Aff: acc.Aff}
	})
	if len(b.loadsOf[key]) == 0 || b.loadsOf[key][len(b.loadsOf[key])-1] != ld {
		b.loadsOf[key] = append(b.loadsOf[key], ld)
	}
	return ld, nil
}

// Vectorize vectorizes an innermost loop. It returns an error when the
// loop cannot be vectorized (the caller then falls back to scalar code).
func Vectorize(prog *ftn.Program, loop *ftn.DoStmt) (*Result, error) {
	sc, err := newScope(prog, loop)
	if err != nil {
		return nil, err
	}
	for _, s := range loop.Body {
		if _, ok := s.(*ftn.Assign); !ok {
			return nil, fmt.Errorf("vectorize: loop contains non-assignment statement %T", s)
		}
	}
	if err := checkDependences(sc); err != nil {
		return nil, err
	}
	b := &builder{
		sc:       sc,
		cse:      make(map[cseKey]*Node),
		expanded: make(map[string]*Node),
		written:  make(map[accKey]*Node),
		loadsOf:  make(map[accKey][]*Node),
	}
	res := &Result{Loop: loop, Step: sc.step}
	for _, s := range loop.Body {
		a := s.(*ftn.Assign)
		// Secondary induction updates become epilogue scalar code.
		if si, ok := sc.secInds[a.LHS.Name]; ok && len(a.LHS.Indices) == 0 {
			sc.incsSoFar[a.LHS.Name]++
			_ = si
			continue
		}
		if err := b.buildStmt(a); err != nil {
			return nil, err
		}
	}
	res.Nodes = b.nodes
	res.Stores = b.stores
	res.Reductions = b.reds
	for _, si := range sc.secInds {
		res.SecInds = append(res.SecInds, *si)
	}
	if len(res.Stores) == 0 && len(res.Reductions) == 0 {
		return nil, fmt.Errorf("vectorize: loop has no vectorizable work")
	}
	return res, nil
}

func (b *builder) buildStmt(a *ftn.Assign) error {
	sc := b.sc
	// Classify the LHS.
	if len(a.LHS.Indices) > 0 {
		acc, err := sc.refAccess(a.LHS, true)
		if err != nil {
			return err
		}
		if !acc.Aff.Invariant() {
			// Vector store. Loads of the same location issued by earlier
			// statements must precede it (anti-dependence).
			val, err := b.buildExpr(a.RHS)
			if err != nil {
				return err
			}
			key := accessKey(acc.Array, acc.Aff)
			st := &Node{
				ID:    len(b.nodes),
				Kind:  NStore,
				X:     val,
				Array: acc.Array,
				Aff:   acc.Aff,
				After: append([]*Node(nil), b.loadsOf[key]...),
			}
			b.nodes = append(b.nodes, st)
			b.stores = append(b.stores, st)
			b.written[key] = val
			return nil
		}
		// Invariant array element: must be a reduction.
		return b.buildReduction(a)
	}
	d, ok := sc.prog.Decl(a.LHS.Name)
	if !ok {
		return fmt.Errorf("vectorize: undeclared %s", a.LHS.Name)
	}
	if d.Kind != ftn.KindReal {
		return fmt.Errorf("vectorize: integer scalar %s assigned in loop and not an induction variable", a.LHS.Name)
	}
	// Reduction (T = T op e) or scalar expansion (T = vector value).
	if isReductionForm(a) {
		return b.buildReduction(a)
	}
	val, err := b.buildExpr(a.RHS)
	if err != nil {
		return err
	}
	b.expanded[a.LHS.Name] = val
	return nil
}

// isReductionForm matches "T = T + e" and "T = T - e" (also for invariant
// array element targets).
func isReductionForm(a *ftn.Assign) bool {
	bin, ok := a.RHS.(ftn.Bin)
	if !ok || (bin.Op != '+' && bin.Op != '-') {
		return false
	}
	l, ok := bin.L.(*ftn.Ref)
	return ok && l.String() == a.LHS.String()
}

func (b *builder) buildReduction(a *ftn.Assign) error {
	if !isReductionForm(a) {
		return fmt.Errorf("vectorize: assignment to loop-invariant %s is not a reduction", a.LHS)
	}
	bin := a.RHS.(ftn.Bin)
	expr, err := b.buildExpr(bin.R)
	if err != nil {
		return err
	}
	b.reds = append(b.reds, Reduction{Op: bin.Op, Expr: expr, Target: a.LHS})
	return nil
}
