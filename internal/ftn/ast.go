package ftn

import (
	"strconv"
	"unicode/utf8"
)

// BasicKind is a declared type.
type BasicKind int

// The two basic types of the subset.
const (
	KindReal BasicKind = iota
	KindInt
)

func (k BasicKind) String() string {
	if k == KindInt {
		return "INTEGER"
	}
	return "REAL"
}

// Decl declares a scalar (Dims empty) or an array with up to three
// dimensions (column-major, 1-based, as in Fortran).
type Decl struct {
	Name string
	Kind BasicKind
	Dims []int
}

// IsArray reports whether the declaration is an array.
func (d Decl) IsArray() bool { return len(d.Dims) > 0 }

// Elems returns the total element count of an array (1 for scalars).
func (d Decl) Elems() int {
	n := 1
	for _, dim := range d.Dims {
		n *= dim
	}
	return n
}

// Program is a parsed compilation unit.
type Program struct {
	Name  string
	Decls []Decl
	Body  []Stmt
}

// Decl looks up a declaration by name.
func (p *Program) Decl(name string) (Decl, bool) {
	for _, d := range p.Decls {
		if d.Name == name {
			return d, true
		}
	}
	return Decl{}, false
}

// Stmt is a statement. Each may carry a numeric statement label.
type Stmt interface {
	StmtLabel() int
	stmtNode()
}

type stmtBase struct{ Label int }

func (s stmtBase) StmtLabel() int { return s.Label }
func (stmtBase) stmtNode()        {}

// Assign is "lhs = rhs"; the LHS is a scalar or array element reference.
type Assign struct {
	stmtBase
	LHS *Ref
	RHS Expr
}

// DoStmt is "DO var = lo, hi [, step] ... ENDDO". IVDep records a CDIR$
// IVDEP directive immediately preceding the loop.
type DoStmt struct {
	stmtBase
	Var   string
	Lo    Expr
	Hi    Expr
	Step  Expr // nil means 1
	Body  []Stmt
	IVDep bool
}

// IfGoto is "IF (l REL r) GOTO n".
type IfGoto struct {
	stmtBase
	Left   Expr
	Rel    string // GT, LT, GE, LE, EQ, NE
	Right  Expr
	Target int
}

// Goto is "GOTO n".
type Goto struct {
	stmtBase
	Target int
}

// Continue is a labeled (or bare) CONTINUE.
type Continue struct {
	stmtBase
}

// Expr is an expression node.
type Expr interface {
	exprNode()
	String() string
}

// Num is a numeric literal.
type Num struct {
	Val   float64
	IsInt bool
}

func (Num) exprNode()        {}
func (n Num) String() string { return renderExpr(n) }

// Ref is a variable or array element reference.
type Ref struct {
	Name    string
	Indices []Expr // nil for scalars
}

func (Ref) exprNode() {}
func (r Ref) String() string {
	if len(r.Indices) == 0 {
		return r.Name
	}
	return renderExpr(r)
}

// Bin is a binary arithmetic expression; Op is one of + - * /.
type Bin struct {
	Op   byte
	L, R Expr
}

func (Bin) exprNode()        {}
func (b Bin) String() string { return renderExpr(b) }

// Neg is unary minus.
type Neg struct{ X Expr }

func (Neg) exprNode()        {}
func (n Neg) String() string { return renderExpr(n) }

// renderExpr renders e through appendExpr, in a stack buffer when the
// text is short.
func renderExpr(e Expr) string {
	var buf [64]byte
	return string(appendExpr(buf[:0], e))
}

// appendExpr appends e's String form to dst: integer literals in
// decimal, real literals in shortest %g form, references as NAME or
// NAME(i,j), binary expressions as (l op r) and negations as (-x).
func appendExpr(dst []byte, e Expr) []byte {
	switch x := e.(type) {
	case Num:
		if x.IsInt {
			return strconv.AppendInt(dst, int64(x.Val), 10)
		}
		return strconv.AppendFloat(dst, x.Val, 'g', -1, 64)
	case *Ref:
		dst = append(dst, x.Name...)
		if len(x.Indices) == 0 {
			return dst
		}
		for i, ix := range x.Indices {
			if i == 0 {
				dst = append(dst, '(')
			} else {
				dst = append(dst, ',')
			}
			dst = appendExpr(dst, ix)
		}
		return append(dst, ')')
	case Bin:
		dst = append(dst, '(')
		dst = appendExpr(dst, x.L)
		dst = append(dst, ' ')
		dst = utf8.AppendRune(dst, rune(x.Op))
		dst = append(dst, ' ')
		dst = appendExpr(dst, x.R)
		return append(dst, ')')
	case Neg:
		dst = append(dst, "(-"...)
		dst = appendExpr(dst, x.X)
		return append(dst, ')')
	case Ref:
		return appendExpr(dst, &x)
	}
	// Expr's unexported method confines it to the cases above.
	return dst
}

// Walk visits every statement in a body, recursing into DO bodies.
func Walk(body []Stmt, f func(Stmt)) {
	for _, s := range body {
		f(s)
		if do, ok := s.(*DoStmt); ok {
			Walk(do.Body, f)
		}
	}
}

// WalkExprs visits every expression of a statement (not recursing into
// nested statements).
func WalkExprs(s Stmt, f func(Expr)) {
	switch st := s.(type) {
	case *Assign:
		walkExpr(st.RHS, f)
		for _, ix := range st.LHS.Indices {
			walkExpr(ix, f)
		}
	case *DoStmt:
		walkExpr(st.Lo, f)
		walkExpr(st.Hi, f)
		if st.Step != nil {
			walkExpr(st.Step, f)
		}
	case *IfGoto:
		walkExpr(st.Left, f)
		walkExpr(st.Right, f)
	}
}

func walkExpr(e Expr, f func(Expr)) {
	if e == nil {
		return
	}
	f(e)
	switch x := e.(type) {
	case Bin:
		walkExpr(x.L, f)
		walkExpr(x.R, f)
	case Neg:
		walkExpr(x.X, f)
	case *Ref:
		for _, ix := range x.Indices {
			walkExpr(ix, f)
		}
	}
}
