package ftn

import (
	"strings"
	"testing"
)

const lfk1Src = `
PROGRAM LFK1
REAL X(2001), Y(2001), ZX(2048)
REAL Q, R, T
INTEGER N, K
DO K = 1, N
  X(K) = Q + Y(K)*(R*ZX(K+10) + T*ZX(K+11))
ENDDO
END
`

func TestParseLFK1(t *testing.T) {
	p, err := Parse(lfk1Src)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "LFK1" {
		t.Errorf("program name %q, want LFK1", p.Name)
	}
	if len(p.Decls) != 8 {
		t.Fatalf("decls = %d, want 8", len(p.Decls))
	}
	x, ok := p.Decl("X")
	if !ok || x.Kind != KindReal || len(x.Dims) != 1 || x.Dims[0] != 2001 {
		t.Errorf("decl X = %+v", x)
	}
	if len(p.Body) != 1 {
		t.Fatalf("body has %d stmts, want 1", len(p.Body))
	}
	do, ok := p.Body[0].(*DoStmt)
	if !ok {
		t.Fatalf("body[0] is %T, want DoStmt", p.Body[0])
	}
	if do.Var != "K" || do.Step != nil || do.IVDep {
		t.Errorf("do = %+v", do)
	}
	if len(do.Body) != 1 {
		t.Fatalf("loop body has %d stmts", len(do.Body))
	}
	asg := do.Body[0].(*Assign)
	if asg.LHS.Name != "X" || len(asg.LHS.Indices) != 1 {
		t.Errorf("assign LHS = %+v", asg.LHS)
	}
	want := "(Q + (Y(K) * ((R * ZX((K + 10))) + (T * ZX((K + 11))))))"
	if got := asg.RHS.String(); got != want {
		t.Errorf("RHS = %s, want %s", got, want)
	}
}

func TestParseGotoLoop(t *testing.T) {
	src := `
PROGRAM LFK2
REAL X(2048), V(2048)
INTEGER N, II, IPNT, IPNTP, I, K
II = N
IPNTP = 0
100 CONTINUE
IPNT = IPNTP
IPNTP = IPNTP + II
II = II / 2
I = IPNTP + 1
CDIR$ IVDEP
DO K = IPNT + 2, IPNTP, 2
  I = I + 1
  X(I) = X(K) - V(K)*X(K-1) - V(K+1)*X(K+1)
ENDDO
IF (II .GT. 1) GOTO 100
END
`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	var do *DoStmt
	var ifg *IfGoto
	var cont *Continue
	Walk(p.Body, func(s Stmt) {
		switch st := s.(type) {
		case *DoStmt:
			do = st
		case *IfGoto:
			ifg = st
		case *Continue:
			cont = st
		}
	})
	if do == nil || !do.IVDep {
		t.Fatal("DO with IVDEP not found")
	}
	if do.Step == nil {
		t.Fatal("DO step missing")
	}
	if ifg == nil || ifg.Rel != "GT" || ifg.Target != 100 {
		t.Fatalf("IfGoto = %+v", ifg)
	}
	if cont == nil || cont.StmtLabel() != 100 {
		t.Fatalf("labeled CONTINUE = %+v", cont)
	}
}

func TestParseMultiDim(t *testing.T) {
	src := `
PROGRAM P
REAL U(5,101,2), DU(101)
INTEGER KX, KY, N
DO KX = 2, 3
DO KY = 2, N
  DU(KY) = U(KX,KY+1,1) - U(KX,KY-1,1)
ENDDO
ENDDO
END
`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	u, _ := p.Decl("U")
	if len(u.Dims) != 3 || u.Elems() != 5*101*2 {
		t.Errorf("U dims = %v", u.Dims)
	}
	outer := p.Body[0].(*DoStmt)
	inner := outer.Body[0].(*DoStmt)
	asg := inner.Body[0].(*Assign)
	ref := asg.RHS.(Bin).L.(*Ref)
	if ref.Name != "U" || len(ref.Indices) != 3 {
		t.Errorf("U ref = %+v", ref)
	}
}

func TestRealLiterals(t *testing.T) {
	src := `
PROGRAM P
REAL W(64)
INTEGER I
DO I = 1, 10
  W(I) = 0.0100
ENDDO
END
`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	asg := p.Body[0].(*DoStmt).Body[0].(*Assign)
	n, ok := asg.RHS.(Num)
	if !ok || n.IsInt || n.Val != 0.01 {
		t.Errorf("literal = %+v", asg.RHS)
	}
}

func TestCommentsSkipped(t *testing.T) {
	src := `
C This is a comment
! also a comment
PROGRAM P
REAL A
A = 1.5
END
`
	if _, err := Parse(src); err != nil {
		t.Fatal(err)
	}
}

// TestStatementNamedC checks that a statement whose first word is C is
// not taken for a comment when it goes on with = or (: a scalar, an
// array element, either case, with or without a blank before the
// parenthesis. A lone C, or C followed by words, still starts a comment.
func TestStatementNamedC(t *testing.T) {
	for _, stmt := range []string{"C = X(K)", "c = x(k)", "C(K) = X(K)", "C (K) = X(K)", "C\t= X(K)"} {
		decl := "REAL X(8), C"
		if strings.Contains(stmt, "(K) =") || strings.Contains(stmt, "(k) =") {
			decl = "REAL X(8), C(8)"
		}
		src := "PROGRAM P\n" + decl + "\nINTEGER K\nDO K = 1, 8\n  " + stmt + "\n  X(K) = 2.0\nENDDO\nEND\n"
		p, err := Parse(src)
		if err != nil {
			t.Fatalf("%q: %v", stmt, err)
		}
		do := p.Body[0].(*DoStmt)
		if len(do.Body) != 2 {
			t.Fatalf("%q: loop body has %d statements, want 2", stmt, len(do.Body))
		}
		if a, ok := do.Body[0].(*Assign); !ok || a.LHS.Name != "C" {
			t.Fatalf("%q: first statement is %#v, want an assignment to C", stmt, do.Body[0])
		}
	}
	for _, line := range []string{"C", "c", "C this is a comment", "C  X = 1", "C\tcomment (with parens)"} {
		toks, err := Lex(line + "\nEND\n")
		if err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		if len(toks) != 3 || toks[0].Kind != TokIdent || toks[0].Text != "END" {
			t.Errorf("%q: not lexed as a comment: %v", line, toks)
		}
	}
}

func TestSemaErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string
	}{
		{"undeclared", "PROGRAM P\nREAL A\nA = B\nEND", "undeclared"},
		{"rank", "PROGRAM P\nREAL A(4)\nINTEGER I\nA(1,2) = 0.0\nEND", "dimensions"},
		{"real index", "PROGRAM P\nREAL A(4), R\nA(R) = 0.0\nEND", "INTEGER"},
		{"int assign real", "PROGRAM P\nINTEGER I\nI = 1.5\nEND", "cannot assign"},
		{"do var real", "PROGRAM P\nREAL R\nDO R = 1, 5\nENDDO\nEND", "INTEGER scalar"},
		{"goto missing", "PROGRAM P\nINTEGER I\nGOTO 55\nEND", "undefined label"},
		{"dup label", "PROGRAM P\nINTEGER I\n10 CONTINUE\n10 CONTINUE\nEND", "duplicate label"},
		{"dup decl", "PROGRAM P\nREAL A\nREAL A\nA = 1.0\nEND", "declared twice"},
		{"real do bound", "PROGRAM P\nINTEGER I\nREAL R\nDO I = 1, R\nENDDO\nEND", "must be INTEGER"},
	}
	for _, tc := range cases {
		_, err := Parse(tc.src)
		if err == nil {
			t.Errorf("%s: no error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"PROGRAM P\nREAL A\nA = \nEND",         // missing RHS
		"PROGRAM P\nREAL A\nA = (1.0\nEND",     // unbalanced paren
		"PROGRAM P\nDO K = 1\nENDDO\nEND",      // missing hi bound
		"PROGRAM P\nIF (1 .GT. 2) 5\nEND",      // IF without GOTO
		"PROGRAM P\nREAL A(0)\nEND",            // zero dimension
		"PROGRAM P\nREAL A\nA = 1 .XX. 2\nEND", // unknown relational
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestMixedModePromotion(t *testing.T) {
	p := MustParse("PROGRAM P\nREAL A\nINTEGER I\nA = 2.0*I\nEND")
	asg := p.Body[0].(*Assign)
	k, err := TypeOf(p, asg.RHS)
	if err != nil || k != KindReal {
		t.Errorf("2.0*I type = %v, %v; want REAL", k, err)
	}
	p2 := MustParse("PROGRAM P\nINTEGER I, J\nI = J/2\nEND")
	asg2 := p2.Body[0].(*Assign)
	k2, _ := TypeOf(p2, asg2.RHS)
	if k2 != KindInt {
		t.Errorf("J/2 type = %v, want INTEGER", k2)
	}
}

func TestUnaryMinus(t *testing.T) {
	p := MustParse("PROGRAM P\nREAL A, B\nA = -B + 1.0\nEND")
	asg := p.Body[0].(*Assign)
	b, ok := asg.RHS.(Bin)
	if !ok || b.Op != '+' {
		t.Fatalf("RHS = %s", asg.RHS)
	}
	if _, ok := b.L.(Neg); !ok {
		t.Errorf("left operand = %s, want negation", b.L)
	}
}

func TestWalkVisitsNested(t *testing.T) {
	p := MustParse(`
PROGRAM P
REAL A(10)
INTEGER I, J
DO I = 1, 3
DO J = 1, 3
A(J) = 1.0
ENDDO
ENDDO
END
`)
	var count int
	Walk(p.Body, func(Stmt) { count++ })
	if count != 3 {
		t.Errorf("Walk visited %d statements, want 3", count)
	}
}

func TestExponentLiteral(t *testing.T) {
	p := MustParse("PROGRAM P\nREAL A\nA = 1.5E-3\nEND")
	asg := p.Body[0].(*Assign)
	n := asg.RHS.(Num)
	if n.Val != 0.0015 {
		t.Errorf("1.5E-3 = %v", n.Val)
	}
}

func TestDExponentLiteral(t *testing.T) {
	p := MustParse("PROGRAM P\nREAL A\nA = 1.5D-3\nEND")
	asg := p.Body[0].(*Assign)
	if n := asg.RHS.(Num); n.Val != 0.0015 {
		t.Errorf("1.5D-3 = %v", n.Val)
	}
}

func TestRelationalWithoutSpaces(t *testing.T) {
	p := MustParse("PROGRAM P\nINTEGER I\nI = 5\nIF (I.GT.3) GOTO 10\n10 CONTINUE\nEND")
	var found bool
	Walk(p.Body, func(s Stmt) {
		if ig, ok := s.(*IfGoto); ok && ig.Rel == "GT" {
			found = true
		}
	})
	if !found {
		t.Error("I.GT.3 not parsed as relational")
	}
}

func TestLowercaseSource(t *testing.T) {
	p := MustParse("program p\nreal a(10)\ninteger i\ndo i = 1, 5\n  a(i) = 1.0\nenddo\nend")
	if p.Name != "P" {
		t.Errorf("name = %q (case-insensitive uppercasing)", p.Name)
	}
	if _, ok := p.Decl("A"); !ok {
		t.Error("lowercase decl not uppercased")
	}
}

func TestTrailingDotLiteral(t *testing.T) {
	p := MustParse("PROGRAM P\nREAL A\nA = 2. + 1.5\nEND")
	asg := p.Body[0].(*Assign)
	b := asg.RHS.(Bin)
	if n := b.L.(Num); n.IsInt || n.Val != 2.0 {
		t.Errorf("'2.' parsed as %+v", n)
	}
}

func TestLeadingDotLiteral(t *testing.T) {
	p := MustParse("PROGRAM P\nREAL A\nA = .5\nEND")
	asg := p.Body[0].(*Assign)
	if n := asg.RHS.(Num); n.Val != 0.5 {
		t.Errorf("'.5' = %v", n.Val)
	}
}
