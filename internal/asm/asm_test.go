package asm

import (
	"strings"
	"testing"
	"testing/quick"

	"macs/internal/isa"
)

// lfk1Asm is the paper's compiled inner loop for LFK1 (§3.5), with the
// data symbols it references.
const lfk1Asm = `
.data space1 65536
L7:
	mov s0,vl        ; #145
	ld.l space1+40120(a5),v0 ; #146, ZX
	mul.d v0,s1,v1   ; #146
	ld.l space1+40128(a5),v2 ; #146, ZX
	mul.d v2,s3,v0   ; #146
	add.d v1,v0,v3   ; #146
	ld.l space1+32032(a5),v1 ; #146, Y
	mul.d v1,v3,v2   ; #146
	add.d v2,s7,v0   ; #146
	st.l v0,space1+24024(a5) ; #146, X
	add.w #1024,a5   ; #146
	sub.w #128,s0    ; #146
	lt.w #0,s0       ; #146
	jbrs.t L7        ; #146
`

func TestParseLFK1(t *testing.T) {
	p, err := Parse(lfk1Asm)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Instrs) != 14 {
		t.Fatalf("got %d instructions, want 14", len(p.Instrs))
	}
	if idx, ok := p.Labels["L7"]; !ok || idx != 0 {
		t.Fatalf("label L7 = %d,%v, want 0,true", idx, ok)
	}
	counts := VectorCount(p.Instrs)
	if counts[isa.ClassLoad] != 3 {
		t.Errorf("vector loads = %d, want 3", counts[isa.ClassLoad])
	}
	if counts[isa.ClassStore] != 1 {
		t.Errorf("vector stores = %d, want 1", counts[isa.ClassStore])
	}
	if counts[isa.ClassFPMul] != 3 {
		t.Errorf("vector multiplies = %d, want 3", counts[isa.ClassFPMul])
	}
	if counts[isa.ClassFPAdd] != 2 {
		t.Errorf("vector adds = %d, want 2", counts[isa.ClassFPAdd])
	}
}

func TestParseRoundTrip(t *testing.T) {
	p := MustParse(lfk1Asm)
	text := p.String()
	q, err := Parse(text)
	if err != nil {
		t.Fatalf("re-parse failed: %v\ntext:\n%s", err, text)
	}
	if len(q.Instrs) != len(p.Instrs) {
		t.Fatalf("round trip changed instruction count: %d != %d", len(q.Instrs), len(p.Instrs))
	}
	for i := range p.Instrs {
		a, b := p.Instrs[i], q.Instrs[i]
		a.Comment, b.Comment = "", ""
		a.Label, b.Label = "", ""
		if a.String() != b.String() {
			t.Errorf("instr %d: %q != %q", i, a.String(), b.String())
		}
	}
}

func TestParseOperandForms(t *testing.T) {
	p := MustParse(`
.data x 1024
.data y 64 1.5 2.5
	mov #8,vs
	ld.l x(a1),v0
	ld.l 16(a2),s3
	ld.l x+8(a3),v1
	add.d v0,v1,v2
	mul.d v2,s3,v3
	sum.d v3,s4
	jmp L9
L9:
	halt
`)
	if len(p.Instrs) != 9 {
		t.Fatalf("got %d instrs, want 9", len(p.Instrs))
	}
	y, ok := p.FindData("y")
	if !ok || y.Size != 64 || len(y.Init) != 2 || y.Init[1] != 2.5 {
		t.Fatalf("data y = %+v, ok=%v", y, ok)
	}
	// ld.l 16(a2),s3 is scalar.
	if p.Instrs[2].IsVector() {
		t.Error("scalar load misclassified as vector")
	}
	if !p.Instrs[6].IsVector() {
		t.Error("sum.d v3,s4 must be a vector instruction")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"frob.d v0,v1,v2",          // unknown opcode
		"add.q v0,v1,v2",           // unknown suffix
		"ld.l x(a1),v0",            // undefined symbol x
		"jmp L1",                   // undefined label
		"ld.l x(s1),v0\n.data x 8", // scalar base register
		"add.d v0,,v2",             // empty operand
		".data x -5",               // negative size
		".data x 8 1.0 2.0",        // init exceeds size
		"ld.l x(a9),v0\n.data x 8", // register out of range
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestParseHexImmediate(t *testing.T) {
	p := MustParse("add.w #0x400,a5")
	if p.Instrs[0].Ops[0].Imm != 1024 {
		t.Errorf("hex immediate = %d, want 1024", p.Instrs[0].Ops[0].Imm)
	}
}

func TestLabelOnOwnLine(t *testing.T) {
	p := MustParse("L1:\n\tnop\n\tjmp L1\nend:")
	if idx := p.Labels["L1"]; idx != 0 {
		t.Errorf("L1 at %d, want 0", idx)
	}
	if idx := p.Labels["end"]; idx != 2 {
		t.Errorf("end at %d, want 2 (one past last instr)", idx)
	}
}

func TestFindLoops(t *testing.T) {
	p := MustParse(lfk1Asm)
	loops := FindLoops(p)
	if len(loops) != 1 {
		t.Fatalf("got %d loops, want 1", len(loops))
	}
	l := loops[0]
	if l.Start != 0 || l.End != 14 || l.Label != "L7" {
		t.Fatalf("loop = %+v, want start 0 end 14 label L7", l)
	}
	if !l.IsVectorized() {
		t.Error("LFK1 loop must be vectorized")
	}
	if got := len(l.VectorInstrs()); got != 9 {
		t.Errorf("vector instrs = %d, want 9", got)
	}
}

func TestFindLoopsNested(t *testing.T) {
	p := MustParse(`
outer:
	mov #0,s1
inner:
	add.w #1,s1
	lt.w s1,s2
	jbrs.t inner
	add.w #1,s3
	lt.w s3,s4
	jbrs.t outer
`)
	loops := FindLoops(p)
	if len(loops) != 2 {
		t.Fatalf("got %d loops, want 2", len(loops))
	}
	if loops[0].Label != "inner" {
		t.Errorf("innermost-first order violated: first loop %q", loops[0].Label)
	}
	if loops[1].Label != "outer" {
		t.Errorf("second loop %q, want outer", loops[1].Label)
	}
}

func TestInnerVectorLoop(t *testing.T) {
	p := MustParse(lfk1Asm)
	l, ok := InnerVectorLoop(p)
	if !ok || l.Label != "L7" {
		t.Fatalf("InnerVectorLoop = %+v,%v", l, ok)
	}
	// A scalar-only loop program has no vector loop.
	q := MustParse("L1:\n\tadd.w #1,s0\n\tlt.w s0,s1\n\tjbrs.t L1")
	if _, ok := InnerVectorLoop(q); ok {
		t.Error("scalar loop reported as vectorized")
	}
}

func TestCloneIndependence(t *testing.T) {
	p := MustParse(lfk1Asm)
	q := p.Clone()
	q.Instrs[1].Ops[0] = isa.ImmOp(0)
	q.Labels["L8"] = 3
	q.Data[0].Init = append(q.Data[0].Init, 1.0)
	if p.Instrs[1].Ops[0].Kind == isa.KindImm {
		t.Error("clone shares operand storage with original")
	}
	if _, ok := p.Labels["L8"]; ok {
		t.Error("clone shares label map with original")
	}
	if len(p.Data[0].Init) != 0 {
		t.Error("clone shares data init with original")
	}
}

// TestDerivedComputedOncePerProgram: a derived fact is computed on the
// first call for its key and returned from the program afterwards, keys
// are independent, and a clone starts without the original's facts.
func TestDerivedComputedOncePerProgram(t *testing.T) {
	type keyA struct{}
	type keyB struct{ n int }
	p := MustParse(lfk1Asm)
	calls := 0
	fact := func(v string) func() any {
		return func() any { calls++; return v }
	}
	for i := 0; i < 3; i++ {
		if got := p.Derived(keyA{}, fact("a")); got != "a" {
			t.Fatalf("Derived(keyA) = %v", got)
		}
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times for one key, want 1", calls)
	}
	if got := p.Derived(keyB{1}, fact("b1")); got != "b1" || calls != 2 {
		t.Fatalf("Derived(keyB{1}) = %v after %d computes", got, calls)
	}
	if got := p.Derived(keyB{2}, fact("b2")); got != "b2" || calls != 3 {
		t.Fatalf("Derived(keyB{2}) = %v after %d computes", got, calls)
	}
	if got := p.Clone().Derived(keyA{}, fact("clone")); got != "clone" || calls != 4 {
		t.Fatalf("clone inherited a derived fact: %v", got)
	}
}

func TestValidateCatchesDanglingLabelIndex(t *testing.T) {
	p := &Program{}
	p.Add(isa.Instr{Op: isa.OpNop})
	p.SetLabel("bad")
	p.Labels["bad"] = 99
	if err := p.Validate(); err == nil {
		t.Error("Validate accepted out-of-range label")
	}
}

func TestSplitOperandsRespectsParens(t *testing.T) {
	got := splitOperands("space1+40120(a5),v0")
	if len(got) != 2 || got[0] != "space1+40120(a5)" || got[1] != "v0" {
		t.Errorf("splitOperands = %q", got)
	}
}

func TestVectorCountIgnoresScalar(t *testing.T) {
	p := MustParse(`
.data x 8
	ld.l x(a1),s0
	add.w #8,a1
	sub.w #1,s2
`)
	counts := VectorCount(p.Instrs)
	if len(counts) != 0 {
		t.Errorf("scalar-only program vector counts = %v, want empty", counts)
	}
}

// Property: printing then parsing any random well-formed ALU instruction is
// the identity on its rendered form.
func TestQuickRoundTripALU(t *testing.T) {
	ops := []isa.Op{isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpDiv, isa.OpNeg, isa.OpAnd, isa.OpOr}
	f := func(opIdx, r1, r2, r3 uint8) bool {
		in := isa.Instr{
			Op:     ops[int(opIdx)%len(ops)],
			Suffix: isa.SufD,
			Ops: []isa.Operand{
				isa.RegOp(isa.V(int(r1) % 8)),
				isa.RegOp(isa.V(int(r2) % 8)),
				isa.RegOp(isa.V(int(r3) % 8)),
			},
		}
		if in.Op == isa.OpNeg {
			in.Ops = in.Ops[:2]
		}
		p := &Program{}
		p.Add(in)
		q, err := Parse(p.String())
		if err != nil {
			return false
		}
		return len(q.Instrs) == 1 && q.Instrs[0].String() == in.String()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestProgramStringContainsData(t *testing.T) {
	p := MustParse(".data q 16 3.5\n\tnop")
	if !strings.Contains(p.String(), ".data q 16 3.5") {
		t.Errorf("String() missing data directive:\n%s", p.String())
	}
}

// TestParseNeverPanics: the parser returns errors, never panics, on
// arbitrary byte soup.
func TestParseNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Logf("panic on %q: %v", data, r)
				t.FailNow()
			}
		}()
		Parse(string(data))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	// A few structured near-misses.
	for _, src := range []string{
		"ld.l", "ld.l ,", "add.d v0 v1 v2", ".data", ".data x",
		"L1:L2:", "jmp", "ld.l x(a0", "mov #,s0", "add.w ##1,s0",
		"ld.l (a0),v0", "st.l v0,", "\x00\x01\x02",
	} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("panic on %q: %v", src, r)
				}
			}()
			Parse(src)
		}()
	}
}
