package isa_test

import (
	"reflect"
	"testing"

	"macs/internal/asm"
	"macs/internal/compiler"
	"macs/internal/isa"
	"macs/internal/lfk"
)

// refSources is the allocating operand decode AppendSources replaced,
// kept verbatim as the reference the append forms must reproduce.
func refSources(in isa.Instr) []isa.Reg {
	var srcs []isa.Reg
	n := len(in.Ops)
	for i, o := range in.Ops {
		switch o.Kind {
		case isa.KindReg:
			isDst := i == n-1
			switch in.Op {
			case isa.OpSt, isa.OpLe, isa.OpLt, isa.OpGt, isa.OpGe, isa.OpEq, isa.OpNe, isa.OpJbrs, isa.OpJmp:
				isDst = false
			}
			if !isDst {
				srcs = append(srcs, o.Reg)
			}
		case isa.KindMem:
			if !o.Base.IsZero() {
				srcs = append(srcs, o.Base)
			}
		}
	}
	if in.IsVector() && in.IsMemory() {
		srcs = append(srcs, isa.VL(), isa.VS())
	} else if in.IsVector() {
		srcs = append(srcs, isa.VL())
	}
	return srcs
}

func refVectorReads(in isa.Instr) []isa.Reg {
	var rs []isa.Reg
	for _, r := range refSources(in) {
		if r.Class == isa.ClassV {
			rs = append(rs, r)
		}
	}
	return rs
}

// decodeCorpus returns every instruction of the ten LFKs compiled at VL
// 128, 64 and 32, plus the FuzzAsmParse hand-written seed.
func decodeCorpus(t *testing.T) []isa.Instr {
	t.Helper()
	var out []isa.Instr
	for _, vl := range []int{128, 64, 32} {
		opts := compiler.DefaultOptions()
		opts.VL = vl
		for _, k := range lfk.All() {
			p, err := compiler.Compile(k.Source, opts)
			if err != nil {
				t.Fatalf("lfk%d at VL %d: %v", k.ID, vl, err)
			}
			out = append(out, p.Instrs...)
		}
	}
	p, err := asm.Parse("main:\n  mov 8,vs\n  mov 4,vl\n  ld.d d_X(a0),v0\n.data d_X 64\n")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, p.Instrs...)
}

// TestAppendDecodeMatchesReference pins the append forms (and the
// wrappers over them) to the reference decode on every instruction of
// the corpus, appending after existing contents as well as into an empty
// buffer, and checks the stack-buffer call shape allocates nothing.
func TestAppendDecodeMatchesReference(t *testing.T) {
	sentinel := isa.A(7)
	for _, in := range decodeCorpus(t) {
		wantS, wantV := refSources(in), refVectorReads(in)
		if got := in.Sources(); !reflect.DeepEqual(got, wantS) {
			t.Fatalf("%s: Sources = %v, want %v", in, got, wantS)
		}
		if got := in.VectorReads(); !reflect.DeepEqual(got, wantV) {
			t.Fatalf("%s: VectorReads = %v, want %v", in, got, wantV)
		}
		var buf [8]isa.Reg
		got := in.AppendSources(append(buf[:0], sentinel))
		if got[0] != sentinel || !equalRegs(got[1:], wantS) {
			t.Fatalf("%s: AppendSources = %v, want %v after %v", in, got, wantS, sentinel)
		}
		got = in.AppendVectorReads(append(buf[:0], sentinel))
		if got[0] != sentinel || !equalRegs(got[1:], wantV) {
			t.Fatalf("%s: AppendVectorReads = %v, want %v after %v", in, got, wantV, sentinel)
		}
		allocs := testing.AllocsPerRun(10, func() {
			var regs [8]isa.Reg
			n := len(in.AppendSources(regs[:0]))
			n += len(in.AppendVectorReads(regs[:0]))
			if n < 0 {
				t.Fail()
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: %v allocs per decode, want 0", in, allocs)
		}
	}
}

func equalRegs(a, b []isa.Reg) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
