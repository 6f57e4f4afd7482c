package macs_test

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"macs"
	"macs/internal/compiler"
	"macs/internal/core"
	"macs/internal/depgraph"
	"macs/internal/ftn"
	"macs/internal/isa"
	"macs/internal/verify"
)

const frontEndGoldenPath = "testdata/frontend_golden.txt.gz"

// frontEndGoldenRegs is every register the interval analysis tracks:
// the a and s files, VL and VS.
func frontEndGoldenRegs() []isa.Reg {
	var regs []isa.Reg
	for n := 0; n < isa.NumARegs; n++ {
		regs = append(regs, isa.Reg{Class: isa.ClassA, N: n})
	}
	for n := 0; n < isa.NumSRegs; n++ {
		regs = append(regs, isa.Reg{Class: isa.ClassS, N: n})
	}
	return append(regs, isa.VL(), isa.VS())
}

// renderFrontEnd writes everything the cold front end produces for one
// source at one vector length: the compiled program, the verifier's
// findings in order, the bounds hierarchy with t_CP, the critical path
// and its dependence edges, and the interval of every tracked register
// before every instruction.
func renderFrontEnd(w io.Writer, src string, vl int) {
	parsed, err := ftn.Parse(src)
	if err != nil {
		fmt.Fprintf(w, "parse error: %v\n", err)
		return
	}
	opts := compiler.DefaultOptions()
	opts.VL = vl
	prog, err := compiler.CompileProgram(parsed, opts)
	if err != nil {
		fmt.Fprintf(w, "compile error: %v\n", err)
		return
	}
	fmt.Fprintf(w, "-- program\n%s", prog.String())
	fmt.Fprintf(w, "-- verify\n")
	for _, d := range verify.Check(prog) {
		fmt.Fprintf(w, "%s\n", d)
	}
	a, err := macs.BoundCompiled(src, prog, vl, core.DefaultRules())
	fmt.Fprintf(w, "-- bound\nerr=%v\n%+v\n", err, a)
	cp, g, ok := depgraph.Analyze(prog, vl, depgraph.DefaultParams())
	fmt.Fprintf(w, "-- depgraph ok=%v\n%+v\n", ok, cp)
	if ok {
		for _, e := range g.Edges {
			fmt.Fprintf(w, "%s reg=%v mem=%v\n", e, e.Reg, e.Mem)
		}
	}
	fmt.Fprintf(w, "-- intervals\n")
	iv := depgraph.Intervals(prog)
	regs := frontEndGoldenRegs()
	for i := range prog.Instrs {
		fmt.Fprintf(w, "%d:", i)
		for _, r := range regs {
			fmt.Fprintf(w, " %v", iv.Reg(i, r))
		}
		fmt.Fprintln(w)
	}
}

// renderFrontEndCorpus renders the ten case-study kernels at VL 128, 64
// and 32 plus the FuzzFtnParse hand seeds (the FuzzDepGraph seeds are the
// kernels themselves), in a fixed order.
func renderFrontEndCorpus() []byte {
	srcs := parseOnceCorpus()
	names := make([]string, 0, len(srcs))
	for name := range srcs {
		names = append(names, name)
	}
	sort.Strings(names)
	var buf bytes.Buffer
	for _, name := range names {
		for _, vl := range []int{128, 64, 32} {
			fmt.Fprintf(&buf, "==== %s vl=%d\n", name, vl)
			renderFrontEnd(&buf, srcs[name], vl)
		}
	}
	return buf.Bytes()
}

// TestFrontEndGolden pins the whole cold front end byte for byte against
// a rendering recorded before its allocation work: compiled code,
// diagnostics, bounds, dependence edges and every interval. For an
// intended change of output, delete the golden file and run the test
// once: it records the current rendering and fails, asking for a rerun.
func TestFrontEndGolden(t *testing.T) {
	got := renderFrontEndCorpus()
	f, err := os.Open(frontEndGoldenPath)
	if errors.Is(err, fs.ErrNotExist) {
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf)
		zw.Write(got)
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(frontEndGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(frontEndGoldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("recorded a new %s; rerun the test", frontEndGoldenPath)
	}
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	want, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	section := ""
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if strings.HasPrefix(w, "====") {
			section = w
		}
		if g != w {
			t.Fatalf("front-end output differs from the golden at line %d (%s):\ngot:  %s\nwant: %s", i+1, section, g, w)
		}
	}
}
