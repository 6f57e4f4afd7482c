// Package compiler ties the Fortran-subset front end, the vectorizer and
// the code generator into the full compilation pipeline that stands in
// for the Convex fc compiler in this reproduction.
package compiler

import (
	"fmt"

	"macs/internal/asm"
	"macs/internal/codegen"
	"macs/internal/core"
	"macs/internal/ftn"
	"macs/internal/vectorize"
)

// Options re-exports the code generator options.
type Options = codegen.Options

// DefaultOptions returns the standard compilation options.
func DefaultOptions() Options { return codegen.DefaultOptions() }

// Compile parses, checks and lowers a Fortran-subset source.
func Compile(src string, opts Options) (*asm.Program, error) {
	prog, err := ftn.Parse(src)
	if err != nil {
		return nil, err
	}
	return CompileProgram(prog, opts)
}

// CompileProgram lowers an already-parsed program. The compiled program
// records the tree it was lowered from (see SourceOf); code generation
// only reads it, so several compiles may share one tree.
func CompileProgram(p *ftn.Program, opts Options) (*asm.Program, error) {
	prog, err := codegen.Compile(p, opts)
	if err != nil {
		return nil, err
	}
	prog.Derived(sourceKey{}, func() any { return p })
	return prog, nil
}

// sourceKey is the asm.Program.Derived key of a compiled program's
// parsed source.
type sourceKey struct{}

// SourceOf returns the parsed program prog was compiled from, when prog
// came from Compile or CompileProgram. Copies (asm.Program.Clone) and
// programs parsed from assembly carry none.
func SourceOf(prog *asm.Program) (*ftn.Program, bool) {
	p, _ := prog.Derived(sourceKey{}, func() any { return (*ftn.Program)(nil) }).(*ftn.Program)
	return p, p != nil
}

// InnerLoop returns the deepest-nested DO loop of a program — the loop
// whose performance the MACS analysis targets.
func InnerLoop(p *ftn.Program) (*ftn.DoStmt, bool) {
	var best *ftn.DoStmt
	depth, bestDepth := 0, -1
	var walk func(body []ftn.Stmt)
	walk = func(body []ftn.Stmt) {
		for _, s := range body {
			if do, ok := s.(*ftn.DoStmt); ok {
				if depth > bestDepth {
					best, bestDepth = do, depth
				}
				depth++
				walk(do.Body)
				depth--
			}
		}
	}
	walk(p.Body)
	return best, best != nil
}

// MAWorkload computes the high-level MA workload (paper §3.1) of a
// source's inner loop.
func MAWorkload(src string) (core.Workload, error) {
	prog, err := ftn.Parse(src)
	if err != nil {
		return core.Workload{}, err
	}
	loop, ok := InnerLoop(prog)
	if !ok {
		return core.Workload{}, fmt.Errorf("compiler: no DO loop in program")
	}
	return vectorize.MAWorkload(prog, loop)
}

// DataSym returns the assembly data symbol of a Fortran variable, for
// priming inputs and reading outputs of compiled programs.
func DataSym(name string) string { return codegen.SymName(name) }
