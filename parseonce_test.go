package macs_test

import (
	"reflect"
	"testing"

	"macs"
	"macs/internal/compiler"
	"macs/internal/core"
	"macs/internal/ftn"
	"macs/internal/lfk"
)

// parseOnceCorpus is the FuzzFtnParse seed corpus: the ten case-study
// kernels plus the parser's two hand-written seeds.
func parseOnceCorpus() map[string]string {
	srcs := map[string]string{
		"seed-loop": "PROGRAM P\nREAL X(8)\nDO K = 1, 8\n  X(K) = X(K) + 1.5E-3\nENDDO\nEND\n",
		"seed-goto": "10 CONTINUE\nGOTO 10\nEND\n",
	}
	for _, k := range lfk.All() {
		srcs[k.Name] = k.Source
	}
	return srcs
}

// TestParseOnceMatchesReparse is what lets the pipeline parse a source
// once: code generation only reads the AST. After CompileProgram the tree
// deep-equals a fresh parse at several vector lengths, and the bounds
// the pipeline computes from the one parse are bit-equal to bounding the
// compiled program against a re-parse of the source.
func TestParseOnceMatchesReparse(t *testing.T) {
	for name, src := range parseOnceCorpus() {
		for _, vl := range []int{128, 64, 16} {
			opts := compiler.DefaultOptions()
			opts.VL = vl
			parsed, err := ftn.Parse(src)
			if err != nil {
				break // rejected before code generation, on both paths
			}
			_, _ = compiler.CompileProgram(parsed, opts) // a failed compile must leave the AST alone too
			fresh, _ := ftn.Parse(src)
			if !reflect.DeepEqual(parsed, fresh) {
				t.Fatalf("%s vl=%d: code generation mutated the AST", name, vl)
			}
		}

		once, errOnce := macs.BoundSource(src)
		var reparse macs.Analysis
		prog, errRe := compiler.Compile(src, compiler.DefaultOptions())
		if errRe == nil {
			reparse, errRe = macs.BoundCompiled(src, prog, compiler.DefaultOptions().VL, core.DefaultRules())
		}
		if (errOnce != nil) != (errRe != nil) {
			t.Fatalf("%s: parse-once error %v, re-parse error %v", name, errOnce, errRe)
		}
		if !reflect.DeepEqual(once, reparse) {
			t.Errorf("%s: bounds differ\nparse once: %+v\nre-parse:   %+v", name, once, reparse)
		}
		if errOnce == nil && once.MA == (core.Workload{}) {
			t.Errorf("%s: empty MA workload", name)
		}
	}
}

// TestBoundCompiledReusesSource: a compiled program carries the tree it
// was lowered from, so BoundCompiled needs no source text for it (an
// empty string is never parsed) and its bounds are bit-equal to the
// re-parse path — a copy of the program, which carries no tree — on the
// ten LFKs at three vector lengths, all compiled from one parse.
func TestBoundCompiledReusesSource(t *testing.T) {
	for _, k := range lfk.All() {
		parsed, err := ftn.Parse(k.Source)
		if err != nil {
			t.Fatal(err)
		}
		for _, vl := range []int{128, 64, 32} {
			opts := compiler.DefaultOptions()
			opts.VL = vl
			prog, err := compiler.CompileProgram(parsed, opts)
			if err != nil {
				t.Fatalf("lfk%d vl=%d: %v", k.ID, vl, err)
			}
			if src, ok := compiler.SourceOf(prog); !ok || src != parsed {
				t.Fatalf("lfk%d vl=%d: program does not carry the tree it was compiled from", k.ID, vl)
			}
			if _, ok := compiler.SourceOf(prog.Clone()); ok {
				t.Fatalf("lfk%d vl=%d: a copy carries a source tree", k.ID, vl)
			}
			once, err := macs.BoundCompiled("", prog, vl, core.DefaultRules())
			if err != nil {
				t.Fatalf("lfk%d vl=%d: %v", k.ID, vl, err)
			}
			reparse, err := macs.BoundCompiled(k.Source, prog.Clone(), vl, core.DefaultRules())
			if err != nil {
				t.Fatalf("lfk%d vl=%d: %v", k.ID, vl, err)
			}
			if !reflect.DeepEqual(once, reparse) {
				t.Errorf("lfk%d vl=%d: bounds differ\nreused tree: %+v\nre-parse:    %+v", k.ID, vl, once, reparse)
			}
		}
	}
}
