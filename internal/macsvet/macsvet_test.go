package macsvet

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestFixtureFindings runs every rule over the crafted violation fixture
// and checks the exact set of findings.
func TestFixtureFindings(t *testing.T) {
	fs, err := Run(filepath.Join("testdata", "src", "fixture"))
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		file, rule, msg string
	}{
		{"caller/caller.go", "musttest", "MustRun panics on error"},
		{"eng/eng.go", "nopanic", "naked panic in Run"},
		{"enums/enums.go", "exhaustive", "missing Blue"},
		{"internal/service/spans.go", "spanend", `span "sp" can leave the function before sp.End()`},
		{"internal/service/spans.go", "spanend", "discarded and can never be ended"},
		{"internal/service/spans.go", "spanend", `span "sp" is not ended in the block that starts it`},
		{"paint/paint.go", "exhaustive", "missing Green, Blue"},
	}
	if len(fs) != len(want) {
		t.Fatalf("got %d findings, want %d:\n%v", len(fs), len(want), fs)
	}
	for i, w := range want {
		f := fs[i]
		if !strings.HasSuffix(filepath.ToSlash(f.Pos.Filename), w.file) {
			t.Errorf("finding %d in %s, want %s", i, f.Pos.Filename, w.file)
		}
		if f.Rule != w.rule {
			t.Errorf("finding %d rule = %s, want %s", i, f.Rule, w.rule)
		}
		if !strings.Contains(f.Message, w.msg) {
			t.Errorf("finding %d message = %q, want substring %q", i, f.Message, w.msg)
		}
	}
}

// TestModuleClean runs macsvet over the real module: the repo must obey
// its own invariants.
func TestModuleClean(t *testing.T) {
	fs, err := Run(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fs {
		t.Errorf("module finding: %s", f)
	}
}

func TestIsMustName(t *testing.T) {
	for name, want := range map[string]bool{
		"Must":        true,
		"MustParse":   true,
		"MustCompile": true,
		"Mustache":    false,
		"mustParse":   false,
		"Parse":       false,
	} {
		if got := isMustName(name); got != want {
			t.Errorf("isMustName(%q) = %v, want %v", name, got, want)
		}
	}
}

// TestDepGraphRule pins the depgraph rule: a CP solver whose edgeWeight
// switch skips an edge kind, under an enum that lost its exhaustiveness
// marker, produces both findings.
func TestDepGraphRule(t *testing.T) {
	fs, err := Run(filepath.Join("testdata", "src", "depbad"))
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		file, rule, msg string
	}{
		{"internal/depgraph/graph.go", "depgraph", "lost its macsvet:exhaustive marker"},
		{"internal/depgraph/graph.go", "depgraph", "edgeWeight does not handle edge kind(s) EdgeOutput"},
	}
	if len(fs) != len(want) {
		t.Fatalf("got %d findings, want %d:\n%v", len(fs), len(want), fs)
	}
	for i, w := range want {
		f := fs[i]
		if !strings.HasSuffix(filepath.ToSlash(f.Pos.Filename), w.file) {
			t.Errorf("finding %d in %s, want %s", i, f.Pos.Filename, w.file)
		}
		if f.Rule != w.rule || !strings.Contains(f.Message, w.msg) {
			t.Errorf("finding %d = %s: %s, want %s containing %q", i, f.Rule, f.Message, w.rule, w.msg)
		}
	}
}

// TestFingerprintRule pins the fingerprint rule: a vm.Machine whose
// Fingerprint method skips fields — including an embedded one — is one
// finding naming every missing field.
func TestFingerprintRule(t *testing.T) {
	fs, err := Run(filepath.Join("testdata", "src", "fpbad"))
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 1 {
		t.Fatalf("got %d findings, want 1:\n%v", len(fs), fs)
	}
	f := fs[0]
	if f.Rule != "fingerprint" {
		t.Fatalf("rule = %s, want fingerprint", f.Rule)
	}
	if !strings.HasSuffix(filepath.ToSlash(f.Pos.Filename), "internal/vm/machine.go") {
		t.Errorf("finding in %s, want internal/vm/machine.go", f.Pos.Filename)
	}
	if !strings.Contains(f.Message, "MemSlowdown, Geometry") {
		t.Errorf("message = %q, want the missing fields MemSlowdown, Geometry", f.Message)
	}
}

// TestFindingsCarryPositions: every finding from every fixture anchors
// to a real file:line — the CLI prints file:line:col: rule: message, and
// token.NoPos would render as "-", breaking that contract.
func TestFindingsCarryPositions(t *testing.T) {
	for _, fixture := range []string{"fixture", "depbad", "fpbad"} {
		fs, err := Run(filepath.Join("testdata", "src", fixture))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range fs {
			if f.Pos.Filename == "" || f.Pos.Line <= 0 {
				t.Errorf("%s: finding without a source position: %s", fixture, f)
			}
			if !strings.Contains(f.String(), ".go:") {
				t.Errorf("%s: finding does not render file:line: %q", fixture, f.String())
			}
		}
	}
}
