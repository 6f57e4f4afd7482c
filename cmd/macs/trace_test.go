package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"macs"
	"macs/internal/lfk"
	"macs/internal/obs"
)

// simEvents returns the simulator-lane entries (pid 1) of a Chrome
// trace document, raw, and the start of its "simulate" span.
func simEvents(t *testing.T, doc []byte) (lanes []json.RawMessage, simulateTS int64) {
	t.Helper()
	var d struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(doc, &d); err != nil {
		t.Fatal(err)
	}
	for _, raw := range d.TraceEvents {
		var e struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			PID  int    `json:"pid"`
			TS   int64  `json:"ts"`
		}
		if err := json.Unmarshal(raw, &e); err != nil {
			t.Fatal(err)
		}
		switch {
		case e.PID == 1:
			lanes = append(lanes, raw)
		case e.Ph == "X" && e.Name == "simulate" && simulateTS == 0:
			simulateTS = e.TS
		}
	}
	return lanes, simulateTS
}

// TestCmdAnalyzeTraceGoldenLFK checks `macs analyze -trace` on every
// case-study kernel: the lane rows of the written document are
// byte-identical to eager vm.LaneEvents rendering of the same run,
// anchored at the same simulate span.
func TestCmdAnalyzeTraceGoldenLFK(t *testing.T) {
	dir := t.TempDir()
	for _, k := range lfk.All() {
		src := filepath.Join(dir, fmt.Sprintf("lfk%d.f", k.ID))
		if err := os.WriteFile(src, []byte(k.Source), 0o644); err != nil {
			t.Fatal(err)
		}
		var ints []string
		for name, v := range k.Ints {
			ints = append(ints, fmt.Sprintf("%s=%d", name, v))
		}
		sort.Strings(ints)
		tracePath := filepath.Join(dir, fmt.Sprintf("lfk%d.json", k.ID))
		var out strings.Builder
		args := []string{src, "-n", fmt.Sprint(k.Elements), "-ints", strings.Join(ints, ","), "-trace", tracePath}
		if err := cmdAnalyze(&out, args); err != nil {
			t.Fatalf("lfk%d: %v", k.ID, err)
		}
		doc, err := os.ReadFile(tracePath)
		if err != nil {
			t.Fatal(err)
		}
		got, simulateTS := simEvents(t, doc)

		cfg := macs.DefaultVMConfig()
		cfg.Trace = true
		ref, err := macs.AnalyzeSourceVM(k.Source, int64(k.Elements), cfg, primeFunc(k.DataInts()))
		if err != nil {
			t.Fatalf("lfk%d: %v", k.ID, err)
		}
		want := macs.LaneEvents(ref.Trace)
		eager, err := obs.ChromeTrace(obs.TraceView{
			Spans: []obs.SpanView{{Name: "simulate", Parent: -1, StartUS: simulateTS, Complete: true}},
			Lanes: want,
		})
		if err != nil {
			t.Fatal(err)
		}
		wantRows, _ := simEvents(t, eager)
		if len(got) == 0 || len(got) != len(wantRows) {
			t.Fatalf("lfk%d: %d lane entries, want %d", k.ID, len(got), len(wantRows))
		}
		for i := range got {
			if !bytes.Equal(got[i], wantRows[i]) {
				t.Fatalf("lfk%d: lane entry %d differs:\n%s\nwant\n%s", k.ID, i, got[i], wantRows[i])
			}
		}
		if line := fmt.Sprintf("%d lane events", len(want)); !strings.Contains(out.String(), line) {
			t.Errorf("lfk%d: report does not mention %q:\n%s", k.ID, line, out.String())
		}
	}
}
