package macs_test

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"macs"
	"macs/internal/lfk"
	"macs/internal/obs"
)

// TestTraceLanesGoldenLFK pins deferred lane rendering to eager
// rendering on every case-study kernel: the lanes a trace renders when
// it is read — from the live trace (View) or from a retained snapshot
// (Snapshot, then ChromeTrace) — are exactly vm.LaneEvents applied to
// the run's events, and the Chrome documents are byte-identical.
func TestTraceLanesGoldenLFK(t *testing.T) {
	cfg := macs.DefaultVMConfig()
	cfg.TraceRing = 4096
	an := macs.NewAnalyzer(cfg)
	for _, k := range lfk.All() {
		tr := obs.NewTrace("")
		ctx, root := obs.Start(obs.NewContext(context.Background(), tr), "analyze")
		res, err := an.AnalyzeSourceCtx(ctx, k.Source, int64(k.Elements), k.PrimeFunc())
		root.End()
		if err != nil {
			t.Fatalf("lfk%d: %v", k.ID, err)
		}
		want := macs.LaneEvents(res.Trace)
		if len(want) == 0 {
			t.Fatalf("lfk%d: run recorded no lane events", k.ID)
		}
		snap := tr.Snapshot()
		if len(snap.Lanes) != 0 {
			t.Fatalf("lfk%d: Snapshot rendered its lanes", k.ID)
		}

		v := tr.View()
		if !reflect.DeepEqual(v.Lanes, want) {
			t.Fatalf("lfk%d: deferred lanes differ from vm.LaneEvents", k.ID)
		}
		eager, err := obs.ChromeTrace(obs.TraceView{ID: v.ID, Spans: v.Spans, Lanes: want})
		if err != nil {
			t.Fatal(err)
		}
		for name, view := range map[string]obs.TraceView{"View": v, "Snapshot": snap} {
			got, err := obs.ChromeTrace(view)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, eager) {
				t.Errorf("lfk%d: ChromeTrace(%s) differs from eager rendering", k.ID, name)
			}
		}
	}
}
