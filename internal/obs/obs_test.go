package obs

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestStartWithoutTraceIsInert(t *testing.T) {
	ctx := context.Background()
	ctx2, sp := Start(ctx, "compile")
	if sp != nil {
		t.Fatalf("Start without a trace returned a live span")
	}
	if ctx2 != ctx {
		t.Fatalf("Start without a trace replaced the context")
	}
	sp.End() // must not panic
	var nilTrace *Trace
	if v := nilTrace.View(); v.ID != "" || len(v.Spans) != 0 {
		t.Fatalf("nil trace view not empty: %+v", v)
	}
	if d := nilTrace.StageDurations(); d != nil {
		t.Fatalf("nil trace stage durations: %v", d)
	}
}

func TestSpanNesting(t *testing.T) {
	tr := NewTrace("abc")
	ctx := NewContext(context.Background(), tr)

	ctx, root := Start(ctx, "analyze")
	cctx, compile := Start(ctx, "compile")
	compile.End()
	_, sim := Start(ctx, "simulate")
	_, inner := Start(cctx, "lex") // nests under compile even after its End
	inner.End()
	sim.End()
	root.End()

	v := tr.View()
	if v.ID != "abc" {
		t.Fatalf("trace id = %q", v.ID)
	}
	want := []struct {
		name   string
		parent int
	}{
		{"analyze", -1},
		{"compile", 0},
		{"simulate", 0},
		{"lex", 1},
	}
	if len(v.Spans) != len(want) {
		t.Fatalf("got %d spans, want %d: %+v", len(v.Spans), len(want), v.Spans)
	}
	for i, w := range want {
		if v.Spans[i].Name != w.name || v.Spans[i].Parent != w.parent {
			t.Errorf("span %d = %q parent %d, want %q parent %d",
				i, v.Spans[i].Name, v.Spans[i].Parent, w.name, w.parent)
		}
		if !v.Spans[i].Complete {
			t.Errorf("span %q not complete", w.name)
		}
	}
}

func TestEndIdempotent(t *testing.T) {
	tr := NewTrace("")
	ctx := NewContext(context.Background(), tr)
	_, sp := Start(ctx, "x")
	sp.End()
	d1 := tr.View().Spans[0].DurUS
	time.Sleep(2 * time.Millisecond)
	sp.End()
	if d2 := tr.View().Spans[0].DurUS; d2 != d1 {
		t.Fatalf("second End changed duration: %d -> %d", d1, d2)
	}
}

func TestStageDurations(t *testing.T) {
	tr := NewTrace("")
	ctx := NewContext(context.Background(), tr)
	for i := 0; i < 3; i++ {
		_, sp := Start(ctx, "item")
		sp.End()
	}
	_, open := Start(ctx, "open")
	_ = open // never ended: must not contribute
	d := tr.StageDurations()
	if _, ok := d["open"]; ok {
		t.Fatalf("unfinished span leaked into stage durations")
	}
	if _, ok := d["item"]; !ok {
		t.Fatalf("completed spans missing from stage durations: %v", d)
	}
}

func TestConcurrentSpansRace(t *testing.T) {
	tr := NewTrace("")
	ctx := NewContext(context.Background(), tr)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				_, sp := Start(ctx, "item")
				sp.End()
			}
		}()
	}
	// Concurrent readers.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				tr.View()
				tr.StageDurations()
			}
		}()
	}
	wg.Wait()
	if n := len(tr.View().Spans); n != 1600 {
		t.Fatalf("got %d spans, want 1600", n)
	}
}

func TestNewIDShapeAndUniqueness(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		id := NewID()
		if len(id) != 16 {
			t.Fatalf("id %q: want 16 hex chars", id)
		}
		if seen[id] {
			t.Fatalf("duplicate id %q", id)
		}
		seen[id] = true
	}
}

func TestChromeTraceMergesLanes(t *testing.T) {
	tr := NewTrace("deadbeef00000000")
	ctx := NewContext(context.Background(), tr)
	ctx, root := Start(ctx, "analyze")
	_, sim := Start(ctx, "simulate")
	tr.AddLanes(func() []LaneEvent {
		return []LaneEvent{
			{Lane: "add pipe", Name: "vadd", Start: 0, Dur: 10, Args: map[string]any{"vl": 128}},
			{Lane: "load/store pipe", Name: "vload", Start: 2, Dur: 12},
		}
	})
	sim.End()
	root.End()

	b, err := ChromeTrace(tr.View())
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("chrome export is not JSON: %v", err)
	}
	var spanNames, laneNames, threadNames []string
	for _, e := range doc.TraceEvents {
		switch e["ph"] {
		case "X":
			if e["pid"].(float64) == chromePIDRequest {
				spanNames = append(spanNames, e["name"].(string))
			} else {
				laneNames = append(laneNames, e["name"].(string))
			}
		case "M":
			if e["name"] == "thread_name" {
				args := e["args"].(map[string]any)
				threadNames = append(threadNames, args["name"].(string))
			}
		}
	}
	if strings.Join(spanNames, ",") != "analyze,simulate" {
		t.Errorf("span events = %v", spanNames)
	}
	if strings.Join(laneNames, ",") != "vadd,vload" {
		t.Errorf("lane events = %v", laneNames)
	}
	joined := strings.Join(threadNames, ",")
	for _, want := range []string{"pipeline", "add pipe", "load/store pipe"} {
		if !strings.Contains(joined, want) {
			t.Errorf("thread names %q missing %q", joined, want)
		}
	}
}

// TestLanesRenderedOnRead pins the deferred lane contract: a trace that
// is never read never renders its lanes, and however many views of it
// are read — live, or from retained snapshots, concurrently — the
// renderer runs once and every view carries the same rows.
func TestLanesRenderedOnRead(t *testing.T) {
	rows := []LaneEvent{{Lane: "add pipe", Name: "add.d v0,v1,v2", Start: 3, Dur: 128}}
	counted := func(calls *atomic.Int32) func() []LaneEvent {
		return func() []LaneEvent {
			calls.Add(1)
			return rows
		}
	}

	var unread atomic.Int32
	tr := NewTrace("")
	ctx := NewContext(context.Background(), tr)
	_, sim := Start(ctx, "simulate")
	tr.AddLanes(counted(&unread))
	sim.End()
	snap := tr.Snapshot()
	tr.StageDurations()
	if len(snap.Lanes) != 0 {
		t.Fatalf("snapshot rendered its lanes: %+v", snap.Lanes)
	}
	if n := unread.Load(); n != 0 {
		t.Fatalf("renderer ran %d times for a trace never read, want 0", n)
	}

	var read atomic.Int32
	tr = NewTrace("")
	tr.AddLanes(counted(&read))
	snap = tr.Snapshot()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				for _, v := range []TraceView{snap.WithLanes(), tr.View()} {
					if !reflect.DeepEqual(v.Lanes, rows) {
						t.Errorf("view lanes = %+v, want %+v", v.Lanes, rows)
					}
				}
				if _, err := ChromeTrace(snap); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	if n := read.Load(); n != 1 {
		t.Fatalf("renderer ran %d times across repeated reads, want 1", n)
	}
}

func TestRuntimeSampler(t *testing.T) {
	s := StartRuntimeSampler(time.Second)
	defer s.Stop()
	st := s.Stats()
	if st.SampledAt.IsZero() {
		t.Fatalf("sampler did not sample immediately")
	}
	if st.Goroutines <= 0 || st.HeapAllocBytes == 0 {
		t.Fatalf("implausible runtime sample: %+v", st)
	}
	var nilSampler *RuntimeSampler
	if got := nilSampler.Stats(); !got.SampledAt.IsZero() {
		t.Fatalf("nil sampler returned a sample")
	}
	nilSampler.Stop()
}

// BenchmarkStartDisabled pins the disabled-path cost: one context.Value
// lookup and two nil checks. The ≤2% facade overhead budget in
// bench_test.go rests on this staying in the nanoseconds.
func BenchmarkStartDisabled(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, sp := Start(ctx, "stage")
		sp.End()
	}
}

func BenchmarkStartEnabled(b *testing.B) {
	tr := NewTrace("")
	ctx := NewContext(context.Background(), tr)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, sp := Start(ctx, "stage")
		sp.End()
	}
}
