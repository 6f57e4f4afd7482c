package obs

import (
	"encoding/json"
	"sort"
)

// This file renders a completed trace as a Chrome trace_event JSON
// document (chrome://tracing, Perfetto): the request's nested pipeline
// spans on one "request" thread, and — when the traced run simulated —
// the simulator's per-lane occupancy rows merged into the same timeline,
// anchored at the start of the span that ran the simulation. Span
// timestamps are wall-clock microseconds from the trace origin; lane
// events are clock cycles displayed as microseconds, so one simulated
// cycle renders as one microsecond inside the simulate span's window.

// chromeEvent is one entry of the trace_event format ("X" complete
// events plus "M" metadata naming processes and threads).
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	TS   int64          `json:"ts,omitempty"`
	Dur  int64          `json:"dur,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeDoc struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

const (
	chromePIDRequest = 0 // pipeline spans
	chromePIDSim     = 1 // simulator lanes
)

// ChromeTrace renders the trace's spans, merged with its simulator lane
// events, as Chrome trace_event JSON. Pending lanes of a Snapshot are
// rendered first.
func ChromeTrace(v TraceView) ([]byte, error) {
	v = v.WithLanes()
	doc := chromeDoc{DisplayTimeUnit: "ms", TraceEvents: []chromeEvent{}}
	doc.TraceEvents = append(doc.TraceEvents,
		chromeEvent{Name: "process_name", Ph: "M", PID: chromePIDRequest,
			Args: map[string]any{"name": "request " + v.ID}},
		chromeEvent{Name: "thread_name", Ph: "M", PID: chromePIDRequest, TID: 0,
			Args: map[string]any{"name": "pipeline"}},
	)
	for i, sp := range v.Spans {
		dur := sp.DurUS
		if dur <= 0 {
			dur = 1
		}
		args := map[string]any{"span": i}
		if sp.Parent >= 0 && sp.Parent < len(v.Spans) {
			args["parent"] = v.Spans[sp.Parent].Name
		}
		if !sp.Complete {
			args["complete"] = false
		}
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: sp.Name,
			Ph:   "X",
			PID:  chromePIDRequest,
			TID:  0,
			TS:   sp.StartUS,
			Dur:  dur,
			Args: args,
		})
	}

	if len(v.Lanes) > 0 {
		// Anchor the cycle timeline at the simulate span when one exists,
		// so the lane rows render inside the stage that produced them.
		var anchorUS int64
		for _, sp := range v.Spans {
			if sp.Name == "simulate" {
				anchorUS = sp.StartUS
				break
			}
		}
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: "process_name", Ph: "M", PID: chromePIDSim,
			Args: map[string]any{"name": "simulator lanes (1 cycle = 1us)"},
		})
		// Stable lane → tid assignment in first-appearance order.
		tids := map[string]int{}
		var names []string
		for _, e := range v.Lanes {
			if _, ok := tids[e.Lane]; !ok {
				tids[e.Lane] = len(tids)
				names = append(names, e.Lane)
			}
		}
		sort.Slice(names, func(i, j int) bool { return tids[names[i]] < tids[names[j]] })
		for _, lane := range names {
			doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
				Name: "thread_name", Ph: "M", PID: chromePIDSim, TID: tids[lane],
				Args: map[string]any{"name": lane},
			})
		}
		for _, e := range v.Lanes {
			dur := e.Dur
			if dur <= 0 {
				dur = 1
			}
			doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
				Name: e.Name,
				Ph:   "X",
				PID:  chromePIDSim,
				TID:  tids[e.Lane],
				TS:   anchorUS + e.Start,
				Dur:  dur,
				Args: e.Args,
			})
		}
	}
	return json.MarshalIndent(doc, "", " ")
}
