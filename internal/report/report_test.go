package report

import (
	"strings"
	"testing"

	"macs/internal/calib"
	"macs/internal/experiments"
	"macs/internal/isa"
	"macs/internal/vm"
)

func TestRender(t *testing.T) {
	out := Render("title", []string{"a", "long-header"}, [][]string{
		{"1", "2"},
		{"333", "4"},
	})
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if lines[0] != "title" {
		t.Errorf("title line = %q", lines[0])
	}
	if !strings.Contains(lines[1], "long-header") {
		t.Errorf("header line = %q", lines[1])
	}
	// Columns align: every data line has the same width as the header.
	if len(lines[3]) != len(lines[1]) || len(lines[4]) != len(lines[1]) {
		t.Errorf("misaligned rows:\n%s", out)
	}
}

func TestTable1Rendering(t *testing.T) {
	res := []calib.Result{{
		Op:     isa.OpLd,
		Format: "ld.l arr(a0),v0",
		Fit:    isa.Timing{X: 2, Y: 10, Z: 1.0, B: 2},
		Spec:   isa.Timing{X: 2, Y: 10, Z: 1.0, B: 2},
	}}
	out := Table1(res)
	for _, want := range []string{"Table 1", "ld", "1.00", "2"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 output missing %q:\n%s", want, out)
		}
	}
}

func TestTable4Rendering(t *testing.T) {
	t4 := experiments.Table4{
		Rows: []experiments.Table4Row{{
			ID: 1, TMA: 0.6, TMAC: 0.8, TMACS: 0.84, TP: 0.85,
			PctMA: 0.7, PctMAC: 0.94, PctMACS: 0.99,
		}},
		Avg:    [4]float64{0.6, 0.8, 0.84, 0.85},
		MFLOPS: [4]float64{41.7, 31.2, 29.8, 29.4},
	}
	out := Table4(t4)
	for _, want := range []string{"Table 4", "0.600", "AVG", "MFLOPS", "99.0%"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table4 output missing %q:\n%s", want, out)
		}
	}
}

func TestFigure3Rendering(t *testing.T) {
	rows := []experiments.Figure3Row{
		{ID: 1, TMA: 0.6, TMAC: 0.8, TMACS: 0.84, Single: 0.85, Multi: 1.1},
	}
	out := Figure3(rows, 1.45)
	for _, want := range []string{"Figure 3", "LFK1", "multi", "#"} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure3 output missing %q:\n%s", want, out)
		}
	}
}

func TestFigure2Rendering(t *testing.T) {
	fig := experiments.Figure2{ChainedCycles: 162, UnchainedCycles: 422, SteadyChime: 132}
	out := Figure2(fig)
	for _, want := range []string{"162", "422", "132"} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure2 output missing %q:\n%s", want, out)
		}
	}
}

func TestEndToEndTables(t *testing.T) {
	// Smoke-render every table from real data.
	cfg := experiments.Default()
	t2, err := experiments.Table2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(Table2(t2), "Table 2") {
		t.Error("Table2 render failed")
	}
	t3, err := experiments.Table3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := Table3(t3)
	if !strings.Contains(out, "t_MACS^m") || len(strings.Split(out, "\n")) < 12 {
		t.Errorf("Table3 render too short:\n%s", out)
	}
}

func TestTable5AndFigure1Rendering(t *testing.T) {
	t5 := []experiments.Table5Row{{ID: 1, TP: 4.57, TMACS: 4.2, TX: 3.25, TMACSf: 3.04, TA: 4.22, TMACSm: 4.16}}
	out := Table5(t5)
	for _, want := range []string{"Table 5", "4.57", "t_MACS^m"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table5 missing %q:\n%s", want, out)
		}
	}
	f1 := []experiments.Hierarchy{{ID: 1, TMA: 3, TMAC: 4, TMACS: 4.2, TMACSf: 3, TMACSm: 4.1, TX: 3.2, TA: 4.2, TP: 4.6}}
	out = Figure1(f1)
	if !strings.Contains(out, "Figure 1") || !strings.Contains(out, "4.60") {
		t.Errorf("Figure1 render:\n%s", out)
	}
}

func TestExtendedAndClusterRendering(t *testing.T) {
	ext := []experiments.ExtendedRow{{ID: 6, TMACS: 2.05, TPlus: 7.1, TD: 2.05, TP: 8.4, PctMACS: 0.24, PctPlus: 0.84}}
	out := Extended(ext)
	for _, want := range []string{"t_MACS+", "t_MACSD", "84.0%"} {
		if !strings.Contains(out, want) {
			t.Errorf("Extended missing %q:\n%s", want, out)
		}
	}
	cl := []experiments.ClusterRow{{ID: 1, SoloCPL: 4.57, ClusterCPL: 4.80, Degradation: 1.051}}
	out = Cluster(cl)
	if !strings.Contains(out, "Co-simulation") || !strings.Contains(out, "5.1%") {
		t.Errorf("Cluster render:\n%s", out)
	}
}

func TestTimelineRendering(t *testing.T) {
	fig, err := experiments.RunFigure2(experiments.Default())
	if err != nil {
		t.Fatal(err)
	}
	out := Timeline(fig.Events, 40)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("timeline lines = %d, want 4 (header + 3 instrs):\n%s", len(lines), out)
	}
	// The chained pattern: each row's '#' starts after the previous one's.
	idx := func(s string) int { return strings.IndexByte(s, '#') }
	if !(idx(lines[1]) < idx(lines[2]) && idx(lines[2]) < idx(lines[3])) {
		t.Errorf("chained stagger not visible:\n%s", out)
	}
	if Timeline(nil, 40) != "" {
		t.Error("empty timeline should render empty")
	}
}

func TestAttributionTableRendering(t *testing.T) {
	var st vm.Stats
	st.Cycles = 100
	for lane := 0; lane < vm.NumLanes; lane++ {
		st.Attr.Lanes[lane].Issue = 60
		st.Attr.Lanes[lane].Stalls[vm.StallStartup] = 10
		st.Attr.Lanes[lane].Stalls[vm.StallDrain] = 30
	}
	out := AttributionTable("Stall attribution", st.Attr, st.Cycles)
	for _, want := range []string{"Stall attribution (100 cycles;", "issue", "startup", "drain", "asu", "load/store", "total", "100"} {
		if !strings.Contains(out, want) {
			t.Errorf("attribution table missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "bank-conflict") {
		t.Errorf("zero cause should be omitted:\n%s", out)
	}
	// total row share is 100% of accounted lane-cycles.
	if !strings.Contains(out, "100.0%") {
		t.Errorf("conserved ledger should show 100.0%% total share:\n%s", out)
	}
}
