package experiments

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/approx"
)

var quick = Options{Quick: true}

func runExp(t *testing.T, id string) *Result {
	t.Helper()
	res, err := Run(id, quick)
	if err != nil {
		t.Fatal(err)
	}
	if res.ID != id || res.Title == "" {
		t.Fatalf("malformed result %+v", res)
	}
	if len(res.Tables)+len(res.Figures) == 0 {
		t.Fatal("experiment produced no output")
	}
	return res
}

func TestIDsOrdered(t *testing.T) {
	ids := IDs()
	if len(ids) != 23 {
		t.Fatalf("have %d experiments, want 23", len(ids))
	}
	if ids[0] != "T1" || ids[1] != "T2" || ids[2] != "F1" || ids[22] != "F21" {
		t.Fatalf("ordering: %v", ids)
	}
	for _, id := range ids {
		title, ok := Title(id)
		if !ok || title == "" {
			t.Errorf("%s has no title", id)
		}
	}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := Run("F99", quick); err == nil {
		t.Fatal("unknown id accepted")
	}
	if _, _, err := RunMany([]string{"T1", "F99"}, quick); err == nil {
		t.Fatal("RunMany accepted unknown id")
	}
}

// TestParallelDeterminism pins the runner guarantee at the experiment
// level: fan-out across the worker pool renders byte-identical tables and
// figures to fully sequential execution. F2 fans out system runs, F7
// system runs beside Derive jobs, F11 Derive jobs alone.
func TestParallelDeterminism(t *testing.T) {
	for _, id := range []string{"F2", "F7", "F11"} {
		seqRes, err := Run(id, Options{Quick: true, Parallel: 1})
		if err != nil {
			t.Fatal(err)
		}
		parRes, err := Run(id, Options{Quick: true, Parallel: 8})
		if err != nil {
			t.Fatal(err)
		}
		if seqRes.String() != parRes.String() {
			t.Fatalf("%s output differs under parallelism:\n--- seq ---\n%s--- par ---\n%s",
				id, seqRes, parRes)
		}
	}
}

// TestRunMany checks ordered fan-out over experiment IDs and that the run
// summary sees the simulated-event metrics reports carry.
func TestRunMany(t *testing.T) {
	ids := []string{"F2", "T1", "T2"}
	results, summary, err := RunMany(ids, Options{Quick: true, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(ids) {
		t.Fatalf("got %d results", len(results))
	}
	for i, id := range ids {
		if results[i].ID != id {
			t.Fatalf("result %d is %s, want %s (order broken)", i, results[i].ID, id)
		}
	}
	if summary.Jobs != len(ids) || summary.Errors != 0 {
		t.Fatalf("summary = %+v", summary)
	}
}

func TestT1Structure(t *testing.T) {
	res := runExp(t, "T1")
	if res.Tables[0].NumRows() < 15 {
		t.Fatal("config table too small")
	}
	if !strings.Contains(res.String(), "TLC") {
		t.Fatal("missing NAND config")
	}
}

func TestT2CoversZoo(t *testing.T) {
	res := runExp(t, "T2")
	if res.Tables[0].NumRows() < 5 {
		t.Fatal("model table too small")
	}
	s := res.String()
	for _, name := range []string{"BERT-Large", "GPT-175B", "ResNet-50"} {
		if !strings.Contains(s, name) {
			t.Errorf("missing %s", name)
		}
	}
}

// cell parses a numeric table cell.
func cell(t *testing.T, row []string, i int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(row[i], "x"), 64)
	if err != nil {
		t.Fatalf("cell %q not numeric: %v", row[i], err)
	}
	return v
}

func TestF1HeadlineHolds(t *testing.T) {
	res := runExp(t, "F1")
	// For every model row set, optimstore's opt-step must be below
	// hostoffload's. Use the figure series.
	fig := res.Figures[0]
	var off, opt []float64
	for _, s := range fig.Series {
		for _, p := range s.Points {
			switch s.Name {
			case "hostoffload":
				off = append(off, p.Y)
			case "optimstore":
				opt = append(opt, p.Y)
			}
		}
	}
	if len(off) == 0 || len(off) != len(opt) {
		t.Fatalf("series lengths: off=%d opt=%d", len(off), len(opt))
	}
	for i := range off {
		if opt[i] >= off[i] {
			t.Fatalf("point %d: optimstore %v >= offload %v", i, opt[i], off[i])
		}
	}
}

func TestF2SpeedupAboveOne(t *testing.T) {
	res := runExp(t, "F2")
	tab := res.Tables[0]
	for i := 0; i < tab.NumRows(); i++ {
		if sp := cell(t, tab.Row(i), 4); sp <= 1 {
			t.Fatalf("row %d speedup %v <= 1", i, sp)
		}
	}
}

func TestF3CoversOptimizers(t *testing.T) {
	res := runExp(t, "F3")
	s := res.String()
	for _, name := range []string{"SGD", "Adam", "LAMB"} {
		if !strings.Contains(s, name) {
			t.Errorf("missing %s", name)
		}
	}
}

func TestF4EnergyOrdering(t *testing.T) {
	res := runExp(t, "F4")
	tab := res.Tables[0] // rows: hostoffload, ctrl-isp, optimstore
	off := cell(t, tab.Row(0), 1)
	opt := cell(t, tab.Row(2), 1)
	if opt >= off {
		t.Fatalf("optimstore energy %v >= offload %v", opt, off)
	}
}

func TestF5MoreParallelismFaster(t *testing.T) {
	res := runExp(t, "F5")
	fig := res.Figures[0]
	for _, s := range fig.Series {
		if !strings.HasPrefix(s.Name, "optimstore") {
			continue
		}
		for i := 1; i < len(s.Points); i++ {
			if s.Points[i].Y >= s.Points[i-1].Y {
				t.Fatalf("optimstore not faster with more dies: %v", s.Points)
			}
		}
	}
}

func TestF6LanesSaturate(t *testing.T) {
	res := runExp(t, "F6")
	fig := res.Figures[0]
	pts := fig.Series[0].Points
	if len(pts) < 2 {
		t.Fatal("too few points")
	}
	// More lanes never hurt, and the kernel is memory-bound so the curve
	// must flatten: the last doubling gains less than the first.
	first := pts[0].Y - pts[1].Y
	last := pts[len(pts)-2].Y - pts[len(pts)-1].Y
	if pts[1].Y > pts[0].Y || last > first {
		t.Fatalf("lane scaling not saturating: %v", pts)
	}
}

func TestF7ColocatedWins(t *testing.T) {
	res := runExp(t, "F7")
	tab := res.Tables[0]
	colo := cell(t, tab.Row(0), 2)
	split := cell(t, tab.Row(2), 2)
	if colo >= split {
		t.Fatalf("colocated %v not faster than split %v", colo, split)
	}
}

func TestF8PrecisionRows(t *testing.T) {
	res := runExp(t, "F8")
	tab := res.Tables[0]
	if tab.NumRows() != 6 { // 3 precisions × 2 systems
		t.Fatalf("rows = %d", tab.NumRows())
	}
	// Q8 state must cut OptimStore's NAND program traffic vs Mixed16.
	var mixedProg, q8Prog float64
	for i := 0; i < tab.NumRows(); i++ {
		row := tab.Row(i)
		if row[1] != "optimstore" {
			continue
		}
		switch row[0] {
		case "Mixed16":
			mixedProg = cell(t, row, 4)
		case "Mixed16+Q8state":
			q8Prog = cell(t, row, 4)
		}
	}
	if q8Prog >= mixedProg {
		t.Fatalf("q8 program traffic %v >= mixed16 %v", q8Prog, mixedProg)
	}
}

func TestF9LifetimeOrdering(t *testing.T) {
	res := runExp(t, "F9")
	fig := res.Figures[0]
	pts := fig.Series[0].Points // SLC, MLC, TLC, QLC
	if len(pts) != 4 {
		t.Fatalf("expected 4 cell modes, got %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Y >= pts[i-1].Y {
			t.Fatalf("lifetime not decreasing with bits/cell: %v", pts)
		}
	}
}

func TestF10ThroughputOrdering(t *testing.T) {
	res := runExp(t, "F10")
	fig := res.Figures[0]
	var off, opt *float64
	for _, s := range fig.Series {
		if len(s.Points) == 0 {
			continue
		}
		y := s.Points[len(s.Points)-1].Y
		switch s.Name {
		case "hostoffload":
			off = &y
		case "optimstore":
			opt = &y
		}
	}
	if off == nil || opt == nil || *opt <= *off {
		t.Fatal("optimstore tokens/s should exceed offload")
	}
}

func TestF11WAFvsOP(t *testing.T) {
	res := runExp(t, "F11")
	fig := res.Figures[0]
	for _, s := range fig.Series {
		if len(s.Points) < 2 {
			t.Fatal("too few OP points")
		}
		first := s.Points[0]
		last := s.Points[len(s.Points)-1]
		if last.Y > first.Y {
			t.Fatalf("%s: WAF grew with more over-provisioning: %v", s.Name, s.Points)
		}
	}
	// Random updates amplify at least as much as sequential at low OP.
	seq, _ := fig.Series[0].YAt(0.07)
	rnd, _ := fig.Series[1].YAt(0.07)
	if rnd < seq {
		t.Fatalf("random WAF %v < sequential %v at 7%% OP", rnd, seq)
	}
}

func TestF13SparseScaling(t *testing.T) {
	res := runExp(t, "F13")
	for _, s := range res.Figures[0].Series {
		pts := s.Points
		for i := 1; i < len(pts); i++ {
			if pts[i].Y <= pts[i-1].Y {
				t.Fatalf("%s: step time not growing with update fraction: %v", s.Name, pts)
			}
		}
	}
	// In-storage still wins at every sparsity.
	off := res.Figures[0].Series[0]
	opt := res.Figures[0].Series[1]
	for i := range off.Points {
		if opt.Points[i].Y >= off.Points[i].Y {
			t.Fatalf("optimstore lost at fraction %v", off.Points[i].X)
		}
	}
}

func TestF14CheckpointSpeedup(t *testing.T) {
	res := runExp(t, "F14")
	tab := res.Tables[0]
	for i := 0; i < tab.NumRows(); i++ {
		if sp := cell(t, tab.Row(i), 4); sp <= 1 {
			t.Fatalf("row %d: in-storage checkpoint not faster (%v)", i, sp)
		}
	}
}

func TestF15OverlapOrdering(t *testing.T) {
	res := runExp(t, "F15")
	tab := res.Tables[0]
	for i := 0; i < tab.NumRows(); i++ {
		row := tab.Row(i)
		noOv := cell(t, row, 1)
		layer := cell(t, row, 3)
		if layer >= noOv {
			t.Fatalf("row %d: layerwise sim (%v) not better than no overlap (%v)", i, layer, noOv)
		}
	}
}

func TestF16ClusterMonotone(t *testing.T) {
	res := runExp(t, "F16")
	pts := res.Figures[0].Series[0].Points
	for i := 1; i < len(pts); i++ {
		if pts[i].Y <= pts[i-1].Y {
			t.Fatalf("throughput not growing with workers: %v", pts)
		}
	}
}

func TestF17SuspendImprovesTail(t *testing.T) {
	res := runExp(t, "F17")
	tab := res.Tables[0] // rows: false, true
	offP99 := cell(t, tab.Row(0), 2)
	onP99 := cell(t, tab.Row(1), 2)
	if onP99 >= offP99 {
		t.Fatalf("suspend did not improve p99: %v vs %v", onP99, offP99)
	}
	// Suspend must actually have fired.
	if preempts := cell(t, tab.Row(1), 4); preempts <= 0 {
		t.Fatal("no preemptions recorded")
	}
	if preempts := cell(t, tab.Row(0), 4); !approx.Equal(preempts, 0) {
		t.Fatal("preemptions without suspend")
	}
}

func TestF18CellModeTradeoff(t *testing.T) {
	res := runExp(t, "F18")
	pts := res.Figures[0].Series[0].Points // SLC..QLC step times
	if len(pts) != 4 {
		t.Fatalf("points = %d", len(pts))
	}
	// Faster programming cells give faster steps: SLC < TLC < QLC.
	if !(pts[0].Y < pts[2].Y && pts[2].Y < pts[3].Y) {
		t.Fatalf("step times not ordered by program latency: %v", pts)
	}
}

func TestF19SeparationHelps(t *testing.T) {
	res := runExp(t, "F19")
	tab := res.Tables[0] // rows: false, true
	wafOff := cell(t, tab.Row(0), 1)
	wafOn := cell(t, tab.Row(1), 1)
	if wafOn > wafOff {
		t.Fatalf("separation worsened WAF: %v vs %v", wafOn, wafOff)
	}
}

// TestF20PolicyTrade pins the checkpoint-policy comparison the fault-storm
// experiment exists to show: under the identical storm, in-place
// checkpoints are cheaper to take and to restore from than host-pull but
// pay NAND programs, and any checkpoint beats re-streaming from the host.
func TestF20PolicyTrade(t *testing.T) {
	res := runExp(t, "F20")
	tab := res.Tables[0] // rows: none, inplace, hostpull
	none, inplace, hostpull := tab.Row(0), tab.Row(1), tab.Row(2)
	if none[1] != "none" || inplace[1] != "inplace" || hostpull[1] != "hostpull" {
		t.Fatalf("policy rows misordered: %v / %v / %v", none[1], inplace[1], hostpull[1])
	}
	// The policy is pure accounting: identical storms fire identical faults.
	for c := 2; c <= 4; c++ {
		if none[c] != inplace[c] || none[c] != hostpull[c] {
			t.Fatalf("fired-fault column %d differs across policies", c)
		}
	}
	if cell(t, none, 2)+cell(t, none, 3)+cell(t, none, 4) < 1 {
		t.Fatal("storm fired no faults")
	}
	if cell(t, inplace, 5) >= cell(t, hostpull, 5) {
		t.Fatalf("in-place checkpoint %v ms not cheaper than host-pull %v ms",
			cell(t, inplace, 5), cell(t, hostpull, 5))
	}
	if cell(t, inplace, 6) >= cell(t, none, 6) {
		t.Fatalf("in-place recovery %v ms not cheaper than checkpoint-free %v ms",
			cell(t, inplace, 6), cell(t, none, 6))
	}
	if cell(t, inplace, 8) <= 0 || !approx.Equal(cell(t, hostpull, 8), 0) {
		t.Fatalf("WAF cost: inplace %v GB, hostpull %v GB", cell(t, inplace, 8), cell(t, hostpull, 8))
	}
	// The cross-system table surfaces the storm to all five systems.
	sys := res.Tables[1]
	if sys.NumRows() != 5 {
		t.Fatalf("cross-system table has %d rows", sys.NumRows())
	}
}

func TestF12CostMonotone(t *testing.T) {
	res := runExp(t, "F12")
	tab := res.Tables[0]
	prev := 0.0
	for i := 0; i < tab.NumRows(); i++ {
		area := cell(t, tab.Row(i), 2)
		if area <= prev {
			t.Fatalf("area not increasing with lanes at row %d", i)
		}
		prev = area
	}
}
