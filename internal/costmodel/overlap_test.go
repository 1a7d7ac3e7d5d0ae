package costmodel

import (
	"testing"
	"time"

	"repro/internal/pdm"
)

// TestModelWallPipelined pins the shape of the predicted stall curve:
// stall is non-increasing in k, the synchronous point (k=1) pays the
// whole I/O time, and a deep enough window on a compute-heavy run hides
// the I/O entirely.
func TestModelWallPipelined(t *testing.T) {
	r := Run{
		Machine: Machine{Par: true, V: 16, P: 4, D: 2, B: 64, Rounds: 4},
		PredOps: 4096,
	}
	tm := pdm.DefaultTimeModel()
	compute := 5 * time.Millisecond

	depths := []int{1, 2, 4, 8, 16}
	pts := r.StallCurve(tm, compute, depths)
	if len(pts) != len(depths) {
		t.Fatalf("%d points, want %d", len(pts), len(depths))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Stall > pts[i-1].Stall {
			t.Errorf("stall not monotone: k=%d stall %v > k=%d stall %v",
				pts[i].Depth, pts[i].Stall, pts[i-1].Depth, pts[i-1].Stall)
		}
	}
	// k=1 is the synchronous issue order: its stall is the run's whole
	// modelled I/O time per processor at unbatched service times.
	steps := r.Machine.Rounds * r.Machine.LocalV()
	perProc := r.PredOps / int64(r.Machine.P)
	wantSync := time.Duration(float64(perProc) * float64(tm.BatchTime(r.Machine.B, 1)))
	got := pts[0].Stall
	if diff := got - wantSync; diff < -time.Duration(steps) || diff > time.Duration(steps) {
		t.Errorf("k=1 stall = %v, want ≈ %v (whole modelled I/O time)", got, wantSync)
	}
	if pts[0].StallFrac <= pts[len(pts)-1].StallFrac {
		t.Errorf("stall frac did not fall with depth: k=1 %.3f vs k=16 %.3f",
			pts[0].StallFrac, pts[len(pts)-1].StallFrac)
	}

	// Compute far above the per-step I/O: any real window hides it all.
	huge := r.ModelWallPipelined(tm, time.Hour, 4)
	if huge.Stall != 0 {
		t.Errorf("compute-bound run: stall = %v, want 0", huge.Stall)
	}

	// Degenerate machine: no steps, no panic.
	empty := Run{Machine: Machine{Par: true, V: 4, P: 4, D: 1, B: 8}}
	if pt := empty.ModelWallPipelined(tm, compute, 4); pt.Stall != 0 || pt.Depth != 4 {
		t.Errorf("empty run: point = %+v, want zero stall at depth 4", pt)
	}
}
