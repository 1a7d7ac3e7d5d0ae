package experiments

import (
	"testing"

	"repro/internal/costmodel"
	"repro/internal/obs"
	"repro/internal/pdm"
)

// TestFig5LedgerReconciles runs the full Figure 5 table — Group A's
// sort/permute/transpose at N and 2N plus the Group B/C composite
// algorithms, every one of whose phases is its own driver run — with a
// cost-model ledger attached, and requires the Theorem 2/3 prediction
// to match the measured parallel I/Os bit-exactly on every run. This is
// the experiments-level version of the costmodel reconciliation test:
// it covers the machines and message geometries the paper's table
// actually uses, at CI scale.
func TestFig5LedgerReconciles(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole Figure 5 table")
	}
	s := DefaultScale()
	s.N = 1 << 13
	s.Rec = obs.NewRecorder()
	s.Ledger = costmodel.NewLedger(pdm.DefaultTimeModel())
	if _, err := Fig5(s); err != nil {
		t.Fatalf("fig5: %v", err)
	}
	if err := s.Ledger.Reconcile(); err != nil {
		t.Fatalf("reconcile: %v", err)
	}
	runs := s.Ledger.Runs()
	if len(runs) < 10 {
		t.Fatalf("ledger recorded %d runs, expected the full Figure 5 table (> 10)", len(runs))
	}
	for i, r := range runs {
		// The harness reproduces the paper's constants: every run uses
		// the content-oblivious extents, so Reconcile held it bit-exact.
		if !r.Machine.Oblivious {
			t.Errorf("run %d (%s) used live extents; the harness must set core.Config.Oblivious", i, r.Name)
		}
		if r.PredOps != r.Totals.ParallelOps {
			t.Errorf("run %d (%s): predicted %d parallel I/Os, measured %d",
				i, r.Name, r.PredOps, r.Totals.ParallelOps)
		}
	}
}
