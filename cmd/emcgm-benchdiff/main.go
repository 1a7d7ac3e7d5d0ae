// Command emcgm-benchdiff compares benchmark recordings and gates CI on
// regressions.
//
//	emcgm-benchdiff old.json new.json        # compare two benchfmt files
//	emcgm-benchdiff -exact-only old.json new.json
//	emcgm-benchdiff -tol 0.15 old.json new.json
//	emcgm-benchdiff -json old.json new.json  # machine-readable report
//	emcgm-benchdiff -ledger led.json         # a ledger vs its own predictions
//	emcgm-benchdiff -perturb 1.25 new.json   # seeded regression to stdout
//
// Two-file mode reads the benchfmt schema emitted by emcgm-bench
// -bench and paramspace -json. "exact" metrics (PDM parallel I/Os,
// rounds) regress on any difference; "lower"/"higher" metrics regress
// only when the movement exceeds -tol AND the two runs' min/max spreads
// don't overlap — so wall-clock noise can't fail a build, and a genuine
// slowdown can't hide inside it. CI compares with -exact-only, since
// wall times aren't comparable across runners.
//
// Ledger mode reads a costmodel ledger export (emcgm-bench -ledger) and
// checks each run's Theorem 2/3 prediction against its own measurement:
// predicted parallel I/Os must equal measured bit-exactly for a run with
// the content-oblivious extents (core.Config.Oblivious), and bound the
// measured count from above for a live-extent run — reported as an
// exact parallel_ios_over_bound of zero beside the two counts. With
// -model-tol it additionally requires the modelled wall time within the
// given relative tolerance of the measured wall (meaningful only for
// ledgers calibrated on a disk model where I/O dominates, e.g.
// DelayDisk; see EXPERIMENTS.md).
//
// -perturb writes a copy of the file with every metric made worse (exact
// counts shifted by one, wall times scaled). CI diffs it against the
// original to prove the gate fires.
//
// Exit status: 0 = no regression, 1 = regression, 2 = usage or I/O
// error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/benchfmt"
	"repro/internal/costmodel"
)

func main() {
	tol := flag.Float64("tol", 0.10, "relative tolerance for lower/higher-better metrics")
	exactOnly := flag.Bool("exact-only", false, "compare only exact (model-determined) metrics")
	jsonOut := flag.Bool("json", false, "emit the comparison report as JSON")
	ledger := flag.String("ledger", "", "check a costmodel ledger export against its own predictions instead of comparing two files")
	modelTol := flag.Float64("model-tol", 0, "in -ledger mode, also require modelled wall within this relative tolerance of measured (0 = report ops only)")
	perturb := flag.Float64("perturb", 0, "read one file and write a copy with every metric made worse by this factor to stdout (CI gate self-test)")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "emcgm-benchdiff: %v\n", err)
		os.Exit(2)
	}

	switch {
	case *perturb != 0:
		if flag.NArg() != 1 {
			fail(fmt.Errorf("-perturb takes exactly one file, got %d args", flag.NArg()))
		}
		f, err := benchfmt.ReadFile(flag.Arg(0))
		if err != nil {
			fail(err)
		}
		if err := benchfmt.Perturb(f, *perturb).Write(os.Stdout); err != nil {
			fail(err)
		}
		return

	case *ledger != "":
		if flag.NArg() != 0 {
			fail(fmt.Errorf("-ledger takes no positional args, got %d", flag.NArg()))
		}
		in, err := os.Open(*ledger)
		if err != nil {
			fail(err)
		}
		runs, err := costmodel.ReadLedgerJSON(in)
		_ = in.Close() // read-only; the decode error is authoritative
		if err != nil {
			fail(err)
		}
		if len(runs) == 0 {
			fail(fmt.Errorf("%s: ledger has no runs", *ledger))
		}
		pred, meas := ledgerFiles(runs, *modelTol > 0)
		opt := benchfmt.Options{Tol: *modelTol}
		rep := benchfmt.Compare(pred, meas, opt)
		// A model-accuracy check is symmetric: a measured wall far *below*
		// the model is drift too, not an improvement.
		for i, d := range rep.Deltas {
			if d.Metric == "wall" && d.Verdict == benchfmt.Improvement {
				rep.Deltas[i].Verdict = benchfmt.Regression
				rep.Improvements--
				rep.Regressions++
			}
		}
		report(rep, *jsonOut)
		return

	default:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: emcgm-benchdiff [flags] old.json new.json (see -h)")
			os.Exit(2)
		}
		oldF, err := benchfmt.ReadFile(flag.Arg(0))
		if err != nil {
			fail(err)
		}
		newF, err := benchfmt.ReadFile(flag.Arg(1))
		if err != nil {
			fail(err)
		}
		if oldF.Machine != newF.Machine && !*exactOnly && !*jsonOut {
			fmt.Fprintf(os.Stderr, "emcgm-benchdiff: warning: files come from different machines (%+v vs %+v); wall times are not comparable\n",
				oldF.Machine, newF.Machine)
		}
		opt := benchfmt.Options{Tol: *tol, ExactOnly: *exactOnly}
		report(benchfmt.Compare(oldF, newF, opt), *jsonOut)
	}
}

// ledgerFiles converts a ledger export into a predicted-side and a
// measured-side benchfmt file so ledger mode reuses the same comparison
// and report machinery: predictions are the baseline the measurements
// must match.
func ledgerFiles(runs []costmodel.ExportedRun, withWall bool) (pred, meas *benchfmt.File) {
	pred = &benchfmt.File{Version: benchfmt.Version, Tool: "ledger:predicted"}
	meas = &benchfmt.File{Version: benchfmt.Version, Tool: "ledger:measured"}
	for i, r := range runs {
		name := r.Name
		if name == "" {
			name = fmt.Sprintf("run %d", i)
		}
		pm := []benchfmt.Metric{benchfmt.ExactMetric("parallel_ios", "ops", r.PredOps)}
		mm := []benchfmt.Metric{benchfmt.ExactMetric("parallel_ios", "ops", r.Totals.ParallelOps)}
		if !r.Machine.Oblivious {
			// A live-extent run's prediction is an upper bound: the excess
			// over it must be exactly zero, and the counts compare as a
			// lower-is-better metric.
			over := max(0, r.Totals.ParallelOps-r.PredOps)
			pm = []benchfmt.Metric{benchfmt.ExactMetric("parallel_ios_over_bound", "ops", 0),
				{Name: "parallel_ios", Unit: "ops", Better: benchfmt.Lower, Value: float64(r.PredOps)}}
			mm = []benchfmt.Metric{benchfmt.ExactMetric("parallel_ios_over_bound", "ops", over),
				{Name: "parallel_ios", Unit: "ops", Better: benchfmt.Lower, Value: float64(r.Totals.ParallelOps)}}
		}
		if withWall {
			pm = append(pm, benchfmt.Metric{Name: "wall", Unit: "ns", Better: benchfmt.Lower, Value: float64(r.ModelWallNs)})
			mm = append(mm, benchfmt.Metric{Name: "wall", Unit: "ns", Better: benchfmt.Lower, Value: float64(r.WallNs)})
		}
		pred.Add(name, 1, pm...)
		meas.Add(name, 1, mm...)
	}
	return pred, meas
}

func report(rep *benchfmt.Report, jsonOut bool) {
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintf(os.Stderr, "emcgm-benchdiff: %v\n", err)
			os.Exit(2)
		}
	} else if err := rep.WriteText(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "emcgm-benchdiff: %v\n", err)
		os.Exit(2)
	}
	if rep.HasRegression() {
		os.Exit(1)
	}
}
