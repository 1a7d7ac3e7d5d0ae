package core_test

import (
	"errors"
	"io"
	"testing"

	"repro/internal/cgm"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pdm"
	"repro/internal/permute"
	"repro/internal/sortalg"
	"repro/internal/transpose"
	"repro/internal/wordcodec"
	"repro/internal/workload"
)

// equivResults asserts a deeper window changed nothing the model can
// see: outputs, the full IOStats (total and per processor), the
// context/message split, and every observed bound are bit-identical to
// the reference run (depth 1, the synchronous issue order). Only Stall
// and Depth — the overlap schedule — may differ.
func equivResults[T comparable](t *testing.T, tag string, ref, got *core.Result[T]) {
	t.Helper()
	if got.IO != ref.IO {
		t.Errorf("%s: IO = %+v, want %+v", tag, got.IO, ref.IO)
	}
	if len(got.IOPerProc) != len(ref.IOPerProc) {
		t.Fatalf("%s: %d per-proc stats, want %d", tag, len(got.IOPerProc), len(ref.IOPerProc))
	}
	for i := range ref.IOPerProc {
		if got.IOPerProc[i] != ref.IOPerProc[i] {
			t.Errorf("%s: proc %d IO = %+v, want %+v", tag, i, got.IOPerProc[i], ref.IOPerProc[i])
		}
	}
	if got.CtxOps != ref.CtxOps || got.MsgOps != ref.MsgOps {
		t.Errorf("%s: CtxOps/MsgOps = %d/%d, want %d/%d", tag, got.CtxOps, got.MsgOps, ref.CtxOps, ref.MsgOps)
	}
	if got.Rounds != ref.Rounds || got.Supersteps != ref.Supersteps {
		t.Errorf("%s: Rounds/Supersteps = %d/%d, want %d/%d", tag, got.Rounds, got.Supersteps, ref.Rounds, ref.Supersteps)
	}
	if got.MaxTracks != ref.MaxTracks {
		t.Errorf("%s: MaxTracks = %d, want %d", tag, got.MaxTracks, ref.MaxTracks)
	}
	if got.MaxH != ref.MaxH || got.CommItems != ref.CommItems {
		t.Errorf("%s: MaxH/CommItems = %d/%d, want %d/%d", tag, got.MaxH, got.CommItems, ref.MaxH, ref.CommItems)
	}
	if got.MaxMsgObserved != ref.MaxMsgObserved || got.MaxCtxObserved != ref.MaxCtxObserved {
		t.Errorf("%s: observed bounds = %d/%d, want %d/%d", tag,
			got.MaxMsgObserved, got.MaxCtxObserved, ref.MaxMsgObserved, ref.MaxCtxObserved)
	}
	if len(got.Outputs) != len(ref.Outputs) {
		t.Fatalf("%s: %d output partitions, want %d", tag, len(got.Outputs), len(ref.Outputs))
	}
	for j := range ref.Outputs {
		if len(got.Outputs[j]) != len(ref.Outputs[j]) {
			t.Fatalf("%s: vp %d output length %d, want %d", tag, j, len(got.Outputs[j]), len(ref.Outputs[j]))
		}
		for k := range ref.Outputs[j] {
			if got.Outputs[j][k] != ref.Outputs[j][k] {
				t.Fatalf("%s: vp %d item %d differs between schedules", tag, j, k)
			}
		}
	}
}

// TestPipelineEquivalence is the acceptance check of the pipelined
// schedule through the public entry points: on sorting, permutation and
// transposition — seq and par — the default depth must reproduce the
// exact outputs and the exact PDM accounting of depth 1, the synchronous
// issue order.
func TestPipelineEquivalence(t *testing.T) {
	const v, n = 8, 1 << 10
	keys := workload.Int64s(11, n)
	dests := workload.Permutation(12, n)

	run := func(t *testing.T, tag string, f func(core.Config) (any, error), base core.Config) {
		t.Helper()
		refCfg, defCfg := base, base
		refCfg.PipelineDepth = 1
		defCfg.PipelineDepth = 0
		ref, err := f(refCfg)
		if err != nil {
			t.Fatalf("%s (k=1): %v", tag, err)
		}
		def, err := f(defCfg)
		if err != nil {
			t.Fatalf("%s (default depth): %v", tag, err)
		}
		switch refR := ref.(type) {
		case *core.Result[int64]:
			equivResults(t, tag, refR, def.(*core.Result[int64]))
		case *core.Result[permute.Item]:
			equivResults(t, tag, refR, def.(*core.Result[permute.Item]))
		default:
			t.Fatalf("%s: unexpected result type %T", tag, ref)
		}
	}

	for _, p := range []int{1, 2, 4} {
		base := core.Config{V: v, P: p, D: 2, B: 8}
		tagP := map[int]string{1: "p=1", 2: "p=2", 4: "p=4"}[p]

		run(t, "sort/"+tagP, func(cfg core.Config) (any, error) {
			_, res, err := sortalg.EMSort(keys, wordcodec.I64{}, cfg)
			return res, err
		}, base)
		run(t, "permute/"+tagP, func(cfg core.Config) (any, error) {
			_, res, err := permute.EMPermute(keys, dests, cfg)
			return res, err
		}, base)
		run(t, "transpose/"+tagP, func(cfg core.Config) (any, error) {
			_, res, err := transpose.EMTranspose(keys, 32, 32, cfg)
			return res, err
		}, base)
	}

	// The sequential machine proper (Algorithm 2, not p=1 of Algorithm 3).
	items := make([]permute.Item, n)
	for i := range items {
		items[i] = permute.Item{Dest: dests[i], Val: keys[i]}
	}
	seqCfg := core.Config{V: v, P: 1, D: 2, B: 8,
		MaxMsgItems: 4*((n+v*v-1)/(v*v)) + v + 16,
		MaxHItems:   2*((n+v-1)/v) + v + 16}
	run(t, "permute/seq", func(cfg core.Config) (any, error) {
		return core.RunSeq[permute.Item](permute.New(n), permute.Codec{}, cfg, cgm.Scatter(items, v))
	}, seqCfg)
	run(t, "sort/seq", func(cfg core.Config) (any, error) {
		return core.RunSeq[int64](sortalg.Sorter[int64]{}, wordcodec.I64{}, sortalg.EMSortConfig(cfg, n), cgm.Scatter(keys, v))
	}, core.Config{V: v, P: 1, D: 2, B: 8})
}

// TestPipelineFaultWithRecorder injects a disk fault into the pipelined
// drivers with a recorder attached: the error must surface from the wait
// path without wedging the pipeline, and the recorder must still export a
// well-formed trace (no span left open crashes the Chrome export, no
// worker result is abandoned).
func TestPipelineFaultWithRecorder(t *testing.T) {
	const v, n = 4, 64
	parts := cgm.Scatter(workload.Int64s(7, n), v)

	for _, p := range []int{1, 2} {
		rec := obs.NewRecorder()
		cfg := core.Config{V: v, P: p, D: 2, B: 8,
			MaxMsgItems: n/v + 4, MaxCtxItems: n/v + 4,
			Recorder: rec,
			NewDisk: func(proc, disk int) pdm.Disk {
				if proc == p-1 && disk == 0 {
					return pdm.NewFaultyDisk(pdm.NewMemDisk(8), 5)
				}
				return pdm.NewMemDisk(8)
			},
		}
		var err error
		if p == 1 {
			_, err = core.RunSeq[int64](echo{}, wordcodec.I64{}, cfg, parts)
		} else {
			_, err = core.RunPar[int64](echo{}, wordcodec.I64{}, cfg, parts)
		}
		if !errors.Is(err, pdm.ErrInjected) {
			t.Fatalf("p=%d: err = %v, want injected disk fault", p, err)
		}
		if err := rec.WriteChromeTrace(io.Discard); err != nil {
			t.Errorf("p=%d: trace export after fault: %v", p, err)
		}
	}
}

// echo circulates partitions for a few rounds — enough I/O for the
// injected fault to fire inside the pipelined superstep loop.
type echo struct{}

func (echo) Init(vp *cgm.VP[int64], input []int64) { vp.State = append([]int64(nil), input...) }
func (echo) Round(vp *cgm.VP[int64], round int, inbox [][]int64) ([][]int64, bool) {
	if round == 3 {
		return nil, true
	}
	out := make([][]int64, vp.V)
	out[(vp.ID+1)%vp.V] = vp.State
	return out, false
}
func (echo) Output(vp *cgm.VP[int64]) []int64 { return vp.State }
