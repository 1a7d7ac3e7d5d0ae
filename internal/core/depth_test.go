package core_test

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"
	"time"

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

// equivDepths are the window depths every equivalence case runs: 1 (the
// synchronous issue order, the reference), deeper fixed windows, one
// past v (clamped to the ring v can use), and 0 (the default depth).
var equivDepths = []int{1, 2, 4, 8, 16, 0}

// depthEquiv runs prog on one machine at every depth of equivDepths. The
// outputs must equal the in-memory runtime's, and the full accounting —
// outputs, IO, IOPerProc, CtxOps, MsgOps, MaxTracks and every observed
// bound — must be bit-identical to the depth-1 run's.
func depthEquiv[T comparable](t *testing.T, tag string, prog cgm.Program[T], codec wordcodec.Codec[T], base core.Config, inputs [][]T, seq bool) {
	t.Helper()
	ref, err := cgm.Run(prog, base.V, inputs)
	if err != nil {
		t.Fatalf("%s: cgm.Run: %v", tag, err)
	}
	var k1 *core.Result[T]
	for _, k := range equivDepths {
		cfg := base
		cfg.PipelineDepth = k
		var res *core.Result[T]
		if seq {
			res, err = core.RunSeq(prog, codec, cfg, inputs)
		} else {
			res, err = core.RunPar(prog, codec, cfg, inputs)
		}
		ktag := fmt.Sprintf("%s/k=%d", tag, k)
		if err != nil {
			t.Fatalf("%s: %v", ktag, err)
		}
		for j := range ref.Outputs {
			if !slices.Equal(res.Outputs[j], ref.Outputs[j]) {
				t.Fatalf("%s: vp %d output differs from cgm.Run", ktag, j)
			}
		}
		if k1 == nil {
			k1 = res
			continue
		}
		equivResults(t, ktag, k1, res)
	}
}

// TestPipelineDepthEquivalence pins the depth-k window's correctness
// contract on sorting, permutation and transposition, sequential and
// parallel drivers alike: at every depth — 1 (the synchronous issue
// order), deeper fixed windows, depths past v, and the default — the
// outputs equal cgm.Run's and the full PDM accounting is bit-identical to
// depth 1's. Only the begin/wait overlap may change with k, and that is
// invisible to the model by construction.
func TestPipelineDepthEquivalence(t *testing.T) {
	const v, n = 8, 1 << 10
	keys := workload.Int64s(11, n)
	dests := workload.Permutation(12, n)
	routed := func(dest func(i int) int64) [][]permute.Item {
		items := make([]permute.Item, n)
		for i := range items {
			items[i] = permute.Item{Dest: dest(i), Val: keys[i]}
		}
		return cgm.Scatter(items, v)
	}
	// The message bounds EMPermute and EMTranspose set.
	routeBounds := func(cfg core.Config) core.Config {
		cfg.MaxMsgItems = 4*((n+v*v-1)/(v*v)) + v + 16
		cfg.MaxHItems = 2*((n+v-1)/v) + v + 16
		return cfg
	}
	sortIn := cgm.Scatter(keys, v)
	permIn := routed(func(i int) int64 { return dests[i] })
	transIn := routed(func(i int) int64 { return int64(i) }) // Dest holds the source position pre-routing

	for _, p := range []int{1, 2, 4} {
		base := core.Config{V: v, P: p, D: 2, B: 8}
		tagP := fmt.Sprintf("p=%d", p)
		depthEquiv(t, "sort/"+tagP, sortalg.Sorter[int64]{}, wordcodec.I64{}, sortalg.EMSortConfig(base, n), sortIn, false)
		depthEquiv(t, "permute/"+tagP, permute.New(n), permute.Codec{}, routeBounds(base), permIn, false)
		depthEquiv(t, "transpose/"+tagP, transpose.New(32, 32), permute.Codec{}, routeBounds(base), transIn, false)
	}

	// The sequential machine proper (Algorithm 2, not p=1 of Algorithm 3).
	seq := core.Config{V: v, P: 1, D: 2, B: 8}
	depthEquiv(t, "permute/seq", permute.New(n), permute.Codec{}, routeBounds(seq), permIn, true)
	depthEquiv(t, "sort/seq", sortalg.Sorter[int64]{}, wordcodec.I64{}, sortalg.EMSortConfig(seq, n), sortIn, true)
}

// TestPipelineDepthSingleVP is the v == 1 boundary: one virtual
// processor leaves nothing to prefetch across (every depth clamps to a
// one-slot ring) and the run must still complete and match depth 1.
func TestPipelineDepthSingleVP(t *testing.T) {
	const n = 256
	keys := workload.Int64s(3, n)
	parts := cgm.Scatter(keys, 1)

	base := core.Config{V: 1, P: 1, D: 2, B: 8, MaxMsgItems: n + 16, MaxCtxItems: 2*n + 16}
	refCfg := base
	refCfg.PipelineDepth = 1
	ref, err := core.RunSeq[int64](echo{}, wordcodec.I64{}, refCfg, parts)
	if err != nil {
		t.Fatalf("k=1: %v", err)
	}
	for _, k := range []int{0, 4} {
		cfg := base
		cfg.PipelineDepth = k
		res, err := core.RunSeq[int64](echo{}, wordcodec.I64{}, cfg, parts)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		equivResults(t, fmt.Sprintf("v=1/k=%d", k), ref, res)
		if res.Depth != 1 {
			t.Errorf("k=%d: ring depth = %d, want 1 (clamped to v)", k, res.Depth)
		}
	}
}

// TestPipelineDepthResolved pins Result.Depth: fixed depths resolve to
// min(k, v) — not to the v/p virtual processors one real processor
// simulates — and the default resolves to 8. A recorded run on slow
// disks resolves to the same depth as an unrecorded one and matches it:
// recording never changes the schedule.
func TestPipelineDepthResolved(t *testing.T) {
	const v, n = 8, 1 << 10
	keys := workload.Int64s(11, n)

	depth := func(k, p int) int {
		t.Helper()
		cfg := core.Config{V: v, P: p, D: 2, B: 8, PipelineDepth: k}
		_, res, err := sortalg.EMSort(keys, wordcodec.I64{}, cfg)
		if err != nil {
			t.Fatalf("k=%d p=%d: %v", k, p, err)
		}
		return res.Depth
	}

	for _, p := range []int{1, 2, 4} {
		if got := depth(1, p); got != 1 {
			t.Errorf("p=%d k=1: Depth = %d, want 1", p, got)
		}
		if got := depth(3, p); got != 3 {
			t.Errorf("p=%d k=3: Depth = %d, want 3", p, got)
		}
		if got := depth(2*v, p); got != v {
			t.Errorf("p=%d k=%d: Depth = %d, want clamp to v=%d", p, 2*v, got, v)
		}
		if got := depth(0, p); got != 8 {
			t.Errorf("p=%d default: Depth = %d, want 8", p, got)
		}
	}

	// v=16, p=4: the default ring of 8 outgrows the 4 VP slots, so the
	// route phase cycles batches through route-only slots.
	big := workload.Int64s(5, 4*n)
	cfg := core.Config{V: 16, P: 4, D: 2, B: 8}
	_, plain, err := sortalg.EMSort(big, wordcodec.I64{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Recorder = obs.NewRecorder()
	cfg.NewDisk = func(int, int) pdm.Disk { return pdm.NewDelayDisk(pdm.NewMemDisk(8), 20*time.Microsecond) }
	_, recorded, err := sortalg.EMSort(big, wordcodec.I64{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Depth != 8 || recorded.Depth != 8 {
		t.Errorf("v=16 p=4: Depth = %d unrecorded, %d recorded, want 8 for both", plain.Depth, recorded.Depth)
	}
	equivResults(t, "v=16 p=4 recorded", plain, recorded)
}

// TestPipelineDepthFault injects a disk fault mid-window at depth 4: the
// error must surface from a wait without wedging the ring (every slot's
// in-flight handles are still waited), and the recorder must export a
// well-formed trace afterwards.
func TestPipelineDepthFault(t *testing.T) {
	const v, n = 4, 64
	parts := cgm.Scatter(workload.Int64s(7, n), v)

	for _, p := range []int{1, 2} {
		for _, k := range []int{2, 4} {
			rec := obs.NewRecorder()
			cfg := core.Config{V: v, P: p, D: 2, B: 8,
				MaxMsgItems: n/v + 4, MaxCtxItems: n/v + 4,
				PipelineDepth: k, Recorder: rec,
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
				t.Fatalf("p=%d k=%d: err = %v, want injected disk fault", p, k, err)
			}
			if err := rec.WriteChromeTrace(io.Discard); err != nil {
				t.Errorf("p=%d k=%d: trace export after fault: %v", p, k, err)
			}
		}
	}
}

// TestPipelineDepthValidate pins the configuration contract of
// PipelineDepth: negative depths are rejected by Validate; ValidateFor
// rejects a fixed window whose k working sets exceed M; and the driver
// itself rejects a fixed depth the machine's actual scratch geometry
// cannot fit, while the default depth clamps to what fits.
func TestPipelineDepthValidate(t *testing.T) {
	base := core.Config{V: 4, P: 2, D: 2, B: 8}

	neg := base
	neg.PipelineDepth = -1
	if err := neg.Validate(); err == nil || !strings.Contains(err.Error(), "PipelineDepth") {
		t.Errorf("negative depth: err = %v, want PipelineDepth error", err)
	}

	tight := base
	tight.PipelineDepth = 8
	tight.MaxCtxItems = 64
	tight.MaxMsgItems = 64
	tight.M = 128 // far below 8 windows of context + 4 message slots
	if err := tight.ValidateFor(1 << 10); err == nil || !strings.Contains(err.Error(), "internal memory") {
		t.Errorf("depth over M: err = %v, want memory bound error", err)
	}
	tight.PipelineDepth = 0 // the default must clamp instead of erroring
	if err := tight.ValidateFor(1 << 10); err != nil {
		t.Errorf("default depth over M: err = %v, want clamp, not error", err)
	}

	// The driver re-checks with the real scratch geometry.
	keys := workload.Int64s(11, 1<<10)
	deep := core.Config{V: 8, P: 1, D: 2, B: 8,
		PipelineDepth: 8, M: 2000} // fits ~2 of this machine's working sets, not 8
	_, _, err := sortalg.EMSort(keys, wordcodec.I64{}, deep)
	if err == nil || !strings.Contains(err.Error(), "PipelineDepth") {
		t.Errorf("driver fixed-depth fit: err = %v, want PipelineDepth error", err)
	}
	deep.PipelineDepth = 0
	_, res, err := sortalg.EMSort(keys, wordcodec.I64{}, deep)
	if err != nil {
		t.Errorf("driver default-depth fit: err = %v, want clamp, not error", err)
	} else if res.Depth < 1 || res.Depth >= 8 {
		t.Errorf("driver default-depth fit: Depth = %d, want clamped below 8", res.Depth)
	}
}
