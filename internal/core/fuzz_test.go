package core

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/cgm"
	"repro/internal/wordcodec"
)

// chaosProgram is a deterministic pseudo-random CGM program: each round
// every virtual processor shuffles its items to destinations chosen by a
// seeded hash of (round, item), mixes received values into its state, and
// finishes after K rounds. It exists to drive the machines through
// arbitrary communication patterns — skewed, sparse, empty, all-to-all —
// and check that the EM simulation is observationally identical to the
// in-memory runtime on ALL of them.
type chaosProgram struct {
	Seed int64
	K    int
}

func mix(x int64) int64 {
	x ^= x >> 33
	x *= -0x61c8864680b583eb
	x ^= x >> 29
	x *= -0x3b314601e57a13ad
	x ^= x >> 32
	return x
}

func (c chaosProgram) Init(vp *cgm.VP[int64], input []int64) {
	vp.State = append([]int64(nil), input...)
}

func (c chaosProgram) Round(vp *cgm.VP[int64], round int, inbox [][]int64) ([][]int64, bool) {
	// Fold in everything received, tagged by sender for order sensitivity.
	for src, msg := range inbox {
		for k, x := range msg {
			vp.State = append(vp.State, x+int64(src)+int64(k%3))
		}
	}
	if round == c.K {
		// Keep a digest so outputs stay small but order-sensitive.
		var digest int64 = 1
		for _, x := range vp.State {
			digest = mix(digest ^ x)
		}
		vp.State = []int64{digest, int64(len(vp.State))}
		return nil, true
	}
	out := make([][]int64, vp.V)
	keep := vp.State[:0]
	for i, x := range vp.State {
		h := mix(c.Seed ^ int64(round*131+i)*2654435761 ^ x)
		switch h % 3 {
		case 0: // keep locally
			keep = append(keep, x)
		default: // ship to a pseudo-random destination
			d := int(uint64(h) % uint64(vp.V))
			out[d] = append(out[d], mix(x))
		}
	}
	vp.State = keep
	return out, false
}

func (c chaosProgram) Output(vp *cgm.VP[int64]) []int64 { return vp.State }

// TestChaosEquivalence drives random communication patterns through the
// in-memory runtime, the sequential machine, the parallel machine at
// several p, and the balanced variants — all must agree exactly. Each
// case also draws a window depth from {1, 2, default}: the sequential and
// parallel machines run at depth 1 (the synchronous issue order) and at
// the drawn depth, whose IO, CtxOps and MsgOps must be identical.
func TestChaosEquivalence(t *testing.T) {
	codec := wordcodec.I64{}
	if err := quick.Check(func(seed int64, n16 uint16, v8, k8, d8 uint8) bool {
		v := []int{2, 4, 8}[int(v8)%3]
		n := int(n16)%300 + v
		k := int(k8)%4 + 1
		depth := []int{1, 2, 0}[int(d8)%3]
		prog := chaosProgram{Seed: seed, K: k}
		in := make([]int64, n)
		for i := range in {
			in[i] = mix(seed + int64(i))
		}
		parts := cgm.Scatter(in, v)

		ref, err := cgm.Run[int64](prog, v, parts)
		if err != nil {
			t.Logf("cgm.Run: %v", err)
			return false
		}
		check := func(res *Result[int64], tag string) bool {
			if len(res.Outputs) != len(ref.Outputs) {
				t.Logf("%s: partition count", tag)
				return false
			}
			for i := range ref.Outputs {
				if len(res.Outputs[i]) != len(ref.Outputs[i]) {
					t.Logf("%s: vp %d length", tag, i)
					return false
				}
				for j := range ref.Outputs[i] {
					if res.Outputs[i][j] != ref.Outputs[i][j] {
						t.Logf("%s: vp %d item %d", tag, i, j)
						return false
					}
				}
			}
			return true
		}
		// run executes one machine at depth 1 and at the drawn depth: both
		// must match the runtime, with identical PDM accounting.
		run := func(cfg Config, tag string, machine func(Config) (*Result[int64], error)) bool {
			cfg.PipelineDepth = 1
			k1, err := machine(cfg)
			if err != nil || !check(k1, tag+" k=1") {
				t.Logf("%s k=1: %v", tag, err)
				return false
			}
			cfg.PipelineDepth = depth
			res, err := machine(cfg)
			if err != nil || !check(res, fmt.Sprintf("%s k=%d", tag, depth)) {
				t.Logf("%s k=%d: %v", tag, depth, err)
				return false
			}
			if res.IO != k1.IO || res.CtxOps != k1.CtxOps || res.MsgOps != k1.MsgOps {
				t.Logf("%s k=%d: IO/ctx/msg = %+v/%d/%d, k=1 counted %+v/%d/%d", tag, depth,
					res.IO, res.CtxOps, res.MsgOps, k1.IO, k1.CtxOps, k1.MsgOps)
				return false
			}
			return true
		}
		seq := func(cfg Config) (*Result[int64], error) { return RunSeq[int64](prog, codec, cfg, parts) }
		par := func(cfg Config) (*Result[int64], error) { return RunPar[int64](prog, codec, cfg, parts) }

		// The chaos program can concentrate items; allow worst-case slots.
		cfg := Config{V: v, P: 1, D: 2, B: 8, MaxMsgItems: 4 * n, MaxCtxItems: 8*n + 16}
		if !run(cfg, "seq", seq) {
			return false
		}
		for _, p := range []int{2, v} {
			if v%p != 0 {
				continue
			}
			pcfg := cfg
			pcfg.P = p
			if !run(pcfg, fmt.Sprintf("par p=%d", p), par) {
				return false
			}
		}
		bcfg := cfg
		bcfg.Balanced = true
		bcfg.MaxHItems = 8 * n
		bres, err := RunSeq[int64](prog, codec, bcfg, parts)
		if err != nil || !check(bres, "balanced seq") {
			t.Logf("balanced: %v", err)
			return false
		}
		return true
	}, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestChaosDeterminism: the machines must be bit-for-bit reproducible —
// identical outputs AND identical I/O accounting across repeated runs.
func TestChaosDeterminism(t *testing.T) {
	prog := chaosProgram{Seed: 99, K: 3}
	in := make([]int64, 200)
	for i := range in {
		in[i] = mix(int64(i))
	}
	const v = 4
	cfg := Config{V: v, P: 2, D: 2, B: 8, MaxMsgItems: 800, MaxCtxItems: 1616}
	var first *Result[int64]
	for trial := 0; trial < 3; trial++ {
		res, err := RunPar[int64](prog, wordcodec.I64{}, cfg, cgm.Scatter(in, v))
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = res
			continue
		}
		if res.IO != first.IO || res.Rounds != first.Rounds || res.MaxTracks != first.MaxTracks {
			t.Fatalf("trial %d accounting differs: %+v vs %+v", trial, res.IO, first.IO)
		}
		for i := range first.Outputs {
			for j := range first.Outputs[i] {
				if res.Outputs[i][j] != first.Outputs[i][j] {
					t.Fatalf("trial %d output differs at vp %d", trial, i)
				}
			}
		}
	}
}
