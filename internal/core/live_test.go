package core

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/cgm"
	"repro/internal/pdm"
	"repro/internal/wordcodec"
)

// shrinkProgram drives the live extents through their edge cases. Every
// message size follows the round: rounds 0–1 send big messages (several
// blocks), rounds 2–3 one-block messages, rounds 4–5 empty ones, and the
// cycle repeats — so each slot parity of the message matrix sees one
// physical slot shrink from many blocks to one, to none, and grow back.
// One destination per sender always gets an empty message, and virtual
// processor 0's context shrinks to zero items in round 3 and regrows in
// round 4. Every value depends on everything received, so a stale or
// misplaced word anywhere changes the outputs.
type shrinkProgram struct {
	K   int // terminal round
	Big int // items per big message
}

func (s shrinkProgram) Init(vp *cgm.VP[int64], input []int64) {
	vp.State = append([]int64(nil), input...)
}

func (s shrinkProgram) Round(vp *cgm.VP[int64], round int, inbox [][]int64) ([][]int64, bool) {
	d := mix(int64(vp.ID*7919 + round))
	for _, x := range vp.State {
		d = mix(d ^ x)
	}
	for src, msg := range inbox {
		for k, x := range msg {
			d = mix(d ^ x ^ int64(src<<20+k))
		}
	}
	if round == s.K {
		vp.State = []int64{d}
		return nil, true
	}
	keep := 5 + (round+vp.ID)%7
	if vp.ID == 0 && round == 3 {
		keep = 0
	}
	vp.State = vp.State[:0]
	for k := 0; k < keep; k++ {
		vp.State = append(vp.State, mix(d+int64(k)))
	}
	size := []int{s.Big, 3, 0}[(round/2)%3]
	out := make([][]int64, vp.V)
	for dst := range out {
		if dst == (vp.ID+round)%vp.V {
			continue // always one empty message
		}
		for k := 0; k < size; k++ {
			out[dst] = append(out[dst], mix(d^int64(dst<<10+k)))
		}
	}
	return out, false
}

func (s shrinkProgram) Output(vp *cgm.VP[int64]) []int64 { return vp.State }

// blockLog wraps a program and adds up, from the sizes the program itself
// produces, the blocks the live schedule must move for it: one context
// write per VP at input distribution; per VP and round a context read,
// the inbox read (after round 0), the outbox write (unless done) and a
// context write — each at the live extent, ⌈(1+n)/B⌉ blocks for n one-word
// items, none for an empty message. It is an oracle independent of the
// drivers' length tables: a driver that reads or writes one block past a
// live extent, anywhere, moves a different number of blocks.
type blockLog struct {
	cgm.Program[int64]
	b      int
	mu     *sync.Mutex
	blocks *int64
}

func (l blockLog) ext(n int, msg bool) int64 {
	if msg && n == 0 {
		return 0
	}
	return int64(pdm.BlocksFor(1+n, l.b))
}

func (l blockLog) Init(vp *cgm.VP[int64], input []int64) {
	l.Program.Init(vp, input)
	l.mu.Lock()
	*l.blocks += l.ext(len(vp.State), false)
	l.mu.Unlock()
}

func (l blockLog) Round(vp *cgm.VP[int64], round int, inbox [][]int64) ([][]int64, bool) {
	moved := l.ext(len(vp.State), false)
	if round > 0 {
		for _, msg := range inbox {
			moved += l.ext(len(msg), true)
		}
	}
	out, done := l.Program.Round(vp, round, inbox)
	if !done {
		for dst := 0; dst < vp.V; dst++ {
			if out != nil {
				moved += l.ext(len(out[dst]), true)
			}
		}
	}
	moved += l.ext(len(vp.State), false)
	l.mu.Lock()
	*l.blocks += moved
	l.mu.Unlock()
	return out, done
}

// TestLiveExtentEquivalence is the live schedule's correctness contract.
// Every buffer the word free list hands out is poisoned, and two chaos
// programs run over seq/par × {K = 1, 2, default} × {Mem, File,
// CheckedIO} × {plain, Balanced}:
//
//   - outputs equal cgm.Run's;
//   - PDM counts are identical across schedules, depths and backends,
//     and never exceed the content-oblivious run's;
//   - for the unbalanced runs, the blocks moved equal the blockLog
//     oracle's, so no transfer reads or writes past a live extent;
//   - every in-memory disk track reads back exactly as after an
//     unpoisoned K = 1 run, so the last live block of every image
//     was zeroed past its items — a missing clear would write poison.
//
// CheckedIO additionally rejects any read of a block never written.
func TestLiveExtentEquivalence(t *testing.T) {
	defer pdm.SetWordPoison(pdm.SetWordPoison(false))

	const v, b = 4, 8
	progs := []struct {
		name string
		prog cgm.Program[int64]
		n    int
	}{
		{"shrink", shrinkProgram{K: 7, Big: 20}, 24},
		{"chaos", chaosProgram{Seed: 13, K: 3}, 90},
	}
	schedules := []struct {
		name  string
		depth int
	}{{"k=1", 1}, {"k=2", 2}, {"default", 0}}

	for _, pc := range progs {
		in := make([]int64, pc.n)
		for i := range in {
			in[i] = mix(int64(i) + 101)
		}
		parts := cgm.Scatter(in, v)
		var mu sync.Mutex
		var oracle int64
		ref, err := cgm.Run[int64](blockLog{Program: pc.prog, b: b, mu: &mu, blocks: &oracle}, v, parts)
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []bool{false, true} {
			for _, balanced := range []bool{false, true} {
				tag := fmt.Sprintf("%s par=%v balanced=%v", pc.name, par, balanced)
				cfg := Config{V: v, P: 2, D: 2, B: b, MaxMsgItems: 4 * pc.n, MaxCtxItems: 8*pc.n + 16,
					Balanced: balanced, MaxHItems: 8 * pc.n}

				obl := cfg
				obl.Oblivious = true
				bound := runRecycle(t, pc.prog, obl, par, "", parts)

				pdm.SetWordPoison(false)
				pdm.DropFreeWords() // the next run allocates every buffer fresh
				k1 := cfg
				k1.PipelineDepth = 1
				want := runRecycle(t, pc.prog, k1, par, "", parts)
				for j := range ref.Outputs {
					if !slices.Equal(want.res.Outputs[j], ref.Outputs[j]) {
						t.Fatalf("%s: vp %d output differs from cgm.Run", tag, j)
					}
				}
				if w, o := want.res, bound.res; w.IO.ParallelOps > o.IO.ParallelOps || w.CtxOps > o.CtxOps ||
					w.MsgOps > o.MsgOps || w.IO.BlocksMoved > o.IO.BlocksMoved || w.MaxTracks > o.MaxTracks {
					t.Fatalf("%s: live ops/ctx/msg/blocks/tracks %d/%d/%d/%d/%d exceed the oblivious %d/%d/%d/%d/%d", tag,
						w.IO.ParallelOps, w.CtxOps, w.MsgOps, w.IO.BlocksMoved, w.MaxTracks,
						o.IO.ParallelOps, o.CtxOps, o.MsgOps, o.IO.BlocksMoved, o.MaxTracks)
				}
				if !balanced && want.res.IO.BlocksMoved != oracle {
					t.Fatalf("%s: %d blocks moved, the live extents add up to %d", tag, want.res.IO.BlocksMoved, oracle)
				}

				pdm.SetWordPoison(true)
				for _, sc := range schedules {
					for _, backend := range []string{"mem", "file", "checked"} {
						run := cfg
						run.PipelineDepth = sc.depth
						dir := ""
						switch backend {
						case "file":
							dir = t.TempDir()
						case "checked":
							run.CheckedIO = true
						}
						cmp := want
						if dir != "" {
							cmp.disks = nil // file disks keep no track snapshots
						}
						if err := sameRun(cmp, runRecycle(t, pc.prog, run, par, dir, parts)); err != nil {
							t.Fatalf("%s %s %s: %v", tag, sc.name, backend, err)
						}
					}
				}
			}
		}
	}
}

// TestLengthTablesChargedAgainstM checks that every memory check counts
// the live-length tables beside the scratch images: a budget that fits
// the images exactly but not the tables is rejected by ValidateFor, by
// the drivers' depth resolution and by both drivers at depth 1, and the
// same budget plus the tables is accepted.
func TestLengthTablesChargedAgainstM(t *testing.T) {
	const v, p, b, items = 4, 2, 8, 64
	cb := pdm.BlocksFor(ctxWords(items, 1), b)
	bpm := pdm.BlocksFor(slotWords(items, 1), b)

	cfg := Config{V: v, P: p, D: 2, B: b, MaxCtxItems: items, MaxMsgItems: items, PipelineDepth: 2}
	windows := 2 * (cb + v*bpm) * b
	for _, c := range []struct {
		m  int
		ok bool
	}{{windows, false}, {windows + min(lengthTableWords(v, v, false), lengthTableWords(v, v/p, true)), true}} {
		cfg.M = c.m
		if err := cfg.ValidateFor(1 << 10); (err == nil) != c.ok {
			t.Errorf("ValidateFor with M = %d: err = %v, want ok = %v", c.m, err, c.ok)
		}
	}

	slot := (cb + v*bpm) * b
	for _, c := range []struct {
		m  int
		ok bool
	}{{2 * slot, false}, {2*slot + 7, true}} {
		k, err := pipeDepth(Config{B: b, PipelineDepth: 2, M: c.m}, v, slot, 7)
		if (err == nil) != c.ok || (c.ok && k != 2) {
			t.Errorf("pipeDepth with M = %d: k = %d, err = %v, want ok = %v", c.m, k, err, c.ok)
		}
	}

	parts := cgm.Scatter(seq64(32), v)
	images := cb*b + v*bpm*b
	for _, par := range []bool{false, true} {
		tables := lengthTableWords(v, v/p, par)
		for _, c := range []struct {
			m  int
			ok bool
		}{{images, false}, {images + tables, true}} {
			run := Config{V: v, P: p, D: 2, B: b, MaxCtxItems: items, MaxMsgItems: items, M: c.m, PipelineDepth: 1}
			var err error
			if par {
				_, err = RunPar[int64](rotate{k: 1}, wordcodec.I64{}, run, parts)
			} else {
				_, err = RunSeq[int64](rotate{k: 1}, wordcodec.I64{}, run, parts)
			}
			if (err == nil) != c.ok {
				t.Errorf("par=%v M = %d: err = %v, want ok = %v", par, c.m, err, c.ok)
			}
		}
	}
}
