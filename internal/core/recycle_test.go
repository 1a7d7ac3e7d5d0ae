package core

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cgm"
	"repro/internal/layout"
	"repro/internal/pdm"
	"repro/internal/wordcodec"
)

// snapDisk is a MemDisk that snapshots every track at Close, just before
// its arena goes back to the word free list, so a test can compare the
// bytes a run left on disk. Embedding keeps the batch-capable worker path
// of a plain in-memory array.
type snapDisk struct {
	*pdm.MemDisk
	snap *[][]pdm.Word // one entry per track; nil for a never-written track
}

func (d snapDisk) Close() error {
	tracks := make([][]pdm.Word, d.Tracks())
	for t := range tracks {
		buf := make([]pdm.Word, d.BlockSize())
		if d.ReadTrack(t, buf) == nil {
			tracks[t] = buf
		}
	}
	*d.snap = tracks
	return d.MemDisk.Close()
}

// lateDisk models a device whose transfers finish after Close returns,
// as a file read already inside the kernel does: a read lands in the
// caller's buffer, and a write reads it, only after a delay. A driver
// that released its scratch before waiting every transfer would hand
// the next run a buffer this disk is still about to touch.
type lateDisk struct {
	inner  *pdm.MemDisk
	delay  time.Duration
	active *atomic.Int64 // transfers executing right now, across disks
}

func (d lateDisk) ReadTrack(t int, dst []pdm.Word) error {
	d.active.Add(1)
	defer d.active.Add(-1)
	buf := make([]pdm.Word, len(dst))
	err := d.inner.ReadTrack(t, buf)
	d.busy()
	if err == nil {
		copy(dst, buf)
	}
	return err
}

func (d lateDisk) WriteTrack(t int, src []pdm.Word) error {
	d.active.Add(1)
	defer d.active.Add(-1)
	d.busy()
	return d.inner.WriteTrack(t, slices.Clone(src))
}

// busy holds the transfer for the disk's delay. It spins rather than
// sleeps: timer granularity would stretch a microsecond sleep to a
// millisecond on many hosts.
func (d lateDisk) busy() {
	for start := time.Now(); time.Since(start) < d.delay; {
		runtime.Gosched()
	}
}

func (d lateDisk) BlockSize() int { return d.inner.BlockSize() }
func (d lateDisk) Tracks() int    { return d.inner.Tracks() }
func (d lateDisk) Close() error   { return d.inner.Close() }

// recycleRun is one machine run of the chaos program with what it left
// behind on its in-memory disks ([proc][disk][track]; nil for file disks).
type recycleRun struct {
	res   *Result[int64]
	disks [][][][]pdm.Word
}

// runRecycle runs prog on the given machine: par selects RunPar over
// RunSeq, and dir, when non-empty, backs the disks with files.
func runRecycle(t *testing.T, prog cgm.Program[int64], cfg Config, par bool, dir string, parts [][]int64) recycleRun {
	t.Helper()
	var out recycleRun
	if dir != "" {
		cfg.DiskDir = dir
	} else {
		p := cfg.P
		if !par {
			p = 1
		}
		out.disks = make([][][][]pdm.Word, p)
		for i := range out.disks {
			out.disks[i] = make([][][]pdm.Word, cfg.D)
		}
		cfg.NewDisk = func(proc, disk int) pdm.Disk {
			return snapDisk{MemDisk: pdm.NewMemDisk(cfg.B), snap: &out.disks[proc][disk]}
		}
	}
	var err error
	if par {
		out.res, err = RunPar[int64](prog, wordcodec.I64{}, cfg, parts)
	} else {
		out.res, err = RunSeq[int64](prog, wordcodec.I64{}, cfg, parts)
	}
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// sameRun reports the first difference between two runs of one machine:
// outputs, the model-visible accounting, and every written track.
func sameRun(want, got recycleRun) error {
	w, g := want.res, got.res
	for j := range w.Outputs {
		if !slices.Equal(w.Outputs[j], g.Outputs[j]) {
			return fmt.Errorf("vp %d output differs", j)
		}
	}
	if g.IO != w.IO || !slices.Equal(g.IOPerProc, w.IOPerProc) {
		return fmt.Errorf("IO = %+v / %+v, want %+v / %+v", g.IO, g.IOPerProc, w.IO, w.IOPerProc)
	}
	if g.MaxTracks != w.MaxTracks || g.CtxOps != w.CtxOps || g.MsgOps != w.MsgOps || g.Rounds != w.Rounds {
		return fmt.Errorf("MaxTracks/CtxOps/MsgOps/Rounds = %d/%d/%d/%d, want %d/%d/%d/%d",
			g.MaxTracks, g.CtxOps, g.MsgOps, g.Rounds, w.MaxTracks, w.CtxOps, w.MsgOps, w.Rounds)
	}
	for i := range want.disks {
		for k := range want.disks[i] {
			wt, gt := want.disks[i][k], got.disks[i][k]
			if len(wt) != len(gt) {
				return fmt.Errorf("proc %d disk %d: %d tracks, want %d", i, k, len(gt), len(wt))
			}
			for tr := range wt {
				if !slices.Equal(wt[tr], gt[tr]) || (wt[tr] == nil) != (gt[tr] == nil) {
					return fmt.Errorf("proc %d disk %d track %d reads back differently", i, k, tr)
				}
			}
		}
	}
	return nil
}

// TestRecycledScratchPoisoned pins the invariant that lets the word free
// list hand out buffers without zeroing them: no consumer reads a word it
// has not written. Every buffer AllocWords hands out is filled with
// garbage, the pool is warmed by an identical run, and the chaos programs
// then run over seq/par × depth {1, 2, auto} × {Mem, File}. Outputs must
// equal the in-memory runtime's, and outputs, I/O accounting and every
// written MemDisk track (padding included) must be bit-identical to a run
// on an emptied free list (pdm.DropFreeWords), where every buffer is a
// fresh zeroed make.
func TestRecycledScratchPoisoned(t *testing.T) {
	defer pdm.SetWordPoison(pdm.SetWordPoison(false))

	cases := []struct {
		seed      int64
		n, v, rnd int
	}{{3, 37, 4, 2}, {17, 200, 8, 3}, {-5, 120, 8, 1}}
	type machine struct {
		name     string
		par      bool
		p, depth int
	}

	for _, c := range cases {
		prog := chaosProgram{Seed: c.seed, K: c.rnd}
		in := make([]int64, c.n)
		for i := range in {
			in[i] = mix(c.seed + int64(i))
		}
		parts := cgm.Scatter(in, c.v)
		ref, err := cgm.Run[int64](prog, c.v, parts)
		if err != nil {
			t.Fatal(err)
		}
		var machines []machine
		for _, depth := range []int{1, 2, 0} {
			machines = append(machines,
				machine{fmt.Sprintf("seq/k=%d", depth), false, 1, depth},
				machine{fmt.Sprintf("par-p2/k=%d", depth), true, 2, depth},
				machine{fmt.Sprintf("par-pv/k=%d", depth), true, c.v, depth}) // one VP per processor
		}
		for _, m := range machines {
			cfg := Config{V: c.v, P: m.p, D: 2, B: 32, MaxMsgItems: 4 * c.n, MaxCtxItems: 8*c.n + 16, PipelineDepth: m.depth}
			for _, backend := range []string{"mem", "file"} {
				tag := fmt.Sprintf("seed=%d v=%d %s %s", c.seed, c.v, m.name, backend)
				dir := func() string { return "" }
				if backend == "file" {
					dir = t.TempDir
				}

				pdm.SetWordPoison(false)
				pdm.DropFreeWords() // the next run allocates every buffer fresh
				fresh := runRecycle(t, prog, cfg, m.par, dir(), parts)
				for j := range ref.Outputs {
					if !slices.Equal(fresh.res.Outputs[j], ref.Outputs[j]) {
						t.Fatalf("%s: fresh run vp %d output differs from cgm.Run", tag, j)
					}
				}

				pdm.SetWordPoison(true)
				for _, run := range []string{"poisoned", "recycled"} {
					got := runRecycle(t, prog, cfg, m.par, dir(), parts)
					if err := sameRun(fresh, got); err != nil {
						t.Fatalf("%s: %s run: %v", tag, run, err)
					}
				}
			}
		}
	}
}

// TestRecycleAfterFault pins release-after-drain-and-close on the error
// path: a run that fails mid-round through an injected disk fault must
// not hand its ring or arenas back while a transfer can still touch
// them. The faulting processor's healthy disk is a lateDisk, so
// transfers begun before the fault are still landing when it surfaces.
// The same geometry then runs cleanly right away — on buffers the failed
// run just released — and must produce the reference outputs and
// accounting; under -race a premature release shows as a race between
// the failed run's disk workers and the next run. When the failed run
// returns, no transfer may still be executing — the precondition for
// releasing anything — and every worker must exit: the goroutine count
// returns to its baseline.
func TestRecycleAfterFault(t *testing.T) {
	const v, n = 8, 100
	prog := chaosProgram{Seed: 41, K: 3}
	in := make([]int64, n)
	for i := range in {
		in[i] = mix(int64(i) * 7)
	}
	parts := cgm.Scatter(in, v)
	ref, err := cgm.Run[int64](prog, v, parts)
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
	var active atomic.Int64

	for _, par := range []bool{false, true} {
		for _, depth := range []int{1, 2, 0} {
			cfg := Config{V: v, P: 2, D: 2, B: 8, MaxMsgItems: 4 * n, MaxCtxItems: 8*n + 16, PipelineDepth: depth}
			clean := runRecycle(t, prog, cfg, par, "", parts)
			// Fault proc 0's disk 1 a quarter, half and three quarters of
			// the way through its transfers: inside the rounds, past the
			// synchronous input distribution.
			onDisk := int(clean.res.IOPerProc[0].BlocksMoved) / cfg.D
			for _, budget := range []int{onDisk / 4, onDisk / 2, 3 * onDisk / 4} {
				tag := fmt.Sprintf("par=%v k=%d fault after %d ops", par, depth, budget)
				fcfg := cfg
				fcfg.NewDisk = func(proc, disk int) pdm.Disk {
					switch {
					case proc > 0: // fast peers: the barrier must not mask proc 0's stragglers
						return pdm.NewMemDisk(cfg.B)
					case disk == 1:
						return pdm.NewFaultyDisk(pdm.NewMemDisk(cfg.B), budget)
					}
					return lateDisk{inner: pdm.NewMemDisk(cfg.B), delay: 10 * time.Microsecond, active: &active}
				}
				if par {
					_, err = RunPar[int64](prog, wordcodec.I64{}, fcfg, parts)
				} else {
					_, err = RunSeq[int64](prog, wordcodec.I64{}, fcfg, parts)
				}
				if !errors.Is(err, pdm.ErrInjected) {
					t.Fatalf("%s: err = %v, want injected disk fault", tag, err)
				}
				if n := active.Load(); n != 0 {
					t.Fatalf("%s: %d transfers still executing after the failed run returned", tag, n)
				}
				again := runRecycle(t, prog, cfg, par, "", parts)
				for j := range ref.Outputs {
					if !slices.Equal(again.res.Outputs[j], ref.Outputs[j]) {
						t.Fatalf("%s: rerun vp %d output differs from cgm.Run", tag, j)
					}
				}
				if err := sameRun(clean, again); err != nil {
					t.Fatalf("%s: rerun: %v", tag, err)
				}
			}
		}
	}

	// Closed arrays' workers exit asynchronously once their queues close.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d after the runs, want ≤ baseline %d (leaked disk workers)", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRingShape pins the right-sized ring of the parallel driver: with
// localV < K, the slots from localV up hold no context image and a
// localV·bpm route image, and the slots below stay full working sets.
func TestRingShape(t *testing.T) {
	const v, localV, cb, bpm, b = 8, 2, 3, 5, 4
	shape := ringShape{full: localV, cb: cb, flatBlocks: v * bpm, routeBlocks: localV * bpm, b: b}
	check := func(ring []*superstepScratch, pend []vpInflight, k int) {
		t.Helper()
		if len(ring) != k || len(pend) != k {
			t.Fatalf("ring/pend depth = %d/%d, want %d", len(ring), len(pend), k)
		}
		for i, s := range ring {
			wantCtx, wantFlat := cb*b, v*bpm*b
			if i >= localV {
				wantCtx, wantFlat = 0, localV*bpm*b
			}
			if len(s.ctxImg) != wantCtx || len(s.flat) != wantFlat {
				t.Errorf("k=%d slot %d: ctx/flat = %d/%d words, want %d/%d", k, i, len(s.ctxImg), len(s.flat), wantCtx, wantFlat)
			}
		}
	}
	for _, k := range []int{1, 4, 8} {
		ring, pend := shape.ring(k)
		check(ring, pend, k)
		releaseRing(ring...)
	}
}

// TestQueueHintCoversRingBurst checks the per-disk queue hint against the
// largest burst each driver's ring can put in flight on one disk, taken
// from the real layouts: in the VP loop, the heaviest min(K, localV) VPs
// with their context and inbox reads (or, sequentially, their outbox and
// context writes) outstanding at once; in the parallel route phase, the
// heaviest K batches. A hint below that would make a begin block on a
// full work queue and silently serialize the window.
func TestQueueHintCoversRingBurst(t *testing.T) {
	// perDisk[x][disk] is the block count item x puts on each disk.
	perDisk := func(d int, reqs []pdm.BlockReq, into []int) {
		for _, r := range reqs {
			into[r.Disk]++
		}
	}
	// heaviest sums, per disk, the k largest per-item counts.
	heaviest := func(counts [][]int, d, k int) int {
		worst := 0
		for disk := 0; disk < d; disk++ {
			col := make([]int, len(counts))
			for i := range counts {
				col[i] = counts[i][disk]
			}
			slices.Sort(col)
			sum := 0
			for _, c := range col[max(0, len(col)-k):] {
				sum += c
			}
			worst = max(worst, sum)
		}
		return worst
	}

	for _, g := range []struct{ v, p, d, cb, bpm int }{
		{8, 4, 2, 114, 85}, // a graph.LCA phase on rec.NewEM(8, 4, 2, 512)
		{16, 4, 2, 5, 3},
		{8, 1, 3, 7, 2},
		{4, 2, 4, 1, 1},
		{16, 16, 2, 9, 4},
		{6, 3, 5, 2, 3},
	} {
		localV := g.v / g.p
		ctxTracks := (localV*g.cb+g.d-1)/g.d + 1
		rect, err := layout.NewRect(g.v, localV, g.bpm, g.d, ctxTracks)
		if err != nil {
			t.Fatal(err)
		}
		vpLoad := make([][]int, localV)
		for l := range vpLoad {
			vpLoad[l] = make([]int, g.d)
			perDisk(g.d, layout.AppendStripedReqs(nil, g.d, 0, l*g.cb, g.cb), vpLoad[l])
			perDisk(g.d, rect.AppendRegionReqs(nil, l), vpLoad[l])
		}
		batchLoad := make([][]int, g.v)
		for src := range batchLoad {
			batchLoad[src] = make([]int, g.d)
			for dl := 0; dl < localV; dl++ {
				perDisk(g.d, rect.AppendSlotReqs(nil, dl, src), batchLoad[src])
			}
		}
		parShape := ringShape{full: localV, cb: g.cb, flatBlocks: g.v * g.bpm, routeBlocks: localV * g.bpm}

		seqTracks := (g.v*g.cb+g.d-1)/g.d + 1
		matrix, err := layout.NewMatrix(g.v, g.bpm, g.d, seqTracks)
		if err != nil {
			t.Fatal(err)
		}
		seqLoad := make([][]int, g.v)
		for j := range seqLoad {
			seqLoad[j] = make([]int, g.d)
			perDisk(g.d, layout.AppendStripedReqs(nil, g.d, 0, j*g.cb, g.cb), seqLoad[j])
			in := make([]int, g.d)
			perDisk(g.d, matrix.AppendInboxReqs(nil, 1, j), in)
			outb := make([]int, g.d)
			perDisk(g.d, matrix.AppendOutboxReqs(nil, 1, j), outb)
			for k := range in {
				seqLoad[j][k] += max(in[k], outb[k])
			}
		}
		seqShape := ringShape{full: g.v, cb: g.cb, flatBlocks: g.v * g.bpm}

		for k := 1; k <= g.v; k++ {
			tag := fmt.Sprintf("v=%d p=%d D=%d cb=%d bpm=%d K=%d", g.v, g.p, g.d, g.cb, g.bpm, k)
			burst := max(heaviest(vpLoad, g.d, min(k, localV)), heaviest(batchLoad, g.d, k))
			if hint := parShape.queueHint(k, g.d); burst > hint {
				t.Errorf("%s par: burst of %d transfers on one disk exceeds queue hint %d", tag, burst, hint)
			}
			if burst := heaviest(seqLoad, g.d, k); burst > seqShape.queueHint(k, g.d) {
				t.Errorf("%s seq: burst of %d transfers on one disk exceeds queue hint %d", tag, burst, seqShape.queueHint(k, g.d))
			}
		}
	}
}
