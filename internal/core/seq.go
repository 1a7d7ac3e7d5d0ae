package core

import (
	"fmt"
	"time"

	"repro/internal/cgm"
	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/pdm"
	"repro/internal/wordcodec"
)

// vpInflight is one pipeline slot of a superstep driver: the split-phase
// handles of the slot's in-flight reads and writes, plus the operation
// counts banked for its superstep's trace row. Accounting is charged at
// begin time, so the driver snapshots counter deltas as it begins each
// operation group; the deltas are exact because only the driver goroutine
// begins operations on its array.
type vpInflight struct {
	reads, writes  pdm.PendingSet
	ctxOps, msgOps int64
	blocks         int64
}

// reset zeroes the banked counts after their trace row is emitted.
func (sl *vpInflight) reset() {
	sl.ctxOps, sl.msgOps, sl.blocks = 0, 0, 0
}

// runSeq is Algorithm 2: SeqCompoundSuperstep iterated until the program
// finishes. One real processor, D disks.
//
// Disk map: contexts live first — VP j's context occupies striped blocks
// [j·cb, (j+1)·cb) from track 0 — followed by the single-copy staggered
// message matrix with Observation 2's alternating placement.
//
// The superstep loop is software-pipelined over a ring of K
// superstepScratch slots (VP j owns slot j mod K). The window slides with
// a prefetch distance of pf = ⌊K/2⌋: while VP j computes out of its slot,
// the contexts and inboxes of VPs j+1 … j+pf are already being read, and
// the writes of VPs back to j−(K−pf) drain as write-behind that the
// driver only waits for when their slot is about to be reused. At K = 1
// there is no read-ahead: every operation is issued in the paper's
// synchronous order, which makes K = 1 the reference schedule. Deeper
// rings hide more latency and keep ≥ K conflict-free transfers queued per
// disk for the batching workers to coalesce.
//
// Each round opens with a burst: the window's first pf prefetches are
// issued back to back, in synchronous order, before any superstep runs —
// that burst is what lets the per-disk workers fuse the window's
// ascending-track transfers into large vectored calls instead of seeing
// them trickle in one VP at a time.
//
// Every depth issues the same operation multiset, addresses, and cycle
// packing — only the begin order changes: the reads of VPs j+1 … j+pf are
// hoisted above the writes of VP j. That hoist is address-disjoint within
// a round (Observation 2: VP j's outbox writes land in the slots its own
// inbox freed, and context runs are per-VP), no prefetch crosses a round
// boundary, and the per-disk work queues are FIFO, so every write→read
// dependency still executes in begin order. With accounting charged at
// begin time the PDM counts are therefore bit-identical to K = 1 at every
// depth, which the equivalence tests pin.
//
// All transient storage of the round loop lives in the ring, so
// steady-state supersteps allocate only the decoded item slices handed to
// the program.
func runSeq[T any](prog cgm.Program[T], codec wordcodec.Codec[T], cfg Config, inputs [][]T) (*Result[T], error) {
	v := cfg.V
	if len(inputs) != v {
		return nil, fmt.Errorf("core: %d input partitions for V = %d", len(inputs), v)
	}
	g := newGeometry(prog, codec, cfg, inputs)
	cb, bpm := g.cb, g.bpm // blocks per context, per message slot (b′)
	ctxTracks := (v*cb+cfg.D-1)/cfg.D + 1

	// The ring holds K superstep working sets at once, beside the
	// live-length tables; resolve its depth against the memory bound.
	slotBlocks := cb + v*bpm
	K, err := pipeDepth(cfg, v, slotBlocks*cfg.B, lengthTableWords(v, v, false))
	if err != nil {
		return nil, err
	}

	matrix, err := layout.NewMatrix(v, bpm, cfg.D, ctxTracks)
	if err != nil {
		return nil, err
	}
	shape := ringShape{full: v, cb: cb, flatBlocks: v * bpm, b: cfg.B} // K ≤ v: every slot is a VP slot
	arr, err := cfg.newArray(0, shape.queueHint(K, cfg.D))
	if err != nil {
		return nil, err
	}
	scr, pend := shape.ring(K)
	defer func() {
		_ = arr.Close() // cleanup path; I/O errors already surfaced per op
		releaseRing(scr...)
	}()

	rec := cfg.Recorder
	var track obs.TrackID
	stallName := "stall"
	if rec != nil {
		track = rec.Track("proc 0")
		arr.SetRecorder(rec, 0)
		rec.Gauge("core_p0_pipeline_depth", func() int64 { return int64(K) })
		stallName = fmt.Sprintf("stall k=%d", K)
	}

	res := &Result[T]{Outputs: make([][]T, v)}

	// Live-length tables: the blocks each context run and each physical
	// message slot currently holds. Slots are keyed by (region, slot), so
	// Observation 2's alternation needs no bookkeeping of its own. A table
	// entry is read when its transfer begins and rewritten only by the VP
	// whose inbox the slot belongs to, after that VP has decoded it — the
	// same address disjointness that lets the window hoist reads above
	// writes.
	ctxLen := make([]int, v)
	slotLen := make([]int, v*v)

	// drain waits out every in-flight operation before an error return:
	// no handle leaks, no worker left holding a buffer reference. The
	// drained errors are deliberately dropped — the caller's error is the
	// one being reported.
	drain := func() {
		for i := range pend {
			_ = pend[i].reads.Wait()
			_ = pend[i].writes.Wait()
		}
	}

	// Input distribution: initialise and write every context,
	// synchronously.
	ledBase := rec.StepCount()
	initSpan := rec.Begin(track, "input distribution", "init")
	for j := 0; j < v; j++ {
		vp := &cgm.VP[T]{ID: j, V: v}
		prog.Init(vp, inputs[j])
		s := scr[0]
		nb, err := encodeCtxInto(codec, g, vp.State, s.ctxImg)
		if err != nil {
			initSpan.End()
			return nil, fmt.Errorf("vp %d: %w", j, err)
		}
		if len(vp.State) > res.MaxCtxObserved {
			res.MaxCtxObserved = len(vp.State)
		}
		ctxLen[j] = nb
		s.bufs = layout.SplitBlocksInto(s.bufs[:0], s.ctxImg[:nb*cfg.B], cfg.B)
		if err := layout.WriteStripedScratch(arr, 0, j*cb, s.bufs, &s.lay); err != nil {
			initSpan.End()
			return nil, err
		}
	}
	res.CtxOps = arr.Stats().ParallelOps
	if rec != nil {
		initSpan.EndIO(obs.SuperstepIO{Proc: 0, Round: -1, VP: -1, Label: "init",
			CtxOps: res.CtxOps, Blocks: arr.Stats().BlocksMoved})
	}

	// bank charges the ops begun since the last snapshot to slot sl's
	// trace row, split into context vs message operations.
	lastOps := arr.Stats().ParallelOps
	lastBlocks := arr.Stats().BlocksMoved
	bank := func(sl *vpInflight, isCtx bool) {
		s := arr.Stats()
		if isCtx {
			sl.ctxOps += s.ParallelOps - lastOps
		} else {
			sl.msgOps += s.ParallelOps - lastOps
		}
		sl.blocks += s.BlocksMoved - lastBlocks
		lastOps, lastBlocks = s.ParallelOps, s.BlocksMoved
	}

	// beginReads prefetches VP j's context and (after round 0) inbox into
	// scratch j mod K, charging the begun ops to that slot's row.
	beginReads := func(j, round int) error {
		sl := &pend[j%K]
		s := scr[j%K]
		pf := rec.Begin(track, "prefetch", "prefetch")
		if err := layout.BeginReadStripedScratch(arr, 0, j*cb, s.ctxImg[:ctxLen[j]*cfg.B], &s.lay, &sl.reads); err != nil {
			pf.End()
			return fmt.Errorf("core: round %d vp %d: begin context read: %w", round, j, err)
		}
		bank(sl, true)
		if round > 0 {
			s.reqs, s.bufs = s.reqs[:0], s.bufs[:0]
			for src := 0; src < v; src++ {
				r, a := matrix.Place(round, src, j)
				nb := slotLen[matrix.SlotIndex(r, a)]
				s.reqs = matrix.AppendSlotPrefix(s.reqs, r, a, nb)
				s.bufs = layout.SplitBlocksInto(s.bufs, s.flat[src*bpm*cfg.B:(src*bpm+nb)*cfg.B], cfg.B)
			}
			if _, err := layout.BeginReadFIFOScratch(arr, s.reqs, s.bufs, &s.lay, &sl.reads); err != nil {
				pf.End()
				return fmt.Errorf("core: round %d vp %d: begin inbox read: %w", round, j, err)
			}
			bank(sl, false)
		}
		pf.End()
		return nil
	}

	// wait drains a pending set, charging the blocked time to the stall
	// account when recording (the determinism contract forbids wall-clock
	// reads otherwise). The span name carries the ring depth, so a trace
	// shows which depth each residual stall was measured under.
	var stallNS int64
	wait := func(ps *pdm.PendingSet) error {
		if rec == nil {
			return ps.Wait()
		}
		if ps.Len() == 0 {
			return nil
		}
		t0 := time.Now()
		err := ps.Wait()
		stallNS += time.Since(t0).Nanoseconds()
		rec.SpanSince(track, stallName, "wait", t0)
		return err
	}

	recvItems := make([]int, v)
	sentItems := make([]int, v)

	pf := K / 2
	const maxRounds = 1 << 20
	for round := 0; ; round++ {
		if round >= maxRounds {
			return nil, fmt.Errorf("core: program exceeded %d rounds", maxRounds)
		}
		var doneAll bool
		for j := 0; j < v; j++ {
			recvItems[j], sentItems[j] = 0, 0
		}

		// Round prologue: burst the window's first pf prefetches in
		// synchronous order, so the per-disk workers see the whole
		// read-ahead at once and can coalesce it.
		for m := 0; m < pf && m < v; m++ {
			if err := beginReads(m, round); err != nil {
				drain()
				return nil, err
			}
		}

		for j := 0; j < v; j++ {
			cur := j % K
			sl := &pend[cur]
			s := scr[cur]
			ss := rec.Begin(track, "superstep", "superstep")

			if pf == 0 {
				// K = 1: no read-ahead — the slot's own write-behind must
				// land before its image is reloaded.
				if err := wait(&sl.writes); err != nil {
					ss.End()
					drain()
					return nil, fmt.Errorf("core: round %d vp %d: write back: %w", round, j, err)
				}
				if err := beginReads(j, round); err != nil {
					ss.End()
					drain()
					return nil, err
				}
			}

			// (a)+(b) Context and inbox were prefetched; wait for them.
			if err := wait(&sl.reads); err != nil {
				ss.End()
				drain()
				return nil, fmt.Errorf("core: round %d vp %d: read context/inbox: %w", round, j, err)
			}
			state, err := decodeCtx(codec, s.ctxImg[:ctxLen[j]*cfg.B])
			if err != nil {
				ss.End()
				drain()
				return nil, fmt.Errorf("core: round %d vp %d: %w", round, j, err)
			}
			inbox := make([][]T, v)
			if round > 0 {
				for src := 0; src < v; src++ {
					r, a := matrix.Place(round, src, j)
					nb := slotLen[matrix.SlotIndex(r, a)]
					msg, err := decodeMsg(codec, s.flat[src*bpm*cfg.B:(src*bpm+nb)*cfg.B])
					if err != nil {
						ss.End()
						drain()
						return nil, fmt.Errorf("core: round %d vp %d: message from %d: %w", round, j, src, err)
					}
					inbox[src] = msg
					recvItems[j] += len(msg)
				}
			}

			// Slide the window: the slot VP j+pf is about to prefetch into
			// still backs VP j+pf−K's write-behind; it must land before the
			// image is reused.
			if m := j + pf; pf > 0 && m < v {
				if err := wait(&pend[m%K].writes); err != nil {
					ss.End()
					drain()
					return nil, fmt.Errorf("core: round %d vp %d: write back: %w", round, m-K, err)
				}
				if err := beginReads(m, round); err != nil {
					ss.End()
					drain()
					return nil, err
				}
			}

			// (c) Simulate the local computation — the prefetched reads of
			// VPs j+1 … j+pf are now in flight underneath it.
			cp := rec.Begin(track, "compute", "phase")
			vp := &cgm.VP[T]{ID: j, V: v, State: state}
			outbox, done := prog.Round(vp, round, inbox)
			cp.End()
			if outbox != nil && len(outbox) != v {
				ss.End()
				drain()
				return nil, fmt.Errorf("core: vp %d round %d returned outbox of length %d, want %d or nil",
					j, round, len(outbox), v)
			}
			if j == 0 {
				doneAll = done
			} else if done != doneAll {
				ss.End()
				drain()
				return nil, fmt.Errorf("core: vp %d disagreed on termination at round %d", j, round)
			}

			// (d) Begin the outbox write (staggered) as write-behind.
			if !done {
				wb := rec.Begin(track, "outbox write", "writeback")
				s.reqs = s.reqs[:0]
				// Start the views empty but over s.flat, so the write below
				// loans s.flat — not s.bufs, which the context write-back
				// reuses while this write is in flight.
				s.bufs = layout.SplitBlocksInto(s.bufs[:0], s.flat[:0], cfg.B)
				for dst := 0; dst < v; dst++ {
					var msg []T
					if outbox != nil {
						msg = outbox[dst]
					}
					nb, err := encodeMsgInto(codec, g, msg, s.flat[dst*bpm*cfg.B:(dst+1)*bpm*cfg.B])
					if err != nil {
						wb.End()
						ss.End()
						drain()
						return nil, fmt.Errorf("vp %d round %d → %d: %w", j, round, dst, err)
					}
					r, a := matrix.Place(round+1, j, dst)
					slotLen[matrix.SlotIndex(r, a)] = nb
					s.reqs = matrix.AppendSlotPrefix(s.reqs, r, a, nb)
					s.bufs = layout.SplitBlocksInto(s.bufs, s.flat[dst*bpm*cfg.B:(dst*bpm+nb)*cfg.B], cfg.B)
					sentItems[j] += len(msg)
					if len(msg) > res.MaxMsgObserved {
						res.MaxMsgObserved = len(msg)
					}
				}
				if _, err := layout.BeginWriteFIFOScratch(arr, s.reqs, s.bufs, &s.lay, &sl.writes); err != nil {
					wb.End()
					ss.End()
					drain()
					return nil, fmt.Errorf("core: round %d vp %d: begin outbox write: %w", round, j, err)
				}
				wb.End()
				bank(sl, false)
			} else {
				res.Outputs[j] = prog.Output(vp)
			}

			// (e) Begin the context write-back (consecutive).
			wb := rec.Begin(track, "ctx write", "writeback")
			nb, err := encodeCtxInto(codec, g, vp.State, s.ctxImg)
			if err != nil {
				wb.End()
				ss.End()
				drain()
				return nil, fmt.Errorf("vp %d: %w", j, err)
			}
			if len(vp.State) > res.MaxCtxObserved {
				res.MaxCtxObserved = len(vp.State)
			}
			ctxLen[j] = nb
			s.bufs = layout.SplitBlocksInto(s.bufs[:0], s.ctxImg[:nb*cfg.B], cfg.B)
			if err := layout.BeginWriteStripedScratch(arr, 0, j*cb, s.bufs, &s.lay, &sl.writes); err != nil {
				wb.End()
				ss.End()
				drain()
				return nil, fmt.Errorf("core: round %d vp %d: begin context write: %w", round, j, err)
			}
			wb.End()
			bank(sl, true)

			res.CtxOps += sl.ctxOps
			res.MsgOps += sl.msgOps
			if rec != nil {
				ss.EndIO(obs.SuperstepIO{Proc: 0, Round: round, VP: j, Label: "superstep",
					CtxOps: sl.ctxOps, MsgOps: sl.msgOps, Blocks: sl.blocks})
			}
			sl.reset()
		}

		// Round epilogue: every slot's write-behind must land before the
		// scratches are reused — and round r+1's inbox reads depend on this
		// round's outbox writes, so no prefetch crosses the boundary.
		for i := range pend {
			if err := wait(&pend[i].writes); err != nil {
				drain()
				return nil, fmt.Errorf("core: round %d: write back: %w", round, err)
			}
		}

		res.Rounds = round + 1
		for j := 0; j < v; j++ {
			if recvItems[j] > res.MaxH {
				res.MaxH = recvItems[j]
			}
			if sentItems[j] > res.MaxH {
				res.MaxH = sentItems[j]
			}
		}
		if doneAll {
			break
		}
	}

	if rec != nil {
		rec.Counter("core_p0_stall_ns").Add(stallNS)
	}
	res.Stall = time.Duration(stallNS)
	res.Depth = K
	res.IOPerProc = []pdm.IOStats{arr.Stats()}
	res.IO = arr.Stats()
	res.Syscalls = pdm.SyscallsOf(arr)
	for i := 0; i < arr.D(); i++ {
		if t := arr.Disk(i).Tracks(); t > res.MaxTracks {
			res.MaxTracks = t
		}
	}
	res.Supersteps = res.Rounds * v // v compound supersteps per simulated round
	ledgerAdd(cfg, false, g, false, ledBase, res)
	return res, nil
}
