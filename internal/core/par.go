package core

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/cgm"
	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/pdm"
	"repro/internal/wordcodec"
)

// batch is what one virtual processor sends to one real processor in one
// superstep: its messages for every virtual processor local to that real
// processor. A final batch carries no messages (the algorithm finished).
type batch[T any] struct {
	srcVP int
	msgs  [][]T // indexed by local VP of the destination processor; nil entries = empty
	final bool
}

// procScratch is one real processor's working storage: a ring of K
// superstepScratch images (local VP l computes out of img[l mod K] while
// the slots ahead of it prefetch and the slots behind it drain) plus the
// reusable cross-processor batch containers. send[l·p+k] is the message
// container local VP l reuses for its batch to real processor k; a batch
// sent in round r is consumed by its receiver within round r (every
// processor drains all v batches before the round barrier), so reusing
// the container next round never clobbers an unread batch. The route
// phase reuses the same ring, cycling landed batches through all K slots;
// slots at or past localV serve only the route phase and hold no context
// image.
type procScratch[T any] struct {
	img  []*superstepScratch
	send [][][]T
}

// runPar is Algorithm 3: ParCompoundSuperstep. p real processors run as
// goroutines, each with its own D-disk array; each simulates v/p virtual
// processors per round and routes generated messages to the destination
// real processor over channels, which lays them out on its own disks.
//
// Per-processor disk map: contexts of the v/p local virtual processors
// first, then two rectangular message matrices used in ping-pong by round
// parity (incoming batches may arrive before the local inboxes of the
// same superstep are consumed, so the single-copy alternation of the
// sequential machine does not apply).
//
// Each real processor software-pipelines its local superstep loop exactly
// as runSeq does — a depth-K ring with prefetch distance ⌊K/2⌋, opened by
// a per-round burst of the window's reads, context write-behind drained
// lazily on slot reuse — and pipelines the route phase over the same K
// slots, encoding up to K landed batches while earlier ones' blocks are
// still being written. Channel sends (the real "network") stay
// synchronous, so the barrier protocol and its compensating-send contract
// do not depend on the depth.
//
// As in the sequential machine, the depth changes only the begin order of
// operations, never their multiset or addresses: within a round, the
// hoisted reads of VPs l+1 … l+⌊K/2⌋ (context runs and inbox regions)
// are address-disjoint from the writes of VPs ≤ l (context runs ≤ l),
// route writes target the opposite-parity matrix from the round's
// reads, and each processor drains its write-behind before returning
// from the round, so nothing crosses the barrier. PDM counts are
// bit-identical to the synchronous issue order of K = 1 at every depth.
func runPar[T any](prog cgm.Program[T], codec wordcodec.Codec[T], cfg Config, inputs [][]T) (*Result[T], error) {
	v, p := cfg.V, cfg.P
	if len(inputs) != v {
		return nil, fmt.Errorf("core: %d input partitions for V = %d", len(inputs), v)
	}
	localV := v / p
	g := newGeometry(prog, codec, cfg, inputs)
	cb, bpm := g.cb, g.bpm
	ctxTracks := (localV*cb+cfg.D-1)/cfg.D + 1

	// Ring depth per processor: capped at v (the route phase cycles up
	// to v batches through the ring even when localV is small), bounded
	// by M against k working sets beside the live-length tables. The VP
	// loop uses only slots below localV; the slots past them only ever
	// hold one route batch of localV·bpm blocks, so they are sized to that.
	slotBlocks := cb + v*bpm
	K, err := pipeDepth(cfg, v, slotBlocks*cfg.B, lengthTableWords(v, localV, true))
	if err != nil {
		return nil, err
	}
	shape := ringShape{full: localV, cb: cb, flatBlocks: v * bpm, routeBlocks: localV * bpm, b: cfg.B}

	// Per-processor state. Each processor's split-phase trackers (pends,
	// routePends) and live-length tables are owned by its goroutine for
	// the round's duration; rounds are sequenced by the barrier, so reuse
	// is race-free. The tables cover the processor's disks: ctxLen[i][l]
	// for local VP l's context run, and slotLen[i][parity] per physical
	// slot of that parity's rectangle. A processor's route phase fills the
	// opposite parity's table from the batches it lands, and its next
	// round's inbox reads consult it, so the lengths travel with the
	// batches at no extra communication.
	arrays := make([]*pdm.DiskArray, p)
	matrices := make([][2]layout.Rect, p)
	scrs := make([]*procScratch[T], p)
	pends := make([][]vpInflight, p)
	routePends := make([][]pdm.PendingSet, p)
	ctxLen := make([][]int, p)
	slotLen := make([][2][]int, p)
	for i := 0; i < p; i++ {
		ctxLen[i] = make([]int, localV)
		slotLen[i] = [2][]int{make([]int, localV*v), make([]int, localV*v)}
		a, err := cfg.newArray(i, shape.queueHint(K, cfg.D))
		if err != nil {
			return nil, err
		}
		arrays[i] = a
		m0, err := layout.NewRect(v, localV, bpm, cfg.D, ctxTracks)
		if err != nil {
			return nil, err
		}
		m1, err := layout.NewRect(v, localV, bpm, cfg.D, ctxTracks+m0.TotalTracks())
		if err != nil {
			return nil, err
		}
		matrices[i] = [2]layout.Rect{m0, m1}
		s := &procScratch[T]{}
		s.img, pends[i] = shape.ring(K)
		routePends[i] = make([]pdm.PendingSet, K)
		s.send = make([][][]T, localV*p)
		for k := range s.send {
			s.send[k] = make([][]T, localV)
		}
		scrs[i] = s
	}
	defer func() {
		for _, a := range arrays {
			_ = a.Close() // cleanup path; I/O errors already surfaced per op
		}
		for _, s := range scrs {
			releaseRing(s.img...)
		}
	}()

	rec := cfg.Recorder
	var mtrack obs.TrackID
	var tracks []obs.TrackID
	stallName := "stall"
	if rec != nil {
		mtrack = rec.Track("machine")
		tracks = make([]obs.TrackID, p)
		for i := 0; i < p; i++ {
			tracks[i] = rec.Track(fmt.Sprintf("proc %d", i))
			arrays[i].SetRecorder(rec, i)
		}
		rec.Gauge("core_pipeline_depth", func() int64 { return int64(K) })
		stallName = fmt.Sprintf("stall k=%d", K)
	}

	owner := func(vp int) int { return vp / localV }
	localIdx := func(vp int) int { return vp % localV }
	cacheCtx := cfg.CacheContexts && localV == 1
	cached := make([][]T, p) // resident contexts when cacheCtx

	res := &Result[T]{Outputs: make([][]T, v)}

	// Input distribution — synchronous.
	ledBase := rec.StepCount()
	initSpan := rec.Begin(mtrack, "input distribution", "init")
	for j := 0; j < v; j++ {
		vp := &cgm.VP[T]{ID: j, V: v}
		prog.Init(vp, inputs[j])
		if len(vp.State) > res.MaxCtxObserved {
			res.MaxCtxObserved = len(vp.State)
		}
		if cacheCtx {
			if len(vp.State) > g.maxCtx {
				initSpan.End()
				return nil, fmt.Errorf("core: context of %d items exceeds μ = %d", len(vp.State), g.maxCtx)
			}
			cached[owner(j)] = vp.State
			continue
		}
		i, l := owner(j), localIdx(j)
		scr := scrs[i].img[0]
		nb, err := encodeCtxInto(codec, g, vp.State, scr.ctxImg)
		if err != nil {
			initSpan.End()
			return nil, err
		}
		ctxLen[i][l] = nb
		scr.bufs = layout.SplitBlocksInto(scr.bufs[:0], scr.ctxImg[:nb*cfg.B], cfg.B)
		if err := layout.WriteStripedScratch(arrays[i], 0, l*cb, scr.bufs, &scr.lay); err != nil {
			initSpan.End()
			return nil, err
		}
	}
	initOps := int64(0)
	for _, a := range arrays {
		initOps += a.Stats().ParallelOps
	}
	res.CtxOps = initOps
	if rec != nil {
		var blocks int64
		for _, a := range arrays {
			blocks += a.Stats().BlocksMoved
		}
		initSpan.EndIO(obs.SuperstepIO{Proc: -1, Round: -1, VP: -1, Label: "init",
			CtxOps: initOps, Blocks: blocks})
	}

	chans := make([]chan batch[T], p)
	for i := range chans {
		chans[i] = make(chan batch[T], v) // each proc receives exactly v batches per round
	}

	type procOut struct {
		done           bool
		err            error
		ctxOps, msgOps int64
		sent, recv     []int // per local VP items
		comm           int64
		maxMsg, maxCtx int
		stallNS        int64     // time blocked in Wait (recording only)
		finish         time.Time // when this proc's work ended (recording only)
	}

	prevOps := make([]int64, p)
	for i, a := range arrays {
		prevOps[i] = a.Stats().ParallelOps
	}
	prevBlocks := make([]int64, p)
	for i, a := range arrays {
		prevBlocks[i] = a.Stats().BlocksMoved
	}

	// Per-proc h-relation accounting, reused across rounds like the scratch.
	sentItems := make([][]int, p)
	recvItems := make([][]int, p)
	for i := 0; i < p; i++ {
		sentItems[i] = make([]int, localV)
		recvItems[i] = make([]int, localV)
	}

	pf := K / 2

	// emcgm:barrier(send=chans,rounds=v)
	runProc := func(i, round int) (out procOut) {
		out = procOut{sent: sentItems[i], recv: recvItems[i]}
		for l := 0; l < localV; l++ {
			out.sent[l], out.recv[l] = 0, 0
		}
		var track obs.TrackID
		if rec != nil {
			track = tracks[i]
		}
		// Every processor's receive loop expects exactly v batches per
		// round. If this processor aborts mid-superstep it must still
		// emit the batches its remaining local VPs owe, or its peers
		// block forever on their drain loops.
		sentVPs := 0
		defer func() {
			if out.err == nil {
				return
			}
			for l := sentVPs; l < localV; l++ {
				for k := 0; k < p; k++ {
					chans[k] <- batch[T]{srcVP: i*localV + l, final: true}
				}
			}
		}()
		arr := arrays[i]
		scr := scrs[i]
		pend := pends[i]
		routePend := routePends[i]
		readM := matrices[i][round%2]
		readLen := slotLen[i][round%2]
		writeParity := (round + 1) % 2

		drain := func() {
			for k := range pend {
				_ = pend[k].reads.Wait() // error path; the reported error wins
				_ = pend[k].writes.Wait()
			}
			for k := range routePend {
				_ = routePend[k].Wait()
			}
		}

		wait := func(ps *pdm.PendingSet) error {
			if rec == nil {
				return ps.Wait()
			}
			if ps.Len() == 0 {
				return nil
			}
			t0 := time.Now()
			err := ps.Wait()
			out.stallNS += time.Since(t0).Nanoseconds()
			rec.SpanSince(track, stallName, "wait", t0)
			return err
		}

		lastOps, lastBlocks := prevOps[i], prevBlocks[i]
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

		beginReads := func(l int) error {
			sl := &pend[l%K]
			s := scr.img[l%K]
			pf := rec.Begin(track, "prefetch", "prefetch")
			if !cacheCtx {
				if err := layout.BeginReadStripedScratch(arr, 0, l*cb, s.ctxImg[:ctxLen[i][l]*cfg.B], &s.lay, &sl.reads); err != nil {
					pf.End()
					return fmt.Errorf("core: round %d vp %d: begin context read: %w", round, i*localV+l, err)
				}
				bank(sl, true)
			}
			if round > 0 {
				s.reqs, s.bufs = s.reqs[:0], s.bufs[:0]
				for src := 0; src < v; src++ {
					nb := readLen[readM.SlotIndex(l, src)]
					s.reqs = readM.AppendSlotPrefix(s.reqs, l, src, nb)
					s.bufs = layout.SplitBlocksInto(s.bufs, s.flat[src*bpm*cfg.B:(src*bpm+nb)*cfg.B], cfg.B)
				}
				if _, err := layout.BeginReadFIFOScratch(arr, s.reqs, s.bufs, &s.lay, &sl.reads); err != nil {
					pf.End()
					return fmt.Errorf("core: round %d vp %d: begin inbox read: %w", round, i*localV+l, err)
				}
				bank(sl, false)
			}
			pf.End()
			return nil
		}

		// Round prologue: burst the window's first pf prefetches so the
		// per-disk workers can coalesce the whole read-ahead.
		for m := 0; m < pf && m < localV; m++ {
			if err := beginReads(m); err != nil {
				drain()
				out.err = err
				return out
			}
		}

		doneLocal := false
		for l := 0; l < localV; l++ {
			j := i*localV + l
			cur := l % K
			sl := &pend[cur]
			s := scr.img[cur]
			ss := rec.Begin(track, "superstep", "superstep")

			if pf == 0 {
				// K = 1: the slot's write-behind lands before its reload.
				if err := wait(&sl.writes); err != nil {
					ss.End()
					drain()
					out.err = fmt.Errorf("core: round %d vp %d: write back: %w", round, j, err)
					return out
				}
				if err := beginReads(l); err != nil {
					ss.End()
					drain()
					out.err = err
					return out
				}
			}

			// (a)+(b) Context and inbox were prefetched; wait for them.
			if err := wait(&sl.reads); err != nil {
				ss.End()
				drain()
				out.err = fmt.Errorf("core: round %d vp %d: read context/inbox: %w", round, j, err)
				return out
			}
			var state []T
			if cacheCtx {
				state = cached[i]
			} else {
				var err error
				state, err = decodeCtx(codec, s.ctxImg[:ctxLen[i][l]*cfg.B])
				if err != nil {
					ss.End()
					drain()
					out.err = fmt.Errorf("core: round %d vp %d: %w", round, j, err)
					return out
				}
			}
			inbox := make([][]T, v)
			if round > 0 {
				for src := 0; src < v; src++ {
					nb := readLen[readM.SlotIndex(l, src)]
					msg, err := decodeMsg(codec, s.flat[src*bpm*cfg.B:(src*bpm+nb)*cfg.B])
					if err != nil {
						ss.End()
						drain()
						out.err = fmt.Errorf("core: round %d vp %d: message from %d: %w", round, j, src, err)
						return out
					}
					inbox[src] = msg
					out.recv[l] += len(msg)
				}
			}

			// Slide the window: the slot VP l+pf prefetches into still
			// backs VP l+pf−K's write-behind.
			if m := l + pf; pf > 0 && m < localV {
				if err := wait(&pend[m%K].writes); err != nil {
					ss.End()
					drain()
					out.err = fmt.Errorf("core: round %d vp %d: write back: %w", round, i*localV+m-K, err)
					return out
				}
				if err := beginReads(m); err != nil {
					ss.End()
					drain()
					out.err = err
					return out
				}
			}

			// (c) Compute, with the window's reads in flight underneath.
			cp := rec.Begin(track, "compute", "phase")
			vp := &cgm.VP[T]{ID: j, V: v, State: state}
			outbox, done := prog.Round(vp, round, inbox)
			cp.End()
			if outbox != nil && len(outbox) != v {
				ss.End()
				drain()
				out.err = fmt.Errorf("core: vp %d round %d returned outbox of length %d, want %d or nil",
					j, round, len(outbox), v)
				return out
			}
			if l == 0 {
				doneLocal = done
			} else if done != doneLocal {
				ss.End()
				drain()
				out.err = fmt.Errorf("core: vp %d disagreed on termination at round %d", j, round)
				return out
			}
			if done {
				res.Outputs[j] = prog.Output(vp)
			}
			// (d) Send generated messages to their real destinations.
			sp := rec.Begin(track, "send", "phase")
			for k := 0; k < p; k++ {
				b := batch[T]{srcVP: j, final: done}
				if !done {
					msgs := scr.send[l*p+k]
					for dl := 0; dl < localV; dl++ {
						msgs[dl] = nil
						dst := k*localV + dl
						if outbox != nil {
							msgs[dl] = outbox[dst]
							if len(outbox[dst]) > out.maxMsg {
								out.maxMsg = len(outbox[dst])
							}
							out.sent[l] += len(outbox[dst])
							if k != i {
								out.comm += int64(len(outbox[dst]))
							}
						}
					}
					b.msgs = msgs
				}
				chans[k] <- b
			}
			sp.End()
			sentVPs++
			// (e) Begin the context write-behind (or keep resident).
			if len(vp.State) > out.maxCtx {
				out.maxCtx = len(vp.State)
			}
			if cacheCtx {
				if len(vp.State) > g.maxCtx {
					ss.End()
					drain()
					out.err = fmt.Errorf("core: round %d vp %d: context of %d items exceeds μ = %d",
						round, j, len(vp.State), g.maxCtx)
					return out
				}
				cached[i] = vp.State
			} else {
				wp := rec.Begin(track, "ctx write", "writeback")
				nb, err := encodeCtxInto(codec, g, vp.State, s.ctxImg)
				if err != nil {
					wp.End()
					ss.End()
					drain()
					out.err = fmt.Errorf("core: round %d vp %d: write context: %w", round, j, err)
					return out
				}
				ctxLen[i][l] = nb
				s.bufs = layout.SplitBlocksInto(s.bufs[:0], s.ctxImg[:nb*cfg.B], cfg.B)
				if err := layout.BeginWriteStripedScratch(arr, 0, l*cb, s.bufs, &s.lay, &sl.writes); err != nil {
					wp.End()
					ss.End()
					drain()
					out.err = fmt.Errorf("core: round %d vp %d: write context: %w", round, j, err)
					return out
				}
				wp.End()
				bank(sl, true)
			}
			out.ctxOps += sl.ctxOps
			out.msgOps += sl.msgOps
			if rec != nil {
				ss.EndIO(obs.SuperstepIO{Proc: i, Round: round, VP: j, Label: "superstep",
					CtxOps: sl.ctxOps, MsgOps: sl.msgOps, Blocks: sl.blocks})
			}
			sl.reset()
		}

		// The route phase reuses the scratch ring; the VP loop's
		// write-behind must land first.
		for k := range pend {
			if err := wait(&pend[k].writes); err != nil {
				drain()
				out.err = fmt.Errorf("core: round %d proc %d: write back: %w", round, i, err)
				return out
			}
		}

		// Receive exactly v batches (one per virtual processor in the
		// machine) and lay their messages out for the next superstep,
		// pipelined over the ring: encode batch n while up to K−1 earlier
		// batches' blocks are still being written — the same burst the VP
		// loop gives the coalescing workers, now on the write side.
		rt := rec.Begin(track, "route batches", "route")
		writeM := matrices[i][writeParity]
		writeLen := slotLen[i][writeParity]
		var rtOps, rtBlocks int64
		nb := 0
		for got := 0; got < v; got++ {
			b := <-chans[i]
			if b.final {
				continue
			}
			s := scr.img[nb%K]
			if err := wait(&routePend[nb%K]); err != nil {
				rt.End()
				drain()
				out.err = fmt.Errorf("core: round %d proc %d: write batch: %w", round, i, err)
				return out
			}
			s.reqs, s.bufs = s.reqs[:0], s.bufs[:0]
			for dl := 0; dl < localV; dl++ {
				nb, err := encodeMsgInto(codec, g, b.msgs[dl], s.flat[dl*bpm*cfg.B:(dl+1)*bpm*cfg.B])
				if err != nil {
					rt.End()
					drain()
					out.err = fmt.Errorf("vp %d round %d → %d: %w", b.srcVP, round, i*localV+dl, err)
					return out
				}
				writeLen[writeM.SlotIndex(dl, b.srcVP)] = nb
				s.reqs = writeM.AppendSlotPrefix(s.reqs, dl, b.srcVP, nb)
				s.bufs = layout.SplitBlocksInto(s.bufs, s.flat[dl*bpm*cfg.B:(dl*bpm+nb)*cfg.B], cfg.B)
			}
			if _, err := layout.BeginWriteFIFOScratch(arr, s.reqs, s.bufs, &s.lay, &routePend[nb%K]); err != nil {
				rt.End()
				drain()
				out.err = fmt.Errorf("core: round %d proc %d: write batch from vp %d: %w", round, i, b.srcVP, err)
				return out
			}
			st := arr.Stats()
			rtOps += st.ParallelOps - lastOps
			rtBlocks += st.BlocksMoved - lastBlocks
			lastOps, lastBlocks = st.ParallelOps, st.BlocksMoved
			nb++
		}
		// The next round's prologue reuses the scratch images; the route
		// write-behind must land before this processor leaves the barrier.
		for k := range routePend {
			if err := wait(&routePend[k]); err != nil {
				rt.End()
				drain()
				out.err = fmt.Errorf("core: round %d proc %d: write batch: %w", round, i, err)
				return out
			}
		}
		out.msgOps += rtOps
		if rec != nil {
			rt.EndIO(obs.SuperstepIO{Proc: i, Round: round, VP: -1, Label: "route",
				MsgOps: rtOps, Blocks: rtBlocks})
			out.finish = time.Now()
		}

		out.done = doneLocal
		prevOps[i] = lastOps
		prevBlocks[i] = lastBlocks
		return out
	}

	var stallNS int64
	const maxRounds = 1 << 20
	for round := 0; ; round++ {
		if round >= maxRounds {
			return nil, fmt.Errorf("core: program exceeded %d rounds", maxRounds)
		}
		rd := rec.Begin(mtrack, "round", "round")
		outs := make([]procOut, p)
		var wg sync.WaitGroup
		for i := 0; i < p; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				outs[i] = runProc(i, round)
			}(i)
		}
		wg.Wait()
		if rec != nil {
			// Barrier wait: the gap between each processor finishing its
			// round work and the slowest processor releasing the barrier.
			for i := 0; i < p; i++ {
				if !outs[i].finish.IsZero() {
					rec.SpanSince(tracks[i], "barrier wait", "wait", outs[i].finish)
				}
			}
		}
		rd.End()

		for i := range outs {
			if outs[i].err != nil {
				return nil, outs[i].err
			}
		}
		done := outs[0].done
		for i := range outs {
			if outs[i].done != done {
				return nil, fmt.Errorf("core: real processor %d disagreed on termination at round %d", i, round)
			}
			res.CtxOps += outs[i].ctxOps
			res.MsgOps += outs[i].msgOps
			res.CommItems += outs[i].comm
			stallNS += outs[i].stallNS
			if outs[i].maxMsg > res.MaxMsgObserved {
				res.MaxMsgObserved = outs[i].maxMsg
			}
			if outs[i].maxCtx > res.MaxCtxObserved {
				res.MaxCtxObserved = outs[i].maxCtx
			}
			for _, h := range outs[i].sent {
				if h > res.MaxH {
					res.MaxH = h
				}
			}
			for _, h := range outs[i].recv {
				if h > res.MaxH {
					res.MaxH = h
				}
			}
		}
		res.Rounds = round + 1
		if done {
			break
		}
	}

	if rec != nil {
		rec.Counter("core_stall_ns").Add(stallNS)
	}
	res.Stall = time.Duration(stallNS)
	res.Depth = K
	res.IOPerProc = make([]pdm.IOStats, p)
	for i, a := range arrays {
		res.IOPerProc[i] = a.Stats()
		res.IO.Add(a.Stats())
		res.Syscalls += pdm.SyscallsOf(a)
		for k := 0; k < a.D(); k++ {
			if t := a.Disk(k).Tracks(); t > res.MaxTracks {
				res.MaxTracks = t
			}
		}
	}
	res.Supersteps = res.Rounds * localV
	ledgerAdd(cfg, true, g, cacheCtx, ledBase, res)
	return res, nil
}
