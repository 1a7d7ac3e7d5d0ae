package core

import (
	"fmt"

	"repro/internal/costmodel"
	"repro/internal/pdm"
)

// This file resolves Config.PipelineDepth into the ring depth the
// pipelined drivers actually run with, and sizes everything that scales
// with it (scratch slots, per-disk queue capacity).
//
// Depth policy:
//
//   - PipelineDepth > 0: that depth exactly, clamped only by v (a window
//     deeper than the VPs it can cover buys nothing); a fixed depth whose
//     k working sets exceed M is an error, not a silent clamp, because
//     the caller asked for a specific memory/overlap trade.
//   - PipelineDepth = 0 (auto): costmodel.AutoDepth picks the initial k
//     from the calibrated time model (positioning-dominated disks get
//     deep windows), clamped by v and by M. The drivers may then grow
//     the ring up to maxK between rounds while the measured stall
//     fraction stays high — growth only, so scratch is never freed
//     mid-run, and only under a Recorder, since the trigger is a
//     wall-clock measurement the determinism contract scopes to
//     recorded runs.

// maxPipelineDepth caps the ring depth the online adaptation may grow an
// auto-sized window to. Past this point a deeper window no longer adds
// overlap (compute per superstep is already fully hidden or never will
// be) and only inflates memory.
const maxPipelineDepth = 16

// adaptGrowNum/adaptGrowDen: the adaptation doubles the ring when a
// round's measured stall exceeds 1/5 of its wall time per processor —
// high enough that ramp-up noise at small rounds does not trigger it,
// low enough that the acceptance target (stall fraction ≤ 0.25) is
// inside its reach.
const (
	adaptGrowNum = 1
	adaptGrowDen = 5
)

// pipeDepth resolves the configured depth for a driver whose ring cannot
// usefully exceed vCap slots and whose per-slot working set is slotWords
// words (one context run + one full message image), beside tableWords
// words of live-length tables that every depth needs. It returns the
// initial ring depth and the cap the online adaptation may grow it to
// (maxK == k for fixed depths).
func pipeDepth(cfg Config, vCap, slotWords, tableWords int) (k, maxK int, err error) {
	fixed := cfg.PipelineDepth > 0
	if fixed {
		k = cfg.PipelineDepth
	} else {
		tm := pdm.DefaultTimeModel()
		if cfg.Ledger != nil {
			tm = cfg.Ledger.TimeModel()
		}
		k = costmodel.AutoDepth(tm, cfg.B)
	}
	if k > vCap {
		k = vCap
	}
	if k < 1 {
		k = 1
	}
	fit := maxPipelineDepth
	if cfg.M > 0 && slotWords > 0 {
		fit = (cfg.M - tableWords) / slotWords
		if fit < 1 {
			return 0, 0, fmt.Errorf("core: one pipelined working set of %d words plus %d words of length tables exceeds M = %d; shrink the context/message bounds or raise M", slotWords, tableWords, cfg.M)
		}
		if fixed && k > fit {
			return 0, 0, fmt.Errorf("core: PipelineDepth = %d needs %d words (k working sets of %d plus %d words of length tables), but M = %d fits only %d; lower the depth, raise M, or use PipelineDepth: 0 (auto clamps)",
				k, k*slotWords+tableWords, slotWords, tableWords, cfg.M, fit)
		}
		if k > fit {
			k = fit
		}
	}
	maxK = k
	if !fixed {
		maxK = maxPipelineDepth
		if maxK > vCap {
			maxK = vCap
		}
		if maxK > fit {
			maxK = fit
		}
		if maxK < k {
			maxK = k
		}
	}
	return k, maxK, nil
}

// ringShape describes a pipelined driver's scratch ring by what each slot
// actually holds. Slots below full carry a full superstep working set: a
// context run of cb blocks plus a flatBlocks-block inbox image. The slots
// past them are only ever used by the parallel driver's route phase, which
// encodes one landed batch of routeBlocks blocks per slot and never a
// context, so they get a route-only image. The sequential driver sets
// full ≥ its maximum depth: every one of its slots is a VP slot.
type ringShape struct {
	full, cb, flatBlocks, routeBlocks, b int
}

// slot builds ring slot i.
func (r ringShape) slot(i int) *superstepScratch {
	if i < r.full {
		return newSuperstepScratch(r.cb, r.flatBlocks, r.b)
	}
	return newSuperstepScratch(0, r.routeBlocks, r.b)
}

// queueHint sizes the per-disk work queues for a ring of up to maxK slots
// of this shape striped/packed over d disks. The two phases of a round
// never overlap in flight — the VP loop's transfers all land before the
// route phase begins, and the route writes before the round ends — so the
// burst to absorb is the larger phase's: the VP slots' working sets, or
// one route batch per slot. Each slot's per-disk share is padded by one
// transfer for uneven packing, and the whole doubled as slack. The array
// still applies its own default floor.
func (r ringShape) queueHint(maxK, d int) int {
	if d < 1 {
		d = 1
	}
	perDisk := func(blocks int) int { return (blocks+d-1)/d + 1 }
	vpPhase := min(maxK, r.full) * perDisk(r.cb+r.flatBlocks)
	routePhase := maxK * perDisk(r.routeBlocks)
	return 2 * max(vpPhase, routePhase)
}

// growRing appends scratch slots of the given shape and in-flight trackers
// to a driver's ring, taking it from its current depth to k. Callers grow
// only between rounds, with every slot's reads and writes drained, so the
// new slots are immediately usable.
func growRing(scr []*superstepScratch, pend []vpInflight, k int, shape ringShape) ([]*superstepScratch, []vpInflight) {
	for len(scr) < k {
		scr = append(scr, shape.slot(len(scr)))
		pend = append(pend, vpInflight{})
	}
	return scr, pend
}
