package core

import (
	"fmt"
)

// This file resolves Config.PipelineDepth into the ring depth the
// superstep drivers run with, and sizes everything that scales with it
// (scratch slots, per-disk queue capacity). The ring is built once per
// run and never changes size, so recorded and unrecorded runs follow one
// schedule.
//
// Depth policy:
//
//   - PipelineDepth > 0: that depth exactly, clamped only by v (a window
//     deeper than the VPs it can cover buys nothing); a fixed depth whose
//     k working sets exceed M is an error, not a silent clamp, because
//     the caller asked for a specific memory/overlap trade.
//   - PipelineDepth = 0: defaultPipelineDepth, clamped by v and by M.

// defaultPipelineDepth is the ring depth PipelineDepth: 0 resolves to.
// Deeper windows buy no I/O reduction — every depth issues the same
// operations — so the constant is measured, not modelled: a 2-slot ring
// allocated about 16% more bytes per input byte on the Group C LCA
// benchmark than this one.
const defaultPipelineDepth = 8

// pipeDepth resolves the configured depth for a driver whose ring cannot
// usefully exceed vCap slots and whose per-slot working set is slotWords
// words (one context run + one full message image), beside tableWords
// words of live-length tables that every depth needs.
func pipeDepth(cfg Config, vCap, slotWords, tableWords int) (int, error) {
	k := cfg.PipelineDepth
	fixed := k > 0
	if !fixed {
		k = defaultPipelineDepth
	}
	k = max(1, min(k, vCap))
	if cfg.M > 0 && slotWords > 0 {
		fit := (cfg.M - tableWords) / slotWords
		if fit < 1 {
			return 0, fmt.Errorf("core: one pipelined working set of %d words plus %d words of length tables exceeds M = %d; shrink the context/message bounds or raise M", slotWords, tableWords, cfg.M)
		}
		if fixed && k > fit {
			return 0, fmt.Errorf("core: PipelineDepth = %d needs %d words (k working sets of %d plus %d words of length tables), but M = %d fits only %d; lower the depth, raise M, or use PipelineDepth: 0 (the default clamps)",
				k, k*slotWords+tableWords, slotWords, tableWords, cfg.M, fit)
		}
		k = min(k, fit)
	}
	return k, nil
}

// ringShape describes a driver's scratch ring by what each slot actually
// holds. Slots below full carry a full superstep working set: a context
// run of cb blocks plus a flatBlocks-block inbox image. The slots past
// them are only ever used by the parallel driver's route phase, which
// encodes one landed batch of routeBlocks blocks per slot and never a
// context, so they get a route-only image. The sequential driver sets
// full ≥ its depth: every one of its slots is a VP slot.
type ringShape struct {
	full, cb, flatBlocks, routeBlocks, b int
}

// ring builds a ring of k scratch slots of this shape, with one
// in-flight tracker per slot.
func (r ringShape) ring(k int) ([]*superstepScratch, []vpInflight) {
	scr := make([]*superstepScratch, k)
	for i := range scr {
		if i < r.full {
			scr[i] = newSuperstepScratch(r.cb, r.flatBlocks, r.b)
		} else {
			scr[i] = newSuperstepScratch(0, r.routeBlocks, r.b)
		}
	}
	return scr, make([]vpInflight, k)
}

// queueHint sizes the per-disk work queues for a ring of k slots of this
// shape striped/packed over d disks. The two phases of a round never
// overlap in flight — the VP loop's transfers all land before the route
// phase begins, and the route writes before the round ends — so the
// burst to absorb is the larger phase's: the VP slots' working sets, or
// one route batch per slot. Each slot's per-disk share is padded by one
// transfer for uneven packing, and the whole doubled as slack. The array
// still applies its own default floor.
func (r ringShape) queueHint(k, d int) int {
	if d < 1 {
		d = 1
	}
	perDisk := func(blocks int) int { return (blocks+d-1)/d + 1 }
	vpPhase := min(k, r.full) * perDisk(r.cb+r.flatBlocks)
	routePhase := k * perDisk(r.routeBlocks)
	return 2 * max(vpPhase, routePhase)
}
