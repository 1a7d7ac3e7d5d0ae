package pdm

import (
	"sync"
	"sync/atomic"
)

// The word free list recycles the large []Word buffers a machine run
// allocates — MemDisk arena chunks and the drivers' superstep scratch —
// across runs, so a composite algorithm that builds one machine per phase
// does not pay a fresh make (and its zeroing) for every phase.
//
// Buffers are pooled by exact length. Rounding lengths up to a size class
// would let neighbouring geometries share buffers, but every cold
// allocation would then pay for the rounding; with exact lengths a run on
// an empty free list allocates exactly what it would without one.
//
// Recycled buffers are NOT zeroed. That is safe because every consumer
// overwrites a buffer before it reads it: scratch images are filled by a
// full-image encode (padding included) before any write, or by a
// full-image read before any decode, and a MemDisk track is readable only
// after a full-block write into it.
var (
	wordPoolMu sync.Mutex
	wordPools  = map[int]*sync.Pool{}
)

// wordPoison, when set, makes AllocWords fill every buffer it hands out
// with garbage (see SetWordPoison).
var wordPoison atomic.Bool

func wordPool(n int) *sync.Pool {
	wordPoolMu.Lock()
	defer wordPoolMu.Unlock()
	p := wordPools[n]
	if p == nil {
		p = new(sync.Pool)
		wordPools[n] = p
	}
	return p
}

// AllocWords returns a buffer of n words from the free list, or a fresh
// one when none of that length is free. The contents are unspecified:
// the caller must overwrite every word it later reads.
func AllocWords(n int) []Word {
	if n <= 0 {
		return nil
	}
	var w []Word
	if bp, ok := wordPool(n).Get().(*[]Word); ok {
		w = *bp
	} else {
		w = make([]Word, n)
	}
	if wordPoison.Load() {
		for i := range w {
			w[i] = 0xdeadbeefcafef00d ^ Word(i)*0x9e3779b97f4a7c15
		}
	}
	return w
}

// FreeWords returns a buffer obtained from AllocWords to the free list.
// The caller must hold no other reference to it — in particular no
// in-flight transfer may still target it.
func FreeWords(w []Word) {
	if cap(w) == 0 {
		return
	}
	w = w[:cap(w)]
	wordPool(len(w)).Put(&w)
}

// SetWordPoison switches poisoning of AllocWords on or off and returns
// the previous setting. With poisoning on, every buffer handed out —
// recycled or fresh — is filled with a non-zero garbage pattern, so a
// test can prove that no consumer depends on recycled buffers being
// zero. Production code never enables it.
func SetWordPoison(on bool) bool { return wordPoison.Swap(on) }
