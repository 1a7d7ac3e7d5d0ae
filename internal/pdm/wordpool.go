package pdm

import (
	"runtime"
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
// Idle buffers age with the garbage collector the way sync.Pool's do:
// after every collection the buffers freed since the one before become
// victims, and victims that stayed idle for a whole cycle are dropped, so
// an idle buffer is returned to the heap within two cycles. The list is
// not a sync.Pool, though. A sync.Pool parks the first buffer each P
// frees in that P's private slot, which no other P can take; whenever a
// run's buffers are freed on one P and the next run allocates on another
// — which the collector's own workers make more likely the more often it
// runs — one buffer of every length is stranded and the next run pays a
// fresh make for it. One stack per length under one mutex has no such
// slots, and its operations are rare: one per scratch image and per
// MemDisk arena chunk of a run.
//
// Recycled buffers are NOT zeroed. That is safe because every consumer
// overwrites a buffer before it reads it: the blocks of a scratch image
// that a write moves are filled by an encode (padding to the end of the
// last block included) first, a decode reads only blocks a read has just
// landed, and a MemDisk track is readable only after a full-block write
// into it.

// wordStack holds the idle buffers of one length: cur were freed since
// the last collection, old before it.
type wordStack struct {
	cur, old [][]Word
}

var (
	wordPoolMu sync.Mutex
	wordPools  = map[int]*wordStack{}
	wordStacks []*wordStack // every stack, in creation order, for aging
)

// wordPoison, when set, makes AllocWords fill every buffer it hands out
// with garbage (see SetWordPoison).
var wordPoison atomic.Bool

func init() { armWordAging() }

// gcTick is an object allocated only to become garbage: its cleanup runs
// once the collector has found it unreachable, so arming a fresh one from
// each cleanup ticks once per collection. It holds a pointer so that it
// is not tiny-allocated alongside objects that keep it alive.
type gcTick struct{ _ *byte }

// armWordAging schedules one ageWords after the next collection, and
// re-arms itself from there.
func armWordAging() {
	runtime.AddCleanup(&gcTick{}, func(struct{}) {
		ageWords()
		armWordAging()
	}, struct{}{})
}

// ageWords drops the victims and makes victims of the buffers freed since
// the last collection.
func ageWords() {
	wordPoolMu.Lock()
	defer wordPoolMu.Unlock()
	for _, s := range wordStacks {
		clear(s.old)
		s.old, s.cur = s.cur, s.old[:0]
	}
}

// AllocWords returns a buffer of n words from the free list, or a fresh
// one when none of that length is free. The contents are unspecified:
// the caller must overwrite every word it later reads.
func AllocWords(n int) []Word {
	if n <= 0 {
		return nil
	}
	w := popWords(n)
	if w == nil {
		w = make([]Word, n)
	}
	if wordPoison.Load() {
		for i := range w {
			w[i] = 0xdeadbeefcafef00d ^ Word(i)*0x9e3779b97f4a7c15
		}
	}
	return w
}

// popWords takes an idle buffer of n words, the most recently freed
// first, or returns nil.
func popWords(n int) []Word {
	wordPoolMu.Lock()
	defer wordPoolMu.Unlock()
	s := wordPools[n]
	if s == nil {
		return nil
	}
	for _, gen := range [2]*[][]Word{&s.cur, &s.old} {
		if k := len(*gen); k > 0 {
			w := (*gen)[k-1]
			(*gen)[k-1] = nil
			*gen = (*gen)[:k-1]
			return w
		}
	}
	return nil
}

// FreeWords returns a buffer obtained from AllocWords to the free list.
// The caller must hold no other reference to it — in particular no
// in-flight transfer may still target it.
func FreeWords(w []Word) {
	if cap(w) == 0 {
		return
	}
	w = w[:cap(w)]
	wordPoolMu.Lock()
	defer wordPoolMu.Unlock()
	s := wordPools[len(w)]
	if s == nil {
		s = &wordStack{}
		wordPools[len(w)] = s
		wordStacks = append(wordStacks, s)
	}
	s.cur = append(s.cur, w)
}

// DropFreeWords empties the free list, handing every idle buffer back to
// the garbage collector at once instead of within two collections. A
// test calls it to make the next run allocate every buffer fresh.
func DropFreeWords() {
	wordPoolMu.Lock()
	defer wordPoolMu.Unlock()
	for _, s := range wordStacks {
		clear(s.cur)
		clear(s.old)
		s.cur, s.old = s.cur[:0], s.old[:0]
	}
}

// SetWordPoison switches poisoning of AllocWords on or off and returns
// the previous setting. With poisoning on, every buffer handed out —
// recycled or fresh — is filled with a non-zero garbage pattern, so a
// test can prove that no consumer depends on recycled buffers being
// zero. Production code never enables it.
func SetWordPoison(on bool) bool { return wordPoison.Swap(on) }
