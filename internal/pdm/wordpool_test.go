package pdm

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestWordPoolConcurrent drives the free list from several goroutines at
// once, as the disk workers of concurrent arrays do: every buffer handed
// out has exactly the requested length, and no buffer is handed to two
// holders at the same time (each holder's pattern survives until it
// frees the buffer). Run under -race it also checks the hand-off between
// FreeWords on one goroutine and AllocWords on another.
func TestWordPoolConcurrent(t *testing.T) {
	lengths := []int{1, 7, 64, 513, 4096}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				n := lengths[(g+i)%len(lengths)]
				w := AllocWords(n)
				if len(w) != n || cap(w) != n {
					t.Errorf("AllocWords(%d): len %d cap %d", n, len(w), cap(w))
					return
				}
				tag := Word(g<<32 | i)
				for k := range w {
					w[k] = tag
				}
				for k := range w {
					if w[k] != tag {
						t.Errorf("goroutine %d: buffer of %d words shared with another holder", g, n)
						return
					}
				}
				FreeWords(w)
			}
		}(g)
	}
	wg.Wait()

	if w := AllocWords(0); w != nil {
		t.Errorf("AllocWords(0) = %d words, want nil", len(w))
	}
	FreeWords(nil) // a no-op, like the empty context image of a route-only slot
}

// TestWordPoison pins the test hook the recycled-scratch tests rely on:
// with poisoning on, every buffer handed out — fresh or recycled — is
// garbage, not zero.
func TestWordPoison(t *testing.T) {
	defer SetWordPoison(SetWordPoison(true))
	for _, recycled := range []bool{false, true} {
		w := AllocWords(333)
		zero := 0
		for _, x := range w {
			if x == 0 {
				zero++
			}
		}
		if zero != 0 {
			t.Errorf("recycled=%v: %d of %d poisoned words are zero", recycled, zero, len(w))
		}
		FreeWords(w)
	}
}

// TestMemDiskRecycledArena checks that a MemDisk built on arena chunks
// another disk returned at Close behaves like a fresh one: a track never
// written on the new disk still reads ErrTrackOutOfRange, not the old
// disk's data, and written tracks read back exactly.
func TestMemDiskRecycledArena(t *testing.T) {
	const b = 8
	src := make([]Word, b)
	old := NewMemDisk(b)
	for tr := 0; tr < memDiskArenaTracks; tr++ {
		for i := range src {
			src[i] = ^Word(tr*b + i)
		}
		if err := old.WriteTrack(tr, src); err != nil {
			t.Fatal(err)
		}
	}
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}

	d := NewMemDisk(b)
	got := make([]Word, b)
	if err := d.WriteTrack(3, src); err != nil {
		t.Fatal(err)
	}
	for _, tr := range []int{0, 1, 2} {
		if err := d.ReadTrack(tr, got); !errors.Is(err, ErrTrackOutOfRange) {
			t.Errorf("unwritten track %d: err = %v, want ErrTrackOutOfRange", tr, err)
		}
	}
	for i := range src {
		src[i] = Word(i)
	}
	if err := d.WriteTrack(0, src); err != nil {
		t.Fatal(err)
	}
	if err := d.ReadTrack(0, got); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != Word(i) {
			t.Fatalf("track 0 word %d = %#x, want %d", i, got[i], i)
		}
	}
}

// TestWordPoolReusesAcrossGoroutines pins what the free list is for: a
// buffer freed by one goroutine is the next one handed out for its
// length, whichever goroutine — and so whichever P — asks for it.
func TestWordPoolReusesAcrossGoroutines(t *testing.T) {
	const n = 777
	w := AllocWords(n)
	FreeWords(w)
	got := make(chan []Word)
	go func() { got <- AllocWords(n) }()
	r := <-got
	if &r[0] != &w[0] {
		t.Error("a freed buffer was not handed out again: the next run would pay a fresh make")
	}
	FreeWords(r)
	DropFreeWords()
	if r := AllocWords(n); &r[0] == &w[0] {
		t.Error("DropFreeWords kept an idle buffer")
	}
}

// TestWordPoolAgesWithGC checks that idle buffers go back to the heap
// within two collections, as they would from a sync.Pool: the free list
// must not pin a finished run's memory for the life of the process.
func TestWordPoolAgesWithGC(t *testing.T) {
	const n = 779
	FreeWords(make([]Word, n))
	idle := func() int {
		wordPoolMu.Lock()
		defer wordPoolMu.Unlock()
		s := wordPools[n]
		return len(s.cur) + len(s.old)
	}
	// Aging runs from a cleanup after each collection, asynchronously.
	deadline := time.Now().Add(10 * time.Second)
	for idle() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d idle buffers survived collections for 10 s", idle())
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}
