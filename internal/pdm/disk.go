package pdm

import (
	"sync"
)

// Disk is a track-addressed block store. Every track holds exactly one
// block of B words. Tracks are created on first write; reading a track
// that was never written returns ErrTrackOutOfRange.
//
// Implementations must be safe for concurrent use on *distinct* tracks
// (the DiskArray runs one persistent worker goroutine per disk, and
// layouts never address the same disk twice within one parallel
// operation).
type Disk interface {
	// ReadTrack copies track t into dst, which must have length B.
	ReadTrack(t int, dst []Word) error
	// WriteTrack stores src (length B) as track t, allocating as needed.
	WriteTrack(t int, src []Word) error
	// BlockSize returns B, the words per track.
	BlockSize() int
	// Tracks returns the number of allocated tracks (highest written + 1).
	Tracks() int
	// Close releases resources. A closed disk rejects all I/O.
	Close() error
}

// memDiskArenaTracks is how many tracks' worth of storage a MemDisk
// allocates at once: first writes slice their track out of the current
// arena chunk instead of paying one make per track.
const memDiskArenaTracks = 64

// MemDisk is an in-memory Disk. The zero value is not usable; construct
// with NewMemDisk.
type MemDisk struct {
	mu     sync.RWMutex
	b      int
	tracks [][]Word
	arena  []Word   // unused tail of the current chunk
	chunks [][]Word // every arena chunk, returned to the word free list on Close
	closed bool
}

// NewMemDisk returns an empty in-memory disk with block size b.
func NewMemDisk(b int) *MemDisk {
	if b < 1 {
		panic("pdm: NewMemDisk with block size < 1")
	}
	return &MemDisk{b: b}
}

// BlockSize returns the words per track.
func (d *MemDisk) BlockSize() int { return d.b }

// Tracks returns the number of allocated tracks.
func (d *MemDisk) Tracks() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.tracks)
}

// readLocked copies track t into dst; caller holds mu (either mode).
//
// emcgm:hotpath
func (d *MemDisk) readLocked(t int, dst []Word) error {
	if d.closed {
		return ErrClosed
	}
	if t < 0 || t >= len(d.tracks) || d.tracks[t] == nil {
		return ErrTrackOutOfRange
	}
	copy(dst, d.tracks[t])
	return nil
}

// writeLocked stores src as track t; caller holds mu exclusively.
//
// emcgm:hotpath
func (d *MemDisk) writeLocked(t int, src []Word) error {
	if d.closed {
		return ErrClosed
	}
	for t >= len(d.tracks) {
		d.tracks = append(d.tracks, nil)
	}
	if d.tracks[t] == nil {
		// emcgm:coldpath first write of a track slices it from the arena;
		// the refill is amortised over memDiskArenaTracks tracks
		if len(d.arena) < d.b {
			d.arena = AllocWords(memDiskArenaTracks * d.b)
			d.chunks = append(d.chunks, d.arena)
		}
		d.tracks[t] = d.arena[:d.b:d.b]
		d.arena = d.arena[d.b:]
	}
	copy(d.tracks[t], src)
	return nil
}

// ReadTrack copies track t into dst.
//
// emcgm:hotpath
func (d *MemDisk) ReadTrack(t int, dst []Word) error {
	if len(dst) != d.b {
		return ErrBadBlockSize
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.readLocked(t, dst)
}

// WriteTrack stores src as track t.
//
// emcgm:hotpath
func (d *MemDisk) WriteTrack(t int, src []Word) error {
	if len(src) != d.b {
		return ErrBadBlockSize
	}
	if t < 0 {
		return ErrTrackOutOfRange
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.writeLocked(t, src)
}

// ReadTracks implements BatchDisk: the whole batch copies under one lock
// acquisition instead of one per track.
//
// emcgm:hotpath
func (d *MemDisk) ReadTracks(tracks []int, bufs [][]Word) error {
	if err := validateBatch(d.b, tracks, bufs); err != nil {
		return err
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	for i, t := range tracks {
		if err := d.readLocked(t, bufs[i]); err != nil {
			return err
		}
	}
	return nil
}

// WriteTracks implements BatchDisk: the whole batch stores under one lock
// acquisition.
//
// emcgm:hotpath
func (d *MemDisk) WriteTracks(tracks []int, bufs [][]Word) error {
	if err := validateBatch(d.b, tracks, bufs); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for i, t := range tracks {
		if err := d.writeLocked(t, bufs[i]); err != nil {
			return err
		}
	}
	return nil
}

// Close marks the disk closed; subsequent I/O fails with ErrClosed. The
// arena chunks go back to the word free list: the lock orders Close after
// every transfer already inside the disk, and a closed disk touches no
// track again.
func (d *MemDisk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.closed = true
	for _, c := range d.chunks {
		FreeWords(c)
	}
	d.tracks = nil
	d.arena = nil
	d.chunks = nil
	return nil
}

var (
	_ Disk      = (*MemDisk)(nil)
	_ BatchDisk = (*MemDisk)(nil)
)
