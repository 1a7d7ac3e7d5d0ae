package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/layout"
	"repro/internal/pdm"
	"repro/internal/wordcodec"
)

// layerTimes are the outside-in timings of one workload's layers, each
// a median over repeated batches of calls into the layer's public
// functions, taken after the timed jobs so they never perturb them.
type layerTimes struct {
	encode, decode float64 // wordcodec ns per word
	reqs           float64 // layout ns per block request built
	write, read    float64 // pdm ns per block in a full D-block parallel I/O
}

// timeLayers times each layer on a workload's codec, one virtual
// processor's items, machine geometry and device.
func timeLayers[T any](c wordcodec.Codec[T], items []T, g geometry, file bool, tmp string) (layerTimes, error) {
	var lt layerTimes
	lt.encode, lt.decode = timeCodec(c, items)
	lt.reqs = timeReqs(g)
	var err error
	lt.write, lt.read, err = timeDisk(g, file, tmp)
	return lt, err
}

// nsPer returns the median time per unit of work of f, which does units
// units per call, over seven batches of at least 5 ms each.
func nsPer(units int, f func()) float64 {
	iters := 1
	for {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			f()
		}
		if time.Since(t0) >= 5*time.Millisecond {
			break
		}
		iters *= 2
	}
	samples := make([]float64, 7)
	for r := range samples {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			f()
		}
		samples[r] = float64(time.Since(t0).Nanoseconds()) / float64(iters*units)
	}
	return quantile(samples, 0.5)
}

// timeCodec times EncodeSlice and DecodeSlice of items, one virtual
// processor's worth, through codec c.
func timeCodec[T any](c wordcodec.Codec[T], items []T) (encode, decode float64) {
	words := len(items) * c.Words()
	buf := make([]pdm.Word, 0, words)
	encode = nsPer(words, func() { buf = wordcodec.EncodeSlice(c, buf[:0], items) })
	out := make([]T, 0, len(items))
	decode = nsPer(words, func() { out = wordcodec.DecodeSlice(c, out[:0], buf, len(items)) })
	return encode, decode
}

// timeReqs times the request lists one real processor builds in one
// round of the parallel machine: every local virtual processor's inbox
// region, and every source's batch of slots.
func timeReqs(g geometry) float64 {
	localV := g.v / g.p
	m, err := layout.NewRect(g.v, localV, g.bpm, g.d, 0)
	if err != nil {
		panic(err) // the geometry is one the workload's own run accepted
	}
	reqs := make([]pdm.BlockReq, 0, g.v*g.bpm)
	return nsPer(2*localV*g.v*g.bpm, func() {
		for l := 0; l < localV; l++ {
			reqs = m.AppendRegionReqs(reqs[:0], l)
		}
		for src := 0; src < g.v; src++ {
			reqs = reqs[:0]
			for dl := 0; dl < localV; dl++ {
				reqs = m.AppendSlotReqs(reqs, dl, src)
			}
		}
	})
}

// timeDisk times DiskArray.WriteBlocks and ReadBlocks of D full blocks
// on the workload's device: in-memory disks, or buffered FileDisks in a
// directory under tmp that is removed before returning.
func timeDisk(g geometry, file bool, tmp string) (write, read float64, err error) {
	var arr *pdm.DiskArray
	if file {
		dir, err := os.MkdirTemp(tmp, "pdm-")
		if err != nil {
			return 0, 0, err
		}
		defer os.RemoveAll(dir)
		if arr, err = fileArray(dir, g.d, g.b); err != nil {
			return 0, 0, err
		}
	} else {
		arr = pdm.NewMemArray(g.d, g.b)
	}
	defer func() { err = errors.Join(err, arr.Close()) }()

	const tracks = 256
	reqs := make([]pdm.BlockReq, g.d)
	bufs := make([][]pdm.Word, g.d)
	for i := range bufs {
		bufs[i] = make([]pdm.Word, g.b)
		for j := range bufs[i] {
			bufs[i][j] = pdm.Word(i*g.b + j)
		}
	}
	track := 0
	op := func(readOp bool) {
		for i := range reqs {
			reqs[i] = pdm.BlockReq{Disk: i, Track: track}
		}
		track = (track + 1) % tracks
		var e error
		if readOp {
			e = arr.ReadBlocks(reqs, bufs)
		} else {
			e = arr.WriteBlocks(reqs, bufs)
		}
		if e != nil && err == nil {
			err = e
		}
	}
	for t := 0; t < tracks; t++ {
		op(false)
	}
	write = nsPer(g.d, func() { op(false) })
	read = nsPer(g.d, func() { op(true) })
	return write, read, err
}

// fileArray builds an array of d buffered FileDisks of b words in dir.
func fileArray(dir string, d, b int) (*pdm.DiskArray, error) {
	disks := make([]pdm.Disk, 0, d)
	for i := 0; i < d; i++ {
		fd, err := pdm.NewFileDisk(filepath.Join(dir, fmt.Sprintf("d%d.disk", i)), b)
		if err != nil {
			for _, d := range disks {
				_ = d.Close() // the creation error is the one reported
			}
			return nil, err
		}
		disks = append(disks, fd)
	}
	return pdm.NewDiskArray(disks)
}

// timeFloor returns the median wall time of reps in-memory CGM runs of
// the workload's inputs, each checked against the oracle untimed.
func timeFloor(in instance, reps int) (time.Duration, error) {
	walls := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		check, err := in.floor()
		walls = append(walls, time.Since(t0).Seconds())
		if err == nil {
			err = check()
		}
		if err != nil {
			return 0, err
		}
	}
	return time.Duration(quantile(walls, 0.5) * 1e9), nil
}
