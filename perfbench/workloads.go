package main

import (
	"fmt"
	"math/rand"
	"os"
	"slices"

	"repro/internal/cgm"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/pdm"
	"repro/internal/rec"
	"repro/internal/sortalg"
	"repro/internal/wordcodec"
	"repro/internal/workload"
)

// counts are the exact quantities one job reports. They are a function
// of the workload's geometry and the schedule-independent PDM accounting,
// so every job of a run, and every traced job, must report the same.
type counts struct {
	ParallelOps, CtxOps, MsgOps, Blocks, FullOps, CommItems int64
	Rounds, Supersteps                                      int
	// DiskBytes is the disk footprint MaxTracks·B·8·D·P of the largest
	// machine run; 0 where the entry point does not expose MaxTracks.
	DiskBytes int64
}

// jobOut is what one algorithm call reports besides its output.
type jobOut struct {
	c        counts
	syscalls int64 // not exact: short transfers retry
	depth    int   // final pipeline ring depth; 0 where not exposed
}

// geometry is a workload's machine shape, used to size the outside-in
// layer timings like the jobs' own hot paths.
type geometry struct {
	v, p, d, b int
	vpItems    int // items one virtual processor holds
	bpm        int // blocks per message slot
}

// instance is one set-up workload: generated inputs, their oracle
// answers and any scratch directory. call runs one algorithm job through
// the system's public entry point and keeps its output for check, which
// the runner calls outside the timed interval.
type instance interface {
	// call runs job number job. A non-nil recorder traces it, and a
	// positive depth pins core.Config.PipelineDepth where the entry point
	// exposes it.
	call(job int, r *obs.Recorder, depth int) (jobOut, error)
	// check compares the last call's output against the oracle.
	check() error
	// floor runs the same inputs through the in-memory CGM machine, the
	// compute floor of the simulation, and returns the check of its
	// output, which the caller runs outside the timed interval.
	floor() (check func() error, err error)
	// layers times the wordcodec, layout and pdm calls of the job's hot
	// path on the job's own codec, geometry and device.
	layers(tmp string) (layerTimes, error)
	inputBytes() int64
	procs() int
	close() error
}

// spec names a workload and sets it up from a seed. tmp is the directory
// scratch disk directories are created under.
type spec struct {
	name  string
	setup func(seed int64, tmp string) (instance, error)
}

// specs returns the benchmark's workloads at sort size sortN and tree
// size lcaN. The benchmark runs them at 1<<20 keys, the emcgm-sort
// default job, and 4096 nodes, the Figure 5 Group C row shape.
func specs(sortN, lcaN int) []spec {
	return []spec{
		sortSpec("sort-mem", sortN, false, nil),
		lcaSpec("lca-mem", lcaN),
		sortSpec("sort-file", sortN, true, nil),
	}
}

func findSpec(all []spec, name string) (spec, bool) {
	for _, s := range all {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// sortSpec is sortalg.EMSort of n workload.Int64s keys at the emcgm-sort
// defaults (v=16, p=4, D=2, B=512, pipelined, auto depth), on in-memory
// disks or, when file is set, on buffered pdm.FileDisks in a fresh
// directory. newDisk, when non-nil, may supply a disk constructor for a
// job (nil keeps the workload's device); the self-test injects faults
// through it.
func sortSpec(name string, n int, file bool, newDisk func(job int) func(proc, disk int) pdm.Disk) spec {
	return spec{name: name, setup: func(seed int64, tmp string) (instance, error) {
		s := &sortBench{
			keys:    workload.Int64s(seed, n),
			cfg:     core.Config{V: 16, P: 4, D: 2, B: 512},
			newDisk: newDisk,
		}
		if err := s.cfg.ValidateFor(n); err != nil {
			return nil, err
		}
		s.want = slices.Clone(s.keys)
		slices.Sort(s.want)
		if file {
			dir, err := os.MkdirTemp(tmp, name+"-")
			if err != nil {
				return nil, err
			}
			s.cfg.DiskDir = dir
		}
		return s, nil
	}}
}

type sortBench struct {
	keys, want, got []int64
	cfg             core.Config
	newDisk         func(job int) func(proc, disk int) pdm.Disk
}

func (s *sortBench) call(job int, r *obs.Recorder, depth int) (jobOut, error) {
	cfg := s.cfg
	cfg.Recorder = r
	cfg.PipelineDepth = depth
	if s.newDisk != nil {
		cfg.NewDisk = s.newDisk(job)
	}
	got, res, err := sortalg.EMSort(s.keys, wordcodec.I64{}, cfg)
	if err != nil {
		return jobOut{}, err
	}
	s.got = got
	c := counts{
		ParallelOps: res.IO.ParallelOps, CtxOps: res.CtxOps, MsgOps: res.MsgOps,
		Blocks: res.IO.BlocksMoved, FullOps: res.IO.FullOps, CommItems: res.CommItems,
		Rounds: res.Rounds, Supersteps: res.Supersteps,
		DiskBytes: int64(res.MaxTracks) * int64(cfg.B*8*cfg.D*cfg.P),
	}
	return jobOut{c: c, syscalls: res.Syscalls, depth: res.Depth}, nil
}

func (s *sortBench) check() error {
	defer func() { s.got = nil }()
	return sameAnswers("sorted keys", s.got, s.want)
}

func (s *sortBench) floor() (func() error, error) {
	res, err := cgm.Run[int64](sortalg.Sorter[int64]{}, s.cfg.V, cgm.Scatter(s.keys, s.cfg.V))
	if err != nil {
		return nil, err
	}
	return func() error { return sameAnswers("in-memory sorted keys", res.Output(), s.want) }, nil
}

func (s *sortBench) geometry() geometry {
	cfg := sortalg.EMSortConfig(s.cfg, len(s.keys))
	return geometry{
		v: cfg.V, p: cfg.P, d: cfg.D, b: cfg.B,
		vpItems: len(s.keys) / cfg.V,
		bpm:     pdm.BlocksFor(1+cfg.MaxMsgItems*wordcodec.I64{}.Words(), cfg.B),
	}
}

func (s *sortBench) layers(tmp string) (layerTimes, error) {
	g := s.geometry()
	return timeLayers(wordcodec.I64{}, s.keys[:g.vpItems], g, s.cfg.DiskDir != "", tmp)
}

func (s *sortBench) inputBytes() int64 { return 8 * int64(len(s.keys)) }
func (s *sortBench) procs() int        { return s.cfg.P }

func (s *sortBench) close() error {
	if s.cfg.DiskDir == "" {
		return nil
	}
	return os.RemoveAll(s.cfg.DiskDir)
}

// lcaSpec is graph.LCA on workload.Tree(seed, n) with n/2 uniform
// queries, through rec.NewEM(8, 4, 2, 512): the Figure 5 Group C row
// shape, many short machine runs over a tiny input.
func lcaSpec(name string, n int) spec {
	return spec{name: name, setup: func(seed int64, _ string) (instance, error) {
		l := &lcaBench{v: 8, p: 4, d: 2, b: 512}
		l.parent, l.root = workload.Tree(seed, n)
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		l.queries = make([][2]int64, n/2)
		for i := range l.queries {
			l.queries[i] = [2]int64{rng.Int63n(int64(n)), rng.Int63n(int64(n))}
		}
		l.want = graph.LCASeq(l.parent, l.root, l.queries)
		return l, nil
	}}
}

type lcaBench struct {
	parent     []int64
	root       int64
	queries    [][2]int64
	want, got  []int64
	v, p, d, b int
}

func (l *lcaBench) call(_ int, r *obs.Recorder, depth int) (jobOut, error) {
	e := rec.NewEM(l.v, l.p, l.d, l.b)
	e.Recorder = r
	e.Depth = depth
	got, err := graph.LCA(e, l.parent, l.root, l.queries)
	if err != nil {
		return jobOut{}, err
	}
	l.got = got
	c := counts{
		ParallelOps: e.IO.ParallelOps, CtxOps: e.CtxOps, MsgOps: e.MsgOps,
		Blocks: e.IO.BlocksMoved, FullOps: e.IO.FullOps, CommItems: e.CommItems,
		Rounds: e.Rounds, Supersteps: e.Supersteps,
	}
	return jobOut{c: c, syscalls: e.Syscalls}, nil
}

func (l *lcaBench) check() error {
	defer func() { l.got = nil }()
	return sameAnswers("LCA answers", l.got, l.want)
}

func (l *lcaBench) floor() (func() error, error) {
	got, err := graph.LCA(rec.NewMem(l.v), l.parent, l.root, l.queries)
	if err != nil {
		return nil, err
	}
	return func() error { return sameAnswers("in-memory LCA answers", got, l.want) }, nil
}

// geometry is the list-ranking phase's, the largest of the job: one
// record per Euler-tour arc, and message slots sized by rec.Exec's
// default bound of 6·⌈N/V⌉ + V + 16 items.
func (l *lcaBench) geometry() geometry {
	arcs := 2 * (len(l.parent) - 1)
	maxMsg := 6*((arcs+l.v-1)/l.v) + l.v + 16
	return geometry{
		v: l.v, p: l.p, d: l.d, b: l.b,
		vpItems: arcs / l.v,
		bpm:     pdm.BlocksFor(1+maxMsg*rec.Codec{}.Words(), l.b),
	}
}

func (l *lcaBench) layers(tmp string) (layerTimes, error) {
	g := l.geometry()
	items := make([]rec.R, g.vpItems)
	for i := range items {
		items[i] = rec.R{Tag: 1, A: int64(i), B: l.parent[i%len(l.parent)], C: int64(i)}
	}
	return timeLayers(rec.Codec{}, items, g, false, tmp)
}

func (l *lcaBench) inputBytes() int64 { return 8*int64(len(l.parent)) + 16*int64(len(l.queries)) }
func (l *lcaBench) procs() int        { return l.p }
func (l *lcaBench) close() error      { return nil }

// sameAnswers reports the first position where got differs from want.
func sameAnswers(what string, got, want []int64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d results, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("%s: result %d is %d, want %d", what, i, got[i], want[i])
		}
	}
	return nil
}
