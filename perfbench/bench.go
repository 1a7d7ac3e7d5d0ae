package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"syscall"
	"time"

	"repro/internal/obs"
)

// options fix how one run measures.
type options struct {
	seconds time.Duration // length of the timed closed loop
	trace   bool          // report per-layer metrics instead of end-to-end ones
	setups  int           // set-ups timed; setup_s is their median
	traced  int           // traced jobs after the timed loop
	tmp     string        // parent of scratch disk directories
	log     io.Writer     // progress and failure notes
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *report) set(name, unit string, v float64) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// fail counts one failed job and notes why.
func (r *report) fail(log io.Writer, what string, err error) {
	r.Failed++
	r.Correct = false
	fmt.Fprintf(log, "perfbench: %s: %v\n", what, err)
}

// run measures one workload: o.setups timed set-ups, then a closed loop
// of one job at a time for o.seconds, then, with o.trace, the traced
// jobs and the outside-in layer timings. A job that errors, fails its
// oracle or reports counts unlike the warm-up's is counted as failed and
// the run goes on; only a failed set-up aborts it.
func run(sp spec, seed int64, o options) (rep report, err error) {
	rep = report{Correct: true, Metrics: map[string]metric{}}

	var in instance
	var ref jobOut
	setupTimes := make([]float64, 0, o.setups)
	for i := 0; i < o.setups; i++ {
		if in != nil {
			if err := in.close(); err != nil {
				return rep, err
			}
		}
		t0 := time.Now()
		in, err = sp.setup(seed, o.tmp)
		if err != nil {
			return rep, fmt.Errorf("set up %s: %w", sp.name, err)
		}
		out, err := in.call(0, nil, 0)
		if err == nil {
			err = in.check()
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		if err == nil && i > 0 && out.c != ref.c {
			err = fmt.Errorf("counts %+v differ from the first set-up's %+v", out.c, ref.c)
		}
		if err != nil {
			_ = in.close() // the warm-up error is the one reported
			return rep, fmt.Errorf("%s warm-up job: %w", sp.name, err)
		}
		ref = out
	}
	defer func() {
		if cerr := in.close(); cerr != nil && err == nil {
			err = cerr
		}
	}()

	// The timed closed loop. Memory and CPU are read around the call
	// only; the oracle check runs outside every measured interval.
	var walls []float64
	var cpu, alloc float64
	var syscalls, ops int64
	deadline := time.Now().Add(o.seconds)
	for job := 1; time.Now().Before(deadline); job++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		c0 := cpuSeconds()
		t0 := time.Now()
		out, err := in.call(job, nil, 0)
		wall := time.Since(t0).Seconds()
		c1 := cpuSeconds()
		runtime.ReadMemStats(&m1)
		rep.Attempted++
		if err == nil {
			err = in.check()
		}
		if err == nil && out.c != ref.c {
			err = fmt.Errorf("counts %+v differ from the warm-up's %+v", out.c, ref.c)
		}
		if err != nil {
			rep.fail(o.log, fmt.Sprintf("%s job %d", sp.name, job), err)
			continue
		}
		walls = append(walls, wall)
		cpu += c1 - c0
		alloc += float64(m1.TotalAlloc - m0.TotalAlloc)
		syscalls += out.syscalls
		ops += out.c.ParallelOps
	}
	if len(walls) == 0 {
		return rep, fmt.Errorf("%s: no job succeeded in %v", sp.name, o.seconds)
	}
	jobs := float64(len(walls))
	p50 := quantile(walls, 0.5)
	fmt.Fprintf(o.log, "perfbench: %s: %d jobs, p50 %.4f s\n", sp.name, len(walls), p50)

	if !o.trace {
		rep.set("setup_s", "s", quantile(setupTimes, 0.5))
		rep.set("job_s_p50", "s", p50)
		rep.set("job_s_p90", "s", quantile(walls, 0.9))
		rep.set("cpu_s_per_job", "s", cpu/jobs)
		rep.set("parallel_ios", "count", float64(ref.c.ParallelOps))
		rep.set("alloc_bytes_per_input_byte", "B/B", alloc/(jobs*float64(in.inputBytes())))
		rep.set("ok_frac", "ratio", float64(rep.Attempted-rep.Failed)/float64(rep.Attempted))
		return rep, nil
	}

	tr, err := tracedJobs(sp.name, in, ref, o, &rep)
	if err != nil {
		return rep, err
	}
	lt, err := in.layers(o.tmp)
	if err != nil {
		return rep, fmt.Errorf("%s layer timings: %w", sp.name, err)
	}
	floor, err := timeFloor(in, 9)
	if err != nil {
		return rep, fmt.Errorf("%s in-memory floor: %w", sp.name, err)
	}

	c := ref.c
	depth := ref.depth
	if depth == 0 {
		depth = tr.depth
	}
	rep.set("core.unattributed_s", "s", tr.unattributed)
	rep.set("core.compute_s", "s", tr.a.compute)
	rep.set("core.issue_s", "s", tr.a.issue)
	rep.set("core.decode_s", "s", tr.a.decode)
	rep.set("core.init_s", "s", tr.a.init)
	rep.set("core.stall_s", "s", tr.a.stall)
	rep.set("core.stall_frac", "ratio", tr.stallFrac)
	rep.set("core.route_s", "s", tr.a.route)
	rep.set("core.barrier_s", "s", tr.a.barrier)
	rep.set("core.depth", "count", float64(depth))
	rep.set("core.comm_items", "count", float64(c.CommItems))
	rep.set("core.rounds", "count", float64(c.Rounds))
	rep.set("core.supersteps", "count", float64(c.Supersteps))
	rep.set("core.adapt_events", "count", float64(tr.adapt))
	rep.set("pdm.ctx_ops", "count", float64(c.CtxOps))
	rep.set("pdm.msg_ops", "count", float64(c.MsgOps))
	rep.set("pdm.blocks_moved", "count", float64(c.Blocks))
	rep.set("pdm.full_op_frac", "ratio", float64(c.FullOps)/float64(c.ParallelOps))
	rep.set("pdm.disk_bytes", "B", float64(c.DiskBytes))
	rep.set("pdm.busy_s", "s", tr.a.busy)
	rep.set("pdm.busy_frac_max", "ratio", tr.busyFracMax)
	rep.set("pdm.syscalls_per_op", "ratio", float64(syscalls)/float64(ops))
	rep.set("pdm.write_ns_per_block", "ns", lt.write)
	rep.set("pdm.read_ns_per_block", "ns", lt.read)
	rep.set("wordcodec.encode_ns_per_word", "ns", lt.encode)
	rep.set("wordcodec.decode_ns_per_word", "ns", lt.decode)
	rep.set("layout.reqs_ns_per_block", "ns", lt.reqs)
	rep.set("cgm.floor_s", "s", floor.Seconds())
	rep.set("cgm.floor_ratio", "ratio", p50/floor.Seconds())
	rep.set("rec.machine_runs", "count", float64(tr.a.machineRuns))
	rep.set("obs.trace_overhead_frac", "ratio", tr.p50/p50-1)
	rep.set("obs.dropped_events", "count", float64(tr.dropped))
	return rep, nil
}

// traced is the summary of the traced jobs: each quantity is the median
// over the jobs, except the event counts, which are totals.
type traced struct {
	a            attribution
	unattributed float64 // P × wall − attributed, processor-seconds
	stallFrac    float64 // stall ÷ (P × wall)
	busyFracMax  float64 // busiest disk's span time ÷ wall
	p50          float64 // traced job wall, seconds
	adapt        int
	dropped      int64
	depth        int
}

// reconcileTol is how far attributed time may exceed P × wall before a
// traced job is invalid: span clocks and the job clock are read at
// slightly different instants, never 2% apart.
const reconcileTol = 0.02

// tracedJobs runs o.traced jobs with an obs.Recorder attached. Attaching
// a recorder enables the grow-only depth adaptation, so where the entry
// point exposes it the schedule is pinned to the timed jobs' final depth.
// A traced job is failed when its output or counts differ from the timed
// jobs', when the recorder dropped events, when it built a different
// number of machines than the first, when adaptation fired on a pinned
// schedule, or when its attribution exceeds P × wall.
func tracedJobs(name string, in instance, ref jobOut, o options, rep *report) (traced, error) {
	var tr traced
	var as []attribution
	var walls, unattr, stall, busy []float64
	p := float64(in.procs())
	for job := 1; job <= o.traced; job++ {
		r := obs.NewRecorder()
		t0 := time.Now()
		out, err := in.call(-job, r, ref.depth)
		wall := time.Since(t0).Seconds()
		rep.Attempted++
		what := fmt.Sprintf("%s traced job %d", name, job)
		if err == nil {
			err = in.check()
		}
		if err == nil && out.c != ref.c {
			err = fmt.Errorf("counts %+v differ from the timed jobs' %+v", out.c, ref.c)
		}
		if err != nil {
			rep.fail(o.log, what, err)
			continue
		}
		var buf bytes.Buffer
		if err := r.WriteChromeTrace(&buf); err != nil {
			return tr, fmt.Errorf("%s: render trace: %w", what, err)
		}
		a, err := attribute(buf.Bytes(), in.procs())
		if err != nil {
			return tr, fmt.Errorf("%s: %w", what, err)
		}
		dropped := r.DroppedEvents()
		tr.adapt += a.adapt
		tr.dropped += dropped
		tr.depth = max(tr.depth, a.depth)
		switch {
		case dropped > 0:
			err = fmt.Errorf("recorder dropped %d events", dropped)
		case len(as) > 0 && a.machineRuns != as[0].machineRuns:
			err = fmt.Errorf("%d machine runs, the first traced job made %d", a.machineRuns, as[0].machineRuns)
		case ref.depth > 0 && a.adapt > 0:
			err = fmt.Errorf("depth adaptation fired %d times on a schedule pinned to depth %d", a.adapt, ref.depth)
		case a.attributed() > (1+reconcileTol)*p*wall:
			err = fmt.Errorf("attributed %.4f processor-s exceeds P × wall = %.4f by more than %.0f%%",
				a.attributed(), p*wall, 100*reconcileTol)
		}
		if err != nil {
			rep.fail(o.log, what, err)
			continue
		}
		as = append(as, a)
		walls = append(walls, wall)
		unattr = append(unattr, p*wall-a.attributed())
		stall = append(stall, a.stall/(p*wall))
		busy = append(busy, a.busyMax/wall)
	}
	if len(as) == 0 {
		return tr, fmt.Errorf("%s: no traced job succeeded", name)
	}
	pick := func(f func(attribution) float64) float64 {
		vs := make([]float64, len(as))
		for i, a := range as {
			vs[i] = f(a)
		}
		return quantile(vs, 0.5)
	}
	tr.a = attribution{
		compute:     pick(func(a attribution) float64 { return a.compute }),
		issue:       pick(func(a attribution) float64 { return a.issue }),
		decode:      pick(func(a attribution) float64 { return a.decode }),
		stall:       pick(func(a attribution) float64 { return a.stall }),
		route:       pick(func(a attribution) float64 { return a.route }),
		barrier:     pick(func(a attribution) float64 { return a.barrier }),
		init:        pick(func(a attribution) float64 { return a.init }),
		busy:        pick(func(a attribution) float64 { return a.busy }),
		machineRuns: as[0].machineRuns,
	}
	tr.unattributed = quantile(unattr, 0.5)
	tr.stallFrac = quantile(stall, 0.5)
	tr.busyFracMax = quantile(busy, 0.5)
	tr.p50 = quantile(walls, 0.5)
	fmt.Fprintf(o.log, "perfbench: %s: attribution per job (processor-s): compute %.4f issue %.4f decode %.4f stall %.4f route %.4f barrier %.4f init %.4f unattributed %.4f of P×wall %.4f\n",
		name, tr.a.compute, tr.a.issue, tr.a.decode, tr.a.stall, tr.a.route, tr.a.barrier, tr.a.init, tr.unattributed, p*tr.p50)
	return tr, nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics.
func quantile(xs []float64, q float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}
