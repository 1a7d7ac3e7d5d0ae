package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// attribution splits one traced job's processor time between the core
// layer's phases, from the spans obs.Recorder already emits. Every field
// except the disk and count fields is in processor-seconds summed over
// real processors, so together with the unattributed remainder they add
// up to P × job wall.
type attribution struct {
	compute float64 // "compute" phase spans: the CGM program itself
	issue   float64 // prefetch, writeback, send and synchronous read/write phases
	decode  float64 // superstep self time: context and inbox decoding, window bookkeeping
	stall   float64 // "stall k=*" waits on in-flight I/O
	route   float64 // "route batches" self time: message encoding and slot writes
	barrier float64 // "barrier wait" after a processor's round work
	init    float64 // input distribution, which every processor waits out

	busy        float64 // disk-category span time summed over disks, seconds
	busyMax     float64 // the busiest disk position's span time, seconds
	machineRuns int     // "init" spans: one per machine built
	adapt       int     // pipeline depth adaptation events
	depth       int     // largest pipeline depth gauge
}

func (a attribution) attributed() float64 {
	return a.compute + a.issue + a.decode + a.stall + a.route + a.barrier + a.init
}

type chromeEvent struct {
	Name string          `json:"name"`
	Cat  string          `json:"cat"`
	Ph   string          `json:"ph"`
	Ts   float64         `json:"ts"`  // µs
	Dur  float64         `json:"dur"` // µs
	Tid  int             `json:"tid"`
	Args json.RawMessage `json:"args"`
}

// attribute reads a Chrome trace written by obs.Recorder.WriteChromeTrace
// for a machine of procs real processors. Tracks named "proc i" hold each
// real processor's spans, properly nested because one goroutine emits
// them; a span's self time is its duration minus its direct children's.
// Tracks are grouped by name, so the several machines one job builds
// fold onto the same processor and disk positions.
func attribute(trace []byte, procs int) (attribution, error) {
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace, &doc); err != nil {
		return attribution{}, fmt.Errorf("parse trace: %w", err)
	}
	var a attribution
	names := map[int]string{}
	spans := map[int][]chromeEvent{}
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "M":
			if e.Name == "thread_name" {
				var arg struct{ Name string }
				if err := json.Unmarshal(e.Args, &arg); err != nil {
					return attribution{}, fmt.Errorf("parse track name: %w", err)
				}
				names[e.Tid] = arg.Name
			}
		case "i":
			if e.Cat == "adapt" {
				a.adapt++
			}
		case "C":
			if strings.HasSuffix(e.Name, "pipeline_depth") {
				var arg struct{ Value int }
				if err := json.Unmarshal(e.Args, &arg); err != nil {
					return attribution{}, fmt.Errorf("parse depth gauge: %w", err)
				}
				a.depth = max(a.depth, arg.Value)
			}
		case "X":
			if e.Cat == "init" {
				a.machineRuns++
				a.init += float64(procs) * e.Dur / 1e6
				continue
			}
			spans[e.Tid] = append(spans[e.Tid], e)
		}
	}
	busy := map[string]float64{}
	for tid, ss := range spans {
		name := names[tid]
		switch {
		case strings.HasPrefix(name, "proc "):
			selfTimes(ss, a.add)
		case strings.Contains(name, " disk "):
			for _, e := range ss {
				if e.Cat == "disk" {
					busy[name] += e.Dur / 1e6
				}
			}
		}
	}
	for _, b := range busy {
		a.busy += b
		a.busyMax = max(a.busyMax, b)
	}
	return a, nil
}

// add books self seconds of one processor-track span to its phase.
// Spans of a category this benchmark does not know stay unattributed.
func (a *attribution) add(e chromeEvent, self float64) {
	switch {
	case e.Cat == "phase" && e.Name == "compute":
		a.compute += self
	case e.Cat == "phase" || e.Cat == "prefetch" || e.Cat == "writeback":
		a.issue += self
	case e.Cat == "superstep":
		a.decode += self
	case e.Cat == "route":
		a.route += self
	case e.Cat == "wait" && strings.HasPrefix(e.Name, "stall"):
		a.stall += self
	case e.Cat == "wait" && e.Name == "barrier wait":
		a.barrier += self
	}
}

// selfTimes calls book with every span of one track and its self time in
// seconds: its duration minus the durations of the spans directly inside
// it.
func selfTimes(ss []chromeEvent, book func(chromeEvent, float64)) {
	sort.Slice(ss, func(i, j int) bool {
		if ss[i].Ts != ss[j].Ts {
			return ss[i].Ts < ss[j].Ts
		}
		return ss[i].Dur > ss[j].Dur
	})
	// Timestamps are ns/1e3 in float64; a tolerance far below one
	// nanosecond keeps rounding from splitting a parent from its child.
	const eps = 1e-4
	type open struct {
		e        chromeEvent
		children float64
	}
	var stack []open
	pop := func() {
		top := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		book(top.e, (top.e.Dur-top.children)/1e6)
	}
	for _, e := range ss {
		for len(stack) > 0 && e.Ts+e.Dur > stack[len(stack)-1].e.Ts+stack[len(stack)-1].e.Dur+eps {
			pop()
		}
		if len(stack) > 0 {
			stack[len(stack)-1].children += e.Dur
		}
		stack = append(stack, open{e: e})
	}
	for len(stack) > 0 {
		pop()
	}
}
