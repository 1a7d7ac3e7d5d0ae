package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
	"time"

	"repro/internal/pdm"
)

// The self-test runs every workload at toy size, so it checks the
// benchmark's plumbing, not its figures:
//
//	cd perfbench && go test .

const (
	toySort = 1 << 14
	toyLCA  = 256
)

func toyOptions(t *testing.T, trace bool) options {
	return options{
		seconds: 300 * time.Millisecond,
		trace:   trace,
		setups:  2,
		traced:  2,
		tmp:     t.TempDir(),
		log:     io.Discard,
	}
}

type benchFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchFile(t *testing.T) benchFile {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestEveryMetricEmitted runs each workload of BENCHMARK.json in both
// modes and checks that exactly its declared metrics come out, each with
// the declared unit, with no job failed.
func TestEveryMetricEmitted(t *testing.T) {
	bf := readBenchFile(t)
	all := specs(toySort, toyLCA)
	if len(bf.Workloads) != len(all) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark has %d", len(bf.Workloads), len(all))
	}
	for _, w := range bf.Workloads {
		sp, ok := findSpec(all, w.Name)
		if !ok {
			t.Errorf("workload %q of BENCHMARK.json is unknown", w.Name)
			continue
		}
		for _, mode := range []struct {
			trace   bool
			metrics []struct{ Name, Unit string }
		}{{false, bf.EndToEnd}, {true, bf.PerLayer}} {
			rep, err := run(sp, 7, toyOptions(t, mode.trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, mode.trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, mode.trace, rep.Correct, rep.Attempted, rep.Failed)
			}
			if len(rep.Metrics) != len(mode.metrics) {
				t.Errorf("%s trace=%v: %d metrics emitted, %d declared", w.Name, mode.trace, len(rep.Metrics), len(mode.metrics))
			}
			for _, m := range mode.metrics {
				got, ok := rep.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v), want unit %q", w.Name, mode.trace, m.Name, got, ok, m.Unit)
				}
			}
		}
	}
}

// TestFailedJobCounted makes one timed job's disks fail and checks that
// the run completes with that job, and only it, counted as failed.
func TestFailedJobCounted(t *testing.T) {
	const badJob = 2
	sp := sortSpec("sort-mem", toySort, false, func(job int) func(proc, disk int) pdm.Disk {
		if job != badJob {
			return nil
		}
		return func(int, int) pdm.Disk { return pdm.NewFaultyDisk(pdm.NewMemDisk(512), 3) }
	})
	rep, err := run(sp, 7, toyOptions(t, false))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 1 || rep.Correct || rep.Attempted <= badJob {
		t.Fatalf("correct=%v attempted=%d failed=%d, want one failed job of more than %d", rep.Correct, rep.Attempted, rep.Failed, badJob)
	}
	want := float64(rep.Attempted-1) / float64(rep.Attempted)
	if got := rep.Metrics["ok_frac"].Value; got != want {
		t.Errorf("ok_frac = %v, want %v", got, want)
	}
}

// TestSortFileLeavesNoDisks checks that sort-file's disk directory, and
// the layer timing's, are gone when the run returns.
func TestSortFileLeavesNoDisks(t *testing.T) {
	sp, _ := findSpec(specs(toySort, toyLCA), "sort-file")
	o := toyOptions(t, true)
	if _, err := run(sp, 7, o); err != nil {
		t.Fatal(err)
	}
	left, err := os.ReadDir(o.tmp)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range left {
		t.Errorf("left behind: %s", e.Name())
	}
}

// TestSelfTimes checks self time on a hand-built track: a parent with
// two children, one of which has a child of its own, then a sibling.
func TestSelfTimes(t *testing.T) {
	ss := []chromeEvent{
		{Name: "b", Ts: 10, Dur: 20},
		{Name: "a", Ts: 0, Dur: 100},
		{Name: "c", Ts: 12, Dur: 5},
		{Name: "d", Ts: 50, Dur: 30},
		{Name: "e", Ts: 100, Dur: 7},
	}
	want := map[string]float64{"a": 50, "b": 15, "c": 5, "d": 30, "e": 7}
	selfTimes(ss, func(e chromeEvent, self float64) {
		if w := want[e.Name] / 1e6; self != w {
			t.Errorf("self(%s) = %v, want %v", e.Name, self, w)
		}
		delete(want, e.Name)
	})
	if len(want) != 0 {
		t.Errorf("spans never booked: %v", want)
	}
}
