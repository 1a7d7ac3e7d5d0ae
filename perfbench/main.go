// Command perfbench is the repository's benchmark. It runs one named
// workload of the EM-CGM simulator as a closed loop (one client, one job
// at a time) through the system's public entry points, checks every
// output against an oracle, and prints one JSON result line:
//
//	perfbench --workload sort-mem --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics of the timed
// jobs; with --trace 1 it holds the per-layer metrics from a separate
// traced run and from outside-in timings of each layer. README.md in
// this directory explains the workloads and metrics; run.sh builds and
// runs it from the root of a checkout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload to run: sort-mem, lca-mem or sort-file")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 30, "length of the timed closed loop in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	tmp := flag.String("tmp", filepath.Join(".bench_build", "tmp"), "directory scratch disk directories are created under")
	flag.Parse()

	sp, ok := findSpec(specs(1<<20, 4096), *name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		os.Exit(2)
	}
	if err := os.MkdirAll(*tmp, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	rep, err := run(sp, *seed, options{
		seconds: time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
		setups:  3,
		traced:  9,
		tmp:     *tmp,
		log:     os.Stderr,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
