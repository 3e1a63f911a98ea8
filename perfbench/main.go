// Command perfbench is the repository's benchmark: it drives the DRAM
// simulator's layers with one of three workloads from a single
// process, as a closed loop with one client, and prints every metric
// by name with its unit. The last line of standard output is a JSON
// object with correct, attempted, failed and metrics; an untraced run
// (--trace 0) reports the end-to-end metrics, a traced run (--trace 1)
// the per-layer ones. It exits 1 when any simulated output differs
// from its pinned or first-pass value.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload hammer-campaign --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	name := flag.String("workload", "", "paper-hot, hammer-campaign or traffic-mixed")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 30, "measured time of the run")
	trace := flag.Int("trace", 0, "1 for the traced per-layer run")
	out := flag.String("out", filepath.Join(".bench_build", "trace"), "directory for a traced run's spans and CPU profile")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	res, err := run(config{
		workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1,
		outDir: *out, log: os.Stderr,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
