// Command perfbench is the repository's benchmark. It generates the
// paper's DSx1 corpora from a seed, loads them through the public store
// API, runs one closed-loop client for a fixed time, checks every answer,
// and prints one JSON result line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Workloads:
//
//	paper-xorator  QS1–QS6 and QG1–QG6 under the XORator mapping
//	paper-hybrid   the same queries under the Hybrid mapping
//	churn-xorator  document replaces, transactional edits and QS2–QS5
//	               reads on a WAL-backed MVCC XORator store
//
// With -trace 0 it reports the end-to-end metrics; with -trace 1 it runs
// the same workload with each call into the program split by layer and
// reports the per-layer metrics and the tracing overhead. It is built
// and run by run.py in this directory:
//
//	python3 perfbench/run.py --workload paper-xorator --seed 42 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's final output line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// run carries one benchmark run's parameters and its tallies.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool

	attempted, failed int
	metrics           map[string]Metric
}

// check counts one operation and records a failure when err is non-nil.
// Failures are reported on standard error and never stop the loop.
func (r *run) check(op string, err error) bool {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", op, err)
		return false
	}
	return true
}

func (r *run) set(name, unit string, v float64) {
	r.metrics[name] = Metric{Value: v, Unit: unit}
}

// info prints a human-readable report line; only the final line of
// standard output is the machine-readable result.
func info(format string, args ...any) {
	fmt.Printf(format+"\n", args...)
}

func main() {
	workload := flag.String("workload", "", "paper-xorator, paper-hybrid or churn-xorator")
	seed := flag.Int64("seed", defaultSeed, "seed for the corpora and the churn operation stream")
	seconds := flag.Int("seconds", 20, "measured loop length in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced, per-layer variant")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	r := &run{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		metrics:  map[string]Metric{},
	}
	var err error
	switch *workload {
	case "paper-xorator", "paper-hybrid":
		err = runPaper(r)
	case "churn-xorator":
		err = runChurn(r)
	default:
		err = fmt.Errorf("unknown workload %q", *workload)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if r.attempted == 0 {
		fmt.Fprintln(os.Stderr, "perfbench: no operation attempted")
		os.Exit(1)
	}
	out, err := json.Marshal(Result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
