// Command perfbench is the repository's benchmark. It runs one workload
// for a fixed host-time budget, checks the program's outputs, and prints
// the workload's metrics as the last line of standard output:
//
//	perfbench --workload fleet-paper --seed 1 --seconds 25 --trace 0
//
// --trace 0 prints the end-to-end metrics of untraced runs; --trace 1
// prints the per-layer ledger of traced runs and writes their spans under
// --spans. The process exits nonzero when the correctness gate fails.
// README.md describes the workloads and metrics; run.sh builds and runs
// it from the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"syscall"
	"time"
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 11

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload driver hands back: metrics in print order,
// the attempted/failed counts, and the first correctness failure.
type outcome struct {
	names     []string
	metrics   map[string]metric
	attempted int
	failed    int
	walls     []float64 // host seconds of each timed run or pass
	gateErr   error
}

func (o *outcome) set(name string, v float64, unit string) {
	if o.metrics == nil {
		o.metrics = map[string]metric{}
	}
	if _, dup := o.metrics[name]; !dup {
		o.names = append(o.names, name)
	}
	o.metrics[name] = metric{v, unit}
}

// fail records the first correctness failure.
func (o *outcome) fail(err error) {
	if err != nil && o.gateErr == nil {
		o.gateErr = err
	}
}

func main() {
	workload := flag.String("workload", "", "workload name: fleet-paper, fleet-trough, fleet-capped or suite-quick")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 20, "host seconds to measure for")
	trace := flag.Int("trace", 0, "0: end-to-end metrics of untraced runs; 1: per-layer ledger of traced runs")
	spans := flag.String("spans", ".bench_build/spans", "directory for the traced runs' span files")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	budget := time.Duration(*seconds * float64(time.Second))

	var o *outcome
	var err error
	if spec, ok := fleetSpecByName(*workload); ok {
		o, err = benchFleet(spec, *seed, budget, *trace == 1, *spans)
	} else if *workload == suiteName {
		o, err = benchSuite(*seed, budget, *trace == 1)
	} else {
		err = fmt.Errorf("unknown workload %q", *workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}

	for _, n := range o.names {
		m := o.metrics[n]
		fmt.Printf("%-28s %16.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Printf("# %s seed %d: %d timed runs (wall s: %.4g); %d attempted, %d failed\n",
		*workload, *seed, len(o.walls), o.walls, o.attempted, o.failed)
	if o.gateErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: correctness gate failed:", o.gateErr)
	}
	line, err := json.Marshal(result{
		Correct:   o.gateErr == nil,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   o.metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if o.gateErr != nil {
		os.Exit(1)
	}
}

// timeSetup runs build setupReps times and returns the last value and
// the median duration in seconds.
func timeSetup[T any](build func() (T, error)) (T, float64, error) {
	var v T
	var d []float64
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		var err error
		v, err = build()
		if err != nil {
			return v, 0, err
		}
		d = append(d, time.Since(start).Seconds())
	}
	return v, median(d), nil
}

// keepGoing reports whether another run fits: at least minRuns, then
// while one more run as long as the last one ends within the budget.
func keepGoing(start time.Time, budget, last time.Duration, runs, minRuns int) bool {
	return runs < minRuns || time.Since(start)+last <= budget
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianIndex returns the index of the median element (the lower one
// for an even count).
func medianIndex(v []float64) int {
	idx := make([]int, len(v))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return v[idx[a]] < v[idx[b]] })
	return idx[(len(v)-1)/2]
}

// peakRSSMB returns the process's peak resident set size.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}
