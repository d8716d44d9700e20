package main

import (
	"bytes"
	"fmt"
	"regexp"
	"runtime"
	"time"

	"rubik"
)

const (
	suiteName = "suite-quick"
	// suiteWorkers is the experiments' simulation fan-out, sized for a
	// 2-CPU host.
	suiteWorkers = 2
	// probeRequests sizes the single-core probe: eight masstree traces of
	// the paper's length.
	probeRequests = 8 * 9000
	// probeReps is how many probe runs follow each suite pass.
	probeReps = 5
)

// timingLine matches the "(<id> in Xs)" footer the CLI adds; the suite
// strips such lines before comparing passes.
var timingLine = regexp.MustCompile(`(?m)^\(\S+ in [0-9.]+s\)\n`)

// suiteSetup lists the registered experiments and builds the probe: one
// Rubik-controlled core on the facade's single-core path
// (rubik.Simulate), which gives the suite its simulated metrics.
type suiteSetup struct {
	ids   []string
	bound float64
	trace rubik.Trace
}

func newSuiteSetup(seed int64) (*suiteSetup, error) {
	ss := &suiteSetup{}
	for _, e := range rubik.Experiments() {
		ss.ids = append(ss.ids, e.ID)
	}
	app, err := rubik.AppByName("masstree")
	if err != nil {
		return nil, err
	}
	if ss.bound, err = rubik.TailBound(app, seed); err != nil {
		return nil, fmt.Errorf("tail bound: %w", err)
	}
	ss.trace = rubik.GenerateTrace(app, 0.5, probeRequests, seed)
	return ss, nil
}

// probeRun is one probe simulation and its report.
type probeRun struct {
	wallNs                int64
	served                int
	p95Ns, p99Ns, energyJ float64
}

func (ss *suiteSetup) probe() (probeRun, error) {
	ctl, err := rubik.NewController(ss.bound)
	if err != nil {
		return probeRun{}, err
	}
	runtime.GC()
	start := time.Now()
	res, err := rubik.Simulate(ss.trace, ctl)
	if err != nil {
		return probeRun{}, err
	}
	p := probeRun{
		served:  res.Served,
		p95Ns:   res.TailNs(0.95, 0.1),
		p99Ns:   res.TailNs(0.99, 0.1),
		energyJ: res.EnergyPerRequestJ(),
	}
	p.wallNs = int64(time.Since(start))
	if p.served != len(ss.trace.Requests) {
		return p, fmt.Errorf("probe served %d of %d requests", p.served, len(ss.trace.Requests))
	}
	return p, nil
}

// benchSuite runs every registered experiment at Quick fidelity, in
// registry order, pass after pass until the budget is spent (at least two
// passes, so the outputs can be compared). Each pass is followed by
// probeReps probe runs, timed apart from the pass.
func benchSuite(seed int64, budget time.Duration, traced bool) (*outcome, error) {
	ss, setupS, err := timeSetup(func() (*suiteSetup, error) { return newSuiteSetup(seed) })
	if err != nil {
		return nil, err
	}
	o := &outcome{}
	if traced {
		initLayerMetrics(o)
	}
	opts := rubik.ExperimentOptions{Quick: true, Seed: seed, Workers: suiteWorkers}
	var walls, allocs, rates []float64
	perID := map[string][]float64{}
	var first map[string]string
	var ref probeRun
	start := time.Now()
	var last time.Duration
	for pass := 0; keepGoing(start, budget, last, pass, 2); pass++ {
		iter := time.Now()
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		out := map[string]string{}
		passStart := time.Now()
		for _, id := range ss.ids {
			var buf bytes.Buffer
			t := time.Now()
			err := rubik.RunExperiment(id, opts, &buf)
			perID[id] = append(perID[id], time.Since(t).Seconds())
			o.attempted++
			if err != nil {
				o.failed++
				o.fail(fmt.Errorf("%s: %w", id, err))
			}
			out[id] = timingLine.ReplaceAllString(buf.String(), "")
		}
		walls = append(walls, time.Since(passStart).Seconds())
		runtime.ReadMemStats(&m1)
		allocs = append(allocs, float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
		if pass == 0 {
			first = out
		} else {
			for _, id := range ss.ids {
				if out[id] != first[id] {
					o.fail(fmt.Errorf("%s output differs between pass 0 and pass %d", id, pass))
				}
			}
		}

		for k := 0; k < probeReps; k++ {
			p, err := ss.probe()
			if err != nil {
				return nil, err
			}
			if pass == 0 && k == 0 {
				ref = p
			} else if p.p95Ns != ref.p95Ns || p.p99Ns != ref.p99Ns || p.energyJ != ref.energyJ {
				o.fail(fmt.Errorf("probe output differs between runs of the same seed"))
			}
			rates = append(rates, float64(p.served)/(float64(p.wallNs)/1e9))
		}
		last = time.Since(iter)
	}
	o.walls = walls
	if traced {
		for _, id := range ss.ids {
			o.set(experimentMetric(id), median(perID[id]), "s")
		}
		o.set("trace.wall_s", median(walls), "s")
		o.set("trace.untraced_wall_s", median(walls), "s")
		return o, nil
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	o.set("wall_s", median(walls), "s")
	o.set("sim_req_per_s", median(rates), "1/s")
	o.set("setup_s", setupS, "s")
	o.set("alloc_mb", median(allocs), "MB")
	o.set("peak_rss_mb", rss, "MB")
	o.set("sim_p95_ms", ref.p95Ns/1e6, "ms")
	o.set("sim_p99_ms", ref.p99Ns/1e6, "ms")
	o.set("sim_energy_mj_per_req", ref.energyJ*1e3, "mJ")
	o.set("served_frac", servedFrac(o), "frac")
	return o, nil
}
