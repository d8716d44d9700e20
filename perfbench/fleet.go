package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"reflect"
	"runtime"
	"time"

	"rubik"
)

// fleetRun is one simulation plus its report calls.
type fleetRun struct {
	res        rubik.FleetResult
	err        error
	wallNs     int64
	allocBytes uint64
	// The report: pooled tails after a 10% warm-up, energy, served.
	p95Ns, p99Ns, energyJ float64
	served                int
}

// runFleet simulates the fleet once at the given shard count, untraced
// when l is nil. Wall time covers the simulation and the report calls.
func runFleet(fs *fleetSetup, shards int, l *ledger) fleetRun {
	cfg := fs.config(shards, l)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)

	var r fleetRun
	start := time.Now()
	if l != nil {
		l.wallStart = l.now()
	}
	r.res, r.err = rubik.SimulateFleet(cfg)
	if r.err == nil {
		l.timed("report.tail", func() {
			r.p95Ns = r.res.TailNs(0.95, 0.1)
			r.p99Ns = r.res.TailNs(0.99, 0.1)
		})
		l.timed("report.energy", func() {
			r.energyJ = r.res.EnergyPerRequestJ()
			r.served = r.res.Served()
		})
	}
	r.wallNs = int64(time.Since(start))
	if l != nil {
		l.wallEnd = l.now()
		r.wallNs = l.wallEnd - l.wallStart
	}
	runtime.ReadMemStats(&m1)
	r.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	return r
}

// checkServed is the gate every fleet run must pass: no error, and every
// offered request served.
func (r fleetRun) checkServed(fs *fleetSetup) error {
	if r.err != nil {
		return r.err
	}
	if r.served != fs.offered {
		return fmt.Errorf("served %d of %d offered requests", r.served, fs.offered)
	}
	return nil
}

// fingerprint hashes the run's simulated output: every completion of
// every core in socket order, the routing, end times, capping and
// budget-tree accounting, and the pooled report. Two runs of the same
// seed must agree on it bit for bit.
func (r fleetRun) fingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	putF := func(f float64) { put(math.Float64bits(f)) }
	for _, s := range r.res.Sockets {
		put(uint64(s.EndTime))
		for _, n := range s.Routed {
			put(uint64(n))
		}
		for _, c := range s.PerCore {
			for _, cp := range c.Completions {
				put(uint64(cp.ID))
				put(uint64(cp.Arrival))
				put(uint64(cp.Start))
				put(uint64(cp.Done))
				putF(cp.ComputeCycles)
				put(uint64(cp.MemTime))
				put(uint64(cp.QueueLenAtArrival))
			}
			putF(c.ActiveEnergyJ)
			putF(c.IdleEnergyJ)
		}
		for _, d := range s.Capping {
			put(uint64(d.Rounds))
			put(uint64(d.ThrottleEvents))
			put(uint64(d.CapExceededNs))
			putF(d.PeakPowerW)
			putF(d.AvgPowerW)
			putF(d.CapW)
		}
	}
	if hs := r.res.Hierarchy; hs != nil {
		put(uint64(hs.Reallocations))
		put(uint64(hs.LeafCapChanges))
	}
	putF(r.p95Ns)
	putF(r.p99Ns)
	putF(r.energyJ)
	put(uint64(r.served))
	return h.Sum64()
}

// sameOutput reports whether two runs produced bit-identical simulated
// output, per socket and pooled. The shard count and the rebuild-cache
// counters are host-side facts and may differ.
func sameOutput(a, b fleetRun) error {
	if len(a.res.Sockets) != len(b.res.Sockets) {
		return fmt.Errorf("socket counts differ: %d vs %d", len(a.res.Sockets), len(b.res.Sockets))
	}
	for s := range a.res.Sockets {
		if !reflect.DeepEqual(a.res.Sockets[s], b.res.Sockets[s]) {
			return fmt.Errorf("socket %d output differs", s)
		}
	}
	if !reflect.DeepEqual(a.res.Hierarchy, b.res.Hierarchy) {
		return fmt.Errorf("budget-tree accounting differs")
	}
	if a.p95Ns != b.p95Ns || a.p99Ns != b.p99Ns || a.energyJ != b.energyJ || a.served != b.served {
		return fmt.Errorf("pooled report differs: p95 %v/%v p99 %v/%v energy %v/%v served %d/%d",
			a.p95Ns, b.p95Ns, a.p99Ns, b.p99Ns, a.energyJ, b.energyJ, a.served, b.served)
	}
	return nil
}

// benchFleet runs a fleet workload: untraced timed runs for the
// end-to-end metrics, or the traced ledger.
func benchFleet(spec fleetSpec, seed int64, budget time.Duration, traced bool, spansDir string) (*outcome, error) {
	fs, setupS, err := timeSetup(func() (*fleetSetup, error) { return newFleetSetup(spec, seed) })
	if err != nil {
		return nil, err
	}
	if traced {
		return traceFleet(fs, budget, spansDir)
	}

	o := &outcome{}
	var walls, rates, allocs []float64
	var ref fleetRun
	var refFP uint64
	start := time.Now()
	var last time.Duration
	for runs := 0; keepGoing(start, budget, last, runs, 3); runs++ {
		iter := time.Now()
		r := runFleet(fs, fleetShards, nil)
		o.attempted += fs.offered
		if err := r.checkServed(fs); err != nil {
			o.failed += fs.offered - r.served
			o.fail(err)
			break
		}
		fp := r.fingerprint()
		r.res = rubik.FleetResult{} // keep only the report
		if runs == 0 {
			ref, refFP = r, fp
		} else if fp != refFP {
			o.fail(fmt.Errorf("run %d output differs from run 0 of the same seed", runs))
		}
		wall := float64(r.wallNs) / 1e9
		walls = append(walls, wall)
		rates = append(rates, float64(r.served)/wall)
		allocs = append(allocs, float64(r.allocBytes)/1e6)
		last = time.Since(iter)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	o.walls = walls
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

// servedFrac is the share of offered requests served (1 - failed_frac).
func servedFrac(o *outcome) float64 {
	if o.attempted == 0 {
		return 0
	}
	return 1 - float64(o.failed)/float64(o.attempted)
}

// traceFleet runs the reference (untraced, the workload's shard count),
// then alternates traced and untraced one-shard runs until the budget is
// spent. Every run must reproduce the reference bit for bit. The ledger
// of the median traced run is reported, so its layer times split its
// own wall time exactly.
func traceFleet(fs *fleetSetup, budget time.Duration, spansDir string) (*outcome, error) {
	o := &outcome{}
	initLayerMetrics(o)
	start := time.Now()
	ref := runFleet(fs, fleetShards, nil)
	o.attempted += fs.offered
	if err := ref.checkServed(fs); err != nil {
		o.failed += fs.offered - ref.served
		o.fail(err)
		return o, nil
	}
	refFP := ref.fingerprint()

	var ledgers []*ledger
	var tracedWalls, plainWalls []float64
	var layers []map[string]float64
	var last time.Duration
	for pairs := 0; keepGoing(start, budget, last, pairs, 1); pairs++ {
		iter := time.Now()
		l := newLedger(fs.spec.sockets)
		t := runFleet(fs, 1, l)
		o.attempted += fs.offered
		if err := t.checkServed(fs); err != nil {
			o.failed += fs.offered - t.served
			o.fail(err)
			break
		}
		o.fail(sameOutput(ref, t))
		m, err := fleetLayers(l, t, fs)
		o.fail(err)
		t.res = rubik.FleetResult{}
		ledgers = append(ledgers, l)
		layers = append(layers, m)
		tracedWalls = append(tracedWalls, float64(t.wallNs)/1e9)

		u := runFleet(fs, 1, nil)
		o.attempted += fs.offered
		if err := u.checkServed(fs); err != nil {
			o.failed += fs.offered - u.served
			o.fail(err)
			break
		}
		if u.fingerprint() != refFP {
			o.fail(fmt.Errorf("untraced one-shard run differs from the reference run"))
		}
		plainWalls = append(plainWalls, float64(u.wallNs)/1e9)
		last = time.Since(iter)
	}
	if len(layers) == 0 {
		return o, nil
	}
	for name, v := range layers[medianIndex(tracedWalls)] {
		o.set(name, v, layerUnit(name))
	}
	o.walls = tracedWalls
	if len(plainWalls) > 0 {
		o.set("trace.untraced_wall_s", median(plainWalls), "s")
		o.set("trace.overhead_frac", median(tracedWalls)/median(plainWalls)-1, "frac")
	}
	path := fmt.Sprintf("%s/%s-seed%d.jsonl", spansDir, fs.spec.name, fs.seed)
	if err := writeSpans(path, ledgers); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: spans of %d traced runs in %s\n", len(ledgers), path)
	return o, nil
}

// fleetLayers turns one traced run's ledger into the per-layer metrics
// and checks the wrapper counts against the program's own counters.
func fleetLayers(l *ledger, r fleetRun, fs *fleetSetup) (map[string]float64, error) {
	t := l.totals()
	alloc, level := l.alloc.load(), l.level.load()
	var tailNs, energyNs int64
	for _, s := range l.runSpans {
		switch s.name {
		case "report.tail":
			tailNs += s.end - s.start
		case "report.energy":
			energyNs += s.end - s.start
		}
	}
	var builds, skips int
	for _, c := range t.ctls {
		builds += c.TableBuilds()
		skips += c.TableSkips()
	}
	var rounds, throttles int
	for _, d := range r.res.Capping() {
		rounds += d.Rounds
		throttles += d.ThrottleEvents
	}
	var treeRounds, capChanges int
	if hs := r.res.Hierarchy; hs != nil {
		treeRounds, capChanges = hs.Reallocations, hs.LeafCapChanges
	}
	cache := r.res.TableCache
	events := int64(fs.offered) + int64(r.served) + t.tick.calls
	layerNs := t.decide.ns + t.tick.ns + t.observe.ns + t.slack.ns + t.next.ns + t.pick.ns +
		alloc.ns + level.ns + tailNs + energyNs
	substrateNs := r.wallNs - layerNs
	p50, p99 := l.tickQuantiles()
	simS := float64(r.res.EndTime()) / 1e9

	m := map[string]float64{}
	stat := func(prefix string, c callStat) {
		m[prefix+"_calls"] = float64(c.calls)
		m[prefix+"_ns"] = meanNs(c)
		m[prefix+"_self_s"] = float64(c.ns) / 1e9
	}
	stat("core.decide", t.decide)
	stat("core.tick", t.tick)
	stat("core.observe", t.observe)
	stat("core.slack", t.slack)
	m["core.tick_p50_ns"], m["core.tick_p99_ns"] = p50, p99
	m["core.table_builds"] = float64(builds)
	m["core.table_skips"] = float64(skips)
	m["core.cache_lookups"] = float64(cache.Lookups())
	m["core.cache_hits"] = float64(cache.Hits)
	m["core.cache_hit_ratio"] = cache.HitRate()
	m["core.cache_evictions"] = float64(cache.Evictions)
	m["core.depth_ge8_frac"] = ratio(t.deepDecisions, t.decide.calls)
	m["workload.next_calls"] = float64(t.next.calls)
	m["workload.next_ns"] = meanNs(t.next)
	m["workload.self_s"] = float64(t.next.ns) / 1e9
	m["cluster.pick_calls"] = float64(t.pick.calls)
	m["cluster.pick_ns"] = meanNs(t.pick)
	m["cluster.self_s"] = float64(t.pick.ns) / 1e9
	m["capping.rounds"] = float64(alloc.calls)
	m["capping.allocate_ns"] = meanNs(alloc)
	m["capping.allocate_self_s"] = float64(alloc.ns) / 1e9
	m["capping.tree_rounds"] = float64(treeRounds)
	m["capping.level_calls"] = float64(level.calls)
	m["capping.level_ns"] = meanNs(level)
	m["capping.level_self_s"] = float64(level.ns) / 1e9
	m["capping.cap_changes"] = float64(capChanges)
	m["capping.throttle_events"] = float64(throttles)
	if simS > 0 {
		m["capping.rounds_per_sim_s"] = float64(rounds) / simS
	}
	m["report.tail_s"] = float64(tailNs) / 1e9
	m["report.energy_s"] = float64(energyNs) / 1e9
	m["substrate.events"] = float64(events)
	m["substrate.self_s"] = float64(substrateNs) / 1e9
	m["substrate.ns_per_event"] = float64(substrateNs) / float64(events)
	m["trace.wall_s"] = float64(r.wallNs) / 1e9

	var errs []error
	if alloc.calls != int64(rounds) {
		errs = append(errs, fmt.Errorf("Allocate calls %d != sum of DomainStats.Rounds %d", alloc.calls, rounds))
	}
	if t.tick.calls < int64(builds+skips) {
		errs = append(errs, fmt.Errorf("OnTick calls %d < TableBuilds+TableSkips %d", t.tick.calls, builds+skips))
	}
	if want := int64(fs.offered + fs.spec.sockets); t.next.calls != want {
		errs = append(errs, fmt.Errorf("Next calls %d != offered requests plus one per socket %d", t.next.calls, want))
	}
	if substrateNs < 0 {
		errs = append(errs, fmt.Errorf("layer self times %d ns exceed the traced wall time %d ns", layerNs, r.wallNs))
	}
	return m, errors.Join(errs...)
}

func meanNs(c callStat) float64 {
	if c.calls == 0 {
		return 0
	}
	return float64(c.ns) / float64(c.calls)
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
