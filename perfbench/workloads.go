package main

import (
	"fmt"

	"rubik"
)

// fleetSpec is one fleet workload: bursty (two-state MMPP) masstree
// traffic per socket, a fresh paper-parameter Rubik controller per core,
// socket-local JSQ dispatch. Arrivals are open-loop in simulated time;
// the benchmark itself is a closed loop of one caller (the next run
// starts when the previous one returns).
type fleetSpec struct {
	name      string
	sockets   int
	perSocket int // requests offered to each socket
	// load returns socket s's offered load per core (1.0 = the capacity
	// of one core at the nominal 2.4 GHz).
	load func(s int) float64
	// tickMs is the controller's table-update cadence (paper: 100 ms).
	tickMs float64
	// rackWPerSocket > 0 runs the rack -> 2 PDUs -> sockets budget tree
	// (1.25x PDU oversubscription, waterfill at every level and inside
	// every socket, re-allocated every epochMs).
	rackWPerSocket float64
	epochMs        float64
}

const (
	// coresPerSocket is the paper's CMP (Table 2).
	coresPerSocket = 6
	// fleetShards sizes the untraced runs for a 2-CPU host.
	fleetShards = 2
)

// The fleet workloads. One untraced run takes a few host seconds on a
// 2-CPU host.
var fleetSpecs = []fleetSpec{
	{
		// The paper's operating point (50% load, 100 ms tables) at fleet
		// scale: rebuild work and single-threaded report calls show.
		name: "fleet-paper", sockets: 16, perSocket: 54000,
		load: func(int) float64 { return 0.5 }, tickMs: 100,
	},
	{
		// A diurnal trough under a fine 2 ms cadence: profile windows
		// repeat between ticks, so this is the workload where the
		// rebuild cache hits and per-event work is negligible.
		name: "fleet-trough", sockets: 8, perSocket: 1500,
		load: func(int) float64 { return 0.1 }, tickMs: 2,
	},
	{
		// Skewed per-socket demand under a binding rack budget: the only
		// workload that runs the capping layer and the epoch-barrier
		// fleet runner.
		name: "fleet-capped", sockets: 16, perSocket: 24000,
		load:   func(s int) float64 { return 0.3 + 0.3*float64(s)/15 },
		tickMs: 100, rackWPerSocket: 24, epochMs: 5,
	},
}

func fleetSpecByName(name string) (fleetSpec, bool) {
	for _, s := range fleetSpecs {
		if s.name == name {
			return s, true
		}
	}
	return fleetSpec{}, false
}

// fleetSetup is everything a fleet workload builds before its first
// timed run: the tail bound (profiled at fixed nominal frequency, as the
// paper defines it) and one source per socket. Runs rewind the sources
// instead of rebuilding them.
type fleetSetup struct {
	spec    fleetSpec
	seed    int64
	bound   float64
	srcs    []rubik.Source
	offered int
}

func newFleetSetup(spec fleetSpec, seed int64) (*fleetSetup, error) {
	app, err := rubik.AppByName("masstree")
	if err != nil {
		return nil, err
	}
	bound, err := rubik.TailBound(app, seed)
	if err != nil {
		return nil, fmt.Errorf("tail bound: %w", err)
	}
	fs := &fleetSetup{spec: spec, seed: seed, bound: bound, srcs: make([]rubik.Source, spec.sockets)}
	for s := range fs.srcs {
		load := spec.load(s) * coresPerSocket
		src, err := rubik.NewScenarioSource("bursty", app, load, spec.perSocket, rubik.ShardSeed(seed, s))
		if err != nil {
			return nil, err
		}
		fs.srcs[s] = src
		fs.offered += spec.perSocket
	}
	return fs, nil
}

// config assembles one run's fleet configuration. A nil ledger gives the
// plain program; otherwise every pluggable value is wrapped by the
// ledger's timing wrappers. Controllers are built fresh, with empty
// profiles, by every run.
func (fs *fleetSetup) config(shards int, l *ledger) rubik.FleetConfig {
	spec := fs.spec
	for _, src := range fs.srcs {
		src.Reset()
	}
	ctlCfg := rubik.DefaultControllerConfig(fs.bound)
	ctlCfg.UpdatePeriod = rubik.Time(spec.tickMs * 1e6)
	cfg := rubik.NewFleet(spec.sockets, coresPerSocket,
		func(s int) rubik.Source {
			if l != nil {
				return l.wrapSource(s, fs.srcs[s])
			}
			return fs.srcs[s]
		},
		func(s, _ int) (rubik.Policy, error) {
			ctl, err := rubik.NewControllerWithConfig(ctlCfg)
			if err != nil || l == nil {
				return ctl, err
			}
			return l.wrapPolicy(s, ctl), nil
		})
	cfg.Shards = shards
	cfg.NewDispatcher = func(s int) rubik.Dispatcher {
		if l != nil {
			return l.wrapDispatcher(s, rubik.JSQDispatcher())
		}
		return rubik.JSQDispatcher()
	}
	if spec.rackWPerSocket > 0 {
		alloc, level := rubik.WaterfillAllocator(), rubik.WaterfillLevelAllocator()
		if l != nil {
			alloc, level = l.wrapAllocator(alloc), l.wrapLevelAllocator(level)
		}
		cfg.Allocator = alloc
		cfg.Hierarchy = &rubik.HierarchySpec{Levels: []rubik.LevelSpec{
			{Name: "rack", Nodes: 1, CapW: spec.rackWPerSocket * float64(spec.sockets), Alloc: level},
			{Name: "pdu", Nodes: 2, Oversub: 1.25, Alloc: level},
		}}
		cfg.Epoch = rubik.Time(spec.epochMs * 1e6)
	}
	return cfg
}
