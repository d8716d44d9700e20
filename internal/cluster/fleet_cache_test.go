package cluster

import (
	"reflect"
	"sync"
	"testing"

	"rubik/internal/capping"
	rubikcore "rubik/internal/core"
	"rubik/internal/queueing"
	"rubik/internal/sim"
	"rubik/internal/workload"
)

// rubikFleetConfig is fleetConfig with per-core Rubik controllers tuned
// so small test fleets actually exercise the rebuild path: a 2 ms table
// refresh (vs the paper's 100 ms, which a short run never reaches) and a
// small profiling window, so ticks during idle stretches see an
// unchanged window and can hit the rebuild cache.
func rubikFleetConfig(t *testing.T, scenario, dispatcher string, sockets, coresPer, nPer, shards int) FleetConfig {
	t.Helper()
	cfg := fleetConfig(t, scenario, dispatcher, sockets, coresPer, nPer, 0, shards)
	cfg.NewPolicy = rubikTestPolicy
	return cfg
}

// rubikTestPolicy is rubikFleetConfig's per-core controller.
func rubikTestPolicy(int, int) (queueing.Policy, error) {
	rcfg := rubikcore.DefaultConfig(500_000)
	rcfg.UpdatePeriod = 2 * sim.Millisecond
	rcfg.MinSamples = 16
	rcfg.HistoryCap = 256
	return rubikcore.New(rcfg)
}

// TestFleetTableCacheInvariance is the cache's end-to-end acceptance
// property: across scenario shapes and dispatchers, a fleet run with the
// per-socket rebuild cache (the default) produces per-socket results
// deeply equal to the same fleet with caching disabled — the cache is a
// pure throughput optimization, invisible in every simulated quantity —
// while actually hitting (a never-hit cache would pass vacuously).
func TestFleetTableCacheInvariance(t *testing.T) {
	const sockets, coresPer, nPer = 2, 2, 600
	scenarios := []string{"bursty", "heavytail", "closedloop"}
	dispatchers := []string{"jsq", "roundrobin"}
	var hits int64
	for _, sc := range scenarios {
		for _, d := range dispatchers {
			t.Run(sc+"/"+d, func(t *testing.T) {
				off := rubikFleetConfig(t, sc, d, sockets, coresPer, nPer, 2)
				off.TableCacheEntries = -1
				want, err := RunFleet(off)
				if err != nil {
					t.Fatal(err)
				}
				if st := want.TableCache; st.Lookups() != 0 {
					t.Fatalf("disabled cache reported lookups: %+v", st)
				}

				on := rubikFleetConfig(t, sc, d, sockets, coresPer, nPer, 2)
				got, err := RunFleet(on)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.Sockets, want.Sockets) {
					t.Fatal("cached fleet result diverged from uncached")
				}
				if st := got.TableCache; st.Lookups() == 0 {
					t.Fatal("default-on cache was never consulted")
				}
				hits += got.TableCache.Hits
			})
		}
	}
	if hits == 0 {
		t.Fatal("no scenario/dispatcher cell ever hit the cache")
	}
}

// TestFleetTableCacheExplicitSize checks the TableCacheEntries contract:
// an explicit bound is honored per socket, and shard-count invariance
// holds with a cache so small it evicts constantly.
func TestFleetTableCacheExplicitSize(t *testing.T) {
	const sockets, coresPer, nPer = 3, 2, 500
	want, err := RunFleet(rubikFleetConfig(t, "bursty", "jsq", sockets, coresPer, nPer, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, sockets} {
		cfg := rubikFleetConfig(t, "bursty", "jsq", sockets, coresPer, nPer, shards)
		cfg.TableCacheEntries = 1 // evict on every distinct rebuild
		got, err := RunFleet(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Sockets, want.Sockets) {
			t.Fatalf("shard=%d size-1-cache fleet diverged", shards)
		}
	}
}

// TestFleetCappedTableCache is the regression test for capped fleets
// bypassing the rebuild cache: the capping wrapper around each core's
// policy must hand the socket's cache on to the controller, under flat
// per-socket caps and under a budget tree alike, and the cached run must
// stay deeply equal to the uncached one.
func TestFleetCappedTableCache(t *testing.T) {
	const sockets, coresPer, nPer = 3, 2, 500
	flat := func() FleetConfig {
		cfg := rubikFleetConfig(t, "bursty", "jsq", sockets, coresPer, nPer, 2)
		cfg.CapW = 9 // binding 2-core budget
		return cfg
	}
	tree := func() FleetConfig {
		cfg := hierFleetConfig(t, "bursty", sockets, coresPer, nPer, 2, capping.HierarchySpec{Levels: []capping.LevelSpec{
			{Name: "rack", Nodes: 1, CapW: 30},
			{Name: "pdu", Nodes: 2, Oversub: 1.1},
		}}, 5)
		cfg.NewPolicy = rubikTestPolicy
		return cfg
	}
	for name, build := range map[string]func() FleetConfig{"flat": flat, "tree": tree} {
		t.Run(name, func(t *testing.T) {
			off := build()
			off.TableCacheEntries = -1
			want, err := RunFleet(off)
			if err != nil {
				t.Fatal(err)
			}
			got, err := RunFleet(build())
			if err != nil {
				t.Fatal(err)
			}
			if got.TableCache.Lookups() == 0 {
				t.Fatal("capped fleet never consulted the rebuild cache")
			}
			if len(got.Capping()) != sockets {
				t.Fatalf("%d capped domains, want %d", len(got.Capping()), sockets)
			}
			if !reflect.DeepEqual(got.Sockets, want.Sockets) || !reflect.DeepEqual(got.Hierarchy, want.Hierarchy) {
				t.Fatal("cached capped fleet diverged from uncached")
			}
		})
	}
}

// TestFleetWorkStealingSkewed pins the scheduler rewrite: per-socket
// request counts are pathologically skewed (one socket carries 20x the
// work), which under the old static round-robin partition serialized the
// heavy socket's shard. Stealing must leave results deeply equal across
// shard counts anyway — the schedule moves, the simulation does not.
// The fixed CI race pass (-run 'TestFleet') covers the claim-counter
// and results-slice sharing under the detector.
func TestFleetWorkStealingSkewed(t *testing.T) {
	const sockets, coresPer = 4, 2
	perSocket := []int{4000, 200, 200, 200}
	build := func(shards int) FleetConfig {
		cfg := fleetConfig(t, "bursty", "jsq", sockets, coresPer, perSocket[0], 0, shards)
		sc, err := workload.ScenarioByName("bursty")
		if err != nil {
			t.Fatal(err)
		}
		app := workload.Masstree()
		cfg.NewSource = func(s int) workload.Source {
			return sc.New(app, 0.5*float64(coresPer), perSocket[s], workload.ShardSeed(7, s))
		}
		return cfg
	}
	want, err := RunFleet(build(1))
	if err != nil {
		t.Fatal(err)
	}
	for s, n := range perSocket {
		if got := want.Sockets[s].Served(); got != n {
			t.Fatalf("socket %d served %d, want %d", s, got, n)
		}
	}
	for _, shards := range []int{2, sockets} {
		got, err := RunFleet(build(shards))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Sockets, want.Sockets) {
			t.Fatalf("shard=%d skewed fleet diverged from shard=1", shards)
		}
	}
}

// TestFleetTableColumnsShardInvariant pins the lazy-column counter end to
// end: the fleet-wide sum of Rubik.TableColumns is the same at every
// shard count and with the rebuild cache on or off (a hit may bring more
// columns than are read, but the counter only counts reads), and lazy
// tables read fewer columns than eager ones would have built.
func TestFleetTableColumnsShardInvariant(t *testing.T) {
	const sockets, coresPer, nPer = 3, 2, 600
	run := func(shards, cacheEntries int) (columns, builds int) {
		cfg := rubikFleetConfig(t, "bursty", "jsq", sockets, coresPer, nPer, shards)
		cfg.TableCacheEntries = cacheEntries
		var mu sync.Mutex
		var ctls []*rubikcore.Rubik
		newPolicy := cfg.NewPolicy
		cfg.NewPolicy = func(s, c int) (queueing.Policy, error) {
			p, err := newPolicy(s, c)
			if err == nil {
				mu.Lock()
				ctls = append(ctls, p.(*rubikcore.Rubik))
				mu.Unlock()
			}
			return p, err
		}
		if _, err := RunFleet(cfg); err != nil {
			t.Fatal(err)
		}
		for _, c := range ctls {
			columns += c.TableColumns()
			builds += c.TableBuilds()
			if c.RebuildFailures() != 0 {
				t.Fatalf("controller counted %d rebuild failures", c.RebuildFailures())
			}
		}
		return columns, builds
	}
	want, builds := run(1, -1)
	t.Logf("%d columns read over %d table generations", want, builds)
	if want == 0 || want >= builds*rubikcore.DefaultConfig(1).MaxTableQueue {
		t.Fatalf("%d columns read over %d generations: want some, and fewer than eager", want, builds)
	}
	for _, shards := range []int{1, 2, sockets} {
		if got, _ := run(shards, 0); got != want {
			t.Fatalf("shards=%d cached: %d columns, uncached single shard read %d", shards, got, want)
		}
	}
	if got, _ := run(2, -1); got != want {
		t.Fatalf("shards=2 uncached: %d columns, want %d", got, want)
	}
}
