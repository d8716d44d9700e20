package main

import (
	"reflect"
	"testing"

	"rubik"
	"rubik/internal/queueing"
	"rubik/internal/workload"
)

// smallSpec shrinks a fleet workload so the test runs in seconds while
// keeping its shape: socket count, load, cadence and budget tree.
func smallSpec(spec fleetSpec) fleetSpec {
	spec.perSocket = 1200
	if spec.tickMs < 10 {
		spec.perSocket = 300
	}
	return spec
}

// A traced run must be the plain run: the wrappers only observe.
func TestWrappedFleetMatchesPlain(t *testing.T) {
	for _, spec := range fleetSpecs {
		spec := smallSpec(spec)
		t.Run(spec.name, func(t *testing.T) {
			fs, err := newFleetSetup(spec, 7)
			if err != nil {
				t.Fatal(err)
			}
			plain := runFleet(fs, 1, nil)
			if err := plain.checkServed(fs); err != nil {
				t.Fatal(err)
			}
			l := newLedger(spec.sockets)
			wrapped := runFleet(fs, 1, l)
			if err := wrapped.checkServed(fs); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(plain.res, wrapped.res) {
				t.Fatal("wrapped one-shard run differs from the plain run")
			}
			if _, err := fleetLayers(l, wrapped, fs); err != nil {
				t.Fatal(err)
			}

			// Two shards share the allocator wrapper; run under -race.
			sharded := runFleet(fs, 2, newLedger(spec.sockets))
			if err := sameOutput(plain, sharded); err != nil {
				t.Fatalf("wrapped two-shard run: %v", err)
			}
		})
	}
}

// Each wrapper implements exactly the optional interfaces of the value
// it wraps, so the program takes the same paths with and without it.
func TestWrappersAreFaithful(t *testing.T) {
	l := newLedger(1)
	ctl, err := rubik.NewController(1e6)
	if err != nil {
		t.Fatal(err)
	}
	policyIfaces := map[string]func(any) bool{
		"Ticker":             func(v any) bool { _, ok := v.(queueing.Ticker); return ok },
		"CompletionObserver": func(v any) bool { _, ok := v.(queueing.CompletionObserver); return ok },
		"SlackReporter":      func(v any) bool { _, ok := v.(queueing.SlackReporter); return ok },
		"TableCacheUser": func(v any) bool {
			_, ok := v.(interface{ SetTableCache(*rubik.TableCache) })
			return ok
		},
	}
	wp := l.wrapPolicy(0, ctl)
	for name, has := range policyIfaces {
		if has(ctl) != has(wp) {
			t.Errorf("policy wrapper: %s = %v, wrapped controller: %v", name, has(wp), has(ctl))
		}
	}

	app, err := rubik.AppByName("masstree")
	if err != nil {
		t.Fatal(err)
	}
	isAware := func(v any) bool { _, ok := v.(workload.CompletionAware); return ok }
	sawAware := false
	for _, scenario := range []string{"bursty", "closedloop"} {
		src, err := rubik.NewScenarioSource(scenario, app, 0.5, 100, 1)
		if err != nil {
			t.Fatal(err)
		}
		want := isAware(src)
		sawAware = sawAware || want
		if got := isAware(l.wrapSource(0, src)); got != want {
			t.Errorf("%s source wrapper: CompletionAware = %v, wrapped source: %v", scenario, got, want)
		}
	}
	if !sawAware {
		t.Fatal("no completion-aware source among the scenarios; the test covers nothing")
	}
}
