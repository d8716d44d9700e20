package sim

import "testing"

// Edge regression tests for the timing-wheel engine. Each case pins a
// behavior the heap engine exhibited and the wheel must preserve
// bit-for-bit: handle reuse across Cancel/Reschedule, scheduling at the
// current instant, events landing exactly on a RunUntilOrDrain boundary,
// and deltas that cascade through multiple wheel levels.

// Cancel-then-Reschedule on the same handle must behave as if the cancel
// never left a residue: the handle fires once, at the new deadline.
func TestEngineCancelThenReschedule(t *testing.T) {
	e := NewEngine()
	var fired []Time
	h := e.Register(func() { fired = append(fired, e.Now()) })

	e.Reschedule(h, 100)
	e.Cancel(h)
	e.Reschedule(h, 250)
	e.Run()

	if len(fired) != 1 || fired[0] != 250 {
		t.Fatalf("fired = %v, want [250]", fired)
	}
	if e.Scheduled(h) {
		t.Fatalf("handle still scheduled after firing")
	}

	// Cancel/Reschedule churn while other events interleave; the handle
	// must track only its latest deadline.
	var log []int
	a := e.Register(func() { log = append(log, 1) })
	b := e.Register(func() { log = append(log, 2) })
	e.Reschedule(a, e.Now()+10)
	e.Reschedule(b, e.Now()+20)
	e.Cancel(a)
	e.Reschedule(a, e.Now()+30)
	e.Cancel(a)
	e.Reschedule(a, e.Now()+5)
	e.Run()
	if want := []int{1, 2}; len(log) != 2 || log[0] != want[0] || log[1] != want[1] {
		t.Fatalf("log = %v, want %v", log, want)
	}
}

// Scheduling at exactly Now() must fire on the next step without
// advancing the clock.
func TestEngineScheduleAtNow(t *testing.T) {
	e := NewEngine()
	e.RunUntil(1000)
	if e.Now() != 1000 {
		t.Fatalf("Now = %d, want 1000", e.Now())
	}

	var at Time
	h := e.Register(func() { at = e.Now() })
	e.Reschedule(h, e.Now())
	if !e.Step() {
		t.Fatalf("Step found no event")
	}
	if at != 1000 || e.Now() != 1000 {
		t.Fatalf("fired at %d (clock %d), want 1000", at, e.Now())
	}

	// Same via the one-shot path, and in wheel mode (enough pending
	// handles to spill out of the sorted small front).
	var hs []Handle
	for i := 0; i < 2*smallCap; i++ {
		h := e.Register(func() {})
		e.Reschedule(h, e.Now()+Time(10000+i*1000))
		hs = append(hs, h)
	}
	fired := false
	e.At(e.Now(), func() { fired = true })
	if !e.Step() || !fired || e.Now() != 1000 {
		t.Fatalf("at-Now one-shot: fired=%v clock=%d, want true/1000", fired, e.Now())
	}
	for _, h := range hs {
		e.Cancel(h)
	}
}

// An event scheduled exactly at the RunUntilOrDrain bound must fire
// during that call, and the clock must rest exactly on the bound.
func TestEngineRunUntilOrDrainBoundary(t *testing.T) {
	e := NewEngine()
	var fired []Time
	h := e.Register(func() { fired = append(fired, e.Now()) })

	e.Reschedule(h, 5000)
	e.RunUntilOrDrain(5000)
	if len(fired) != 1 || fired[0] != 5000 || e.Now() != 5000 {
		t.Fatalf("boundary fire: fired=%v clock=%d, want [5000]/5000", fired, e.Now())
	}

	// An event one tick past the bound must NOT fire, and the clock must
	// stop at the bound.
	e.Reschedule(h, 6001)
	e.RunUntilOrDrain(6000)
	if len(fired) != 1 || e.Now() != 6000 {
		t.Fatalf("past-bound: fired=%v clock=%d, want len 1/6000", fired, e.Now())
	}
	// Draining with nothing pending advances only to the phantom — the
	// latest deadline ever scheduled (6001 here) — never to the bound.
	e.Cancel(h)
	e.RunUntilOrDrain(9000)
	if e.Now() != 6001 {
		t.Fatalf("empty drain: clock=%d, want phantom 6001", e.Now())
	}
}

// Far-future deltas must survive multi-level cascades: an event placed
// many levels up has to migrate down level by level and still fire at
// its exact deadline, in seq order against same-deadline latecomers.
func TestEngineFarFutureCascade(t *testing.T) {
	deltas := []Time{
		1e3, 1e6, 1e9, 1e12, 1e15, 1e18, // spans every cascade level
		wheelL0Slots << wheelTickBits,       // first slot past the l0 horizon
		(wheelL0Slots << wheelTickBits) - 1, // last l0-reachable tick
	}
	for _, d := range deltas {
		e := NewEngine()
		var at Time
		h := e.Register(func() { at = e.Now() })
		e.Reschedule(h, d)
		// Pin extra handles so the engine stays in wheel mode and the
		// event actually cascades instead of being unspilled early.
		for i := 0; i < 2*smallCap; i++ {
			p := e.Register(func() {})
			e.Reschedule(p, 2*d+Time(i+1))
		}
		e.RunUntil(d)
		if at != d {
			t.Fatalf("delta %d: fired at %d, want %d", d, at, d)
		}
	}
}

// Two events with the same deadline but placed via different routes — one
// cascaded from an upper level, one inserted directly into l0 after the
// clock got close — must fire in registration (seq) order.
func TestEngineCrossLevelTieOrder(t *testing.T) {
	e := NewEngine()
	var log []int
	a := e.Register(func() { log = append(log, 1) })
	b := e.Register(func() { log = append(log, 2) })

	const deadline = Time(5_000_000) // well past the l0 horizon: A cascades
	e.Reschedule(a, deadline)
	// Keep the engine in wheel mode throughout.
	var pins []Handle
	for i := 0; i < 2*smallCap; i++ {
		p := e.Register(func() {})
		e.Reschedule(p, 2*deadline+Time(i+1))
		pins = append(pins, p)
	}
	e.RunUntil(deadline - 10) // A has cascaded into (or near) l0 by now
	e.Reschedule(b, deadline) // B goes straight into l0
	e.RunUntil(deadline)

	if len(log) != 2 || log[0] != 1 || log[1] != 2 {
		t.Fatalf("tie order = %v, want [1 2] (seq order)", log)
	}
	for _, p := range pins {
		e.Cancel(p)
	}
}

// Far-to-near and near-to-far reschedules must relocate the event across
// levels without leaving stale residues behind.
func TestEngineCrossLevelReschedule(t *testing.T) {
	e := NewEngine()
	var fired []Time
	h := e.Register(func() { fired = append(fired, e.Now()) })
	for i := 0; i < 2*smallCap; i++ {
		p := e.Register(func() {})
		e.Reschedule(p, 1e12+Time(i))
	}

	e.Reschedule(h, 1e9) // far: upper cascade level
	e.Reschedule(h, 100) // near: l0
	e.RunUntil(200)
	if len(fired) != 1 || fired[0] != 100 {
		t.Fatalf("far-to-near: fired=%v, want [100]", fired)
	}

	e.Reschedule(h, e.Now()+50)  // near again
	e.Reschedule(h, e.Now()+1e9) // back out to a far level
	want := e.Now() + 1e9
	e.RunUntil(want)
	if len(fired) != 2 || fired[1] != want {
		t.Fatalf("near-to-far: fired=%v, want second at %d", fired, want)
	}

	// Cancel mid-flight after a cascade has begun: advance partway so the
	// entry migrates at least one level, then cancel; it must never fire.
	e.Reschedule(h, e.Now()+1e9)
	e.RunUntil(e.Now() + 1e6)
	e.Cancel(h)
	e.RunUntil(e.Now() + 2e9)
	if len(fired) != 2 {
		t.Fatalf("canceled mid-cascade event fired: %v", fired)
	}
}
