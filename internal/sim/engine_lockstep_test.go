package sim

import (
	"math/rand"
	"testing"
)

// firing is one observed callback: which label fired and at what clock.
type firing struct {
	label int
	at    Time
}

// lockstepTrio drives the timing-wheel Engine, the retired HeapEngine, and
// the tombstone RefEngine through an identical schedule, recording each
// firing as (label, time) so the three histories can be compared.
type lockstepTrio struct {
	eng *Engine
	hp  *HeapEngine
	ref *RefEngine

	engLog []firing
	hpLog  []firing
	refLog []firing
}

// TestEngineLockstepWithReference is the randomized stress property test:
// interleaved At/After/Reschedule/Cancel/RunUntil/RunUntilOrDrain/Step
// sequences — plus self-rescheduling handles (the shape every core event
// has), handle-count bursts that push the wheel engine across its
// small-mode thresholds in both directions, and far-future targets that
// force multi-level cascades — must produce the identical firing order and
// clock on all three engines.
func TestEngineLockstepWithReference(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		p := &lockstepTrio{eng: NewEngine(), hp: NewHeapEngine(), ref: NewRefEngine()}

		// Persistent handles: pure logging callbacks. Enough of them that a
		// burst rescheduling all at once overflows smallCap and spills into
		// the wheel; cancels and firings then drain pending back below
		// smallLow, exercising unspill.
		const handles = 3 * smallCap / 2
		var engH, hpH, refH [handles]Handle
		for i := 0; i < handles; i++ {
			i := i
			engH[i] = p.eng.Register(func() { p.engLog = append(p.engLog, firing{i, p.eng.Now()}) })
			hpH[i] = p.hp.Register(func() { p.hpLog = append(p.hpLog, firing{i, p.hp.Now()}) })
			refH[i] = p.ref.Register(func() { p.refLog = append(p.refLog, firing{i, p.ref.Now()}) })
		}
		// One more handle: self-rescheduling chain (a completion/tick
		// lookalike), deterministically re-arming itself a bounded number of
		// times.
		chain := 3 + r.Intn(10)
		period := Time(1 + r.Intn(40))
		engChain, hpChain, refChain := 0, 0, 0
		var engCH, hpCH, refCH Handle
		engCH = p.eng.Register(func() {
			p.engLog = append(p.engLog, firing{handles, p.eng.Now()})
			engChain++
			if engChain < chain {
				p.eng.RescheduleAfter(engCH, period)
			}
		})
		hpCH = p.hp.Register(func() {
			p.hpLog = append(p.hpLog, firing{handles, p.hp.Now()})
			hpChain++
			if hpChain < chain {
				p.hp.RescheduleAfter(hpCH, period)
			}
		})
		refCH = p.ref.Register(func() {
			p.refLog = append(p.refLog, firing{handles, p.ref.Now()})
			refChain++
			if refChain < chain {
				p.ref.RescheduleAfter(refCH, period)
			}
		})

		reschedAll := func(i int, at Time) {
			p.eng.Reschedule(engH[i], at)
			p.hp.Reschedule(hpH[i], at)
			p.ref.Reschedule(refH[i], at)
		}

		ops := 50 + r.Intn(150)
		for op := 0; op < ops; op++ {
			switch k := r.Intn(15); {
			case k < 3: // reschedule a persistent handle (possibly moving it)
				reschedAll(r.Intn(handles), Time(r.Intn(500)))
			case k < 4: // arm or move the chain
				at := Time(r.Intn(500))
				p.eng.Reschedule(engCH, at)
				p.hp.Reschedule(hpCH, at)
				p.ref.Reschedule(refCH, at)
			case k < 5: // cancel a persistent handle
				i := r.Intn(handles)
				p.eng.Cancel(engH[i])
				p.hp.Cancel(hpH[i])
				p.ref.Cancel(refH[i])
			case k < 7: // one-shot closure at an absolute time (possibly past)
				at := Time(r.Intn(500))
				label := 100 + op
				p.eng.At(at, func() { p.engLog = append(p.engLog, firing{label, p.eng.Now()}) })
				p.hp.At(at, func() { p.hpLog = append(p.hpLog, firing{label, p.hp.Now()}) })
				p.ref.At(at, func() { p.refLog = append(p.refLog, firing{label, p.ref.Now()}) })
			case k < 8: // one-shot closure a relative distance out
				d := Time(r.Intn(100))
				label := 100 + op
				p.eng.After(d, func() { p.engLog = append(p.engLog, firing{label, p.eng.Now()}) })
				p.hp.After(d, func() { p.hpLog = append(p.hpLog, firing{label, p.hp.Now()}) })
				p.ref.After(d, func() { p.refLog = append(p.refLog, firing{label, p.ref.Now()}) })
			case k < 9: // far-future reschedule: forces a multi-level cascade
				// when a later long RunUntil walks the clock past it.
				d := Time(1) << uint(10+r.Intn(34))
				reschedAll(r.Intn(handles), p.eng.Now()+d+Time(r.Intn(1000)))
			case k < 10: // burst: arm every persistent handle at once, pushing
				// the wheel engine past smallCap into wheel mode.
				base := p.eng.Now()
				for i := 0; i < handles; i++ {
					reschedAll(i, base+Time(r.Intn(2000)))
				}
			case k < 11: // far burst: pin more than smallCap entries across
				// cascade levels so the engine stays in wheel mode and a
				// later long advance must cascade them down level by level.
				base := p.eng.Now()
				for i := 0; i < handles; i++ {
					d := Time(1) << uint(10+(op+i)%30)
					reschedAll(i, base+d+Time(r.Intn(1000)))
				}
			case k < 12: // long advance: drags the clock across level
				// boundaries, cascading any far-future entries.
				until := p.eng.Now() + Time(1)<<uint(10+r.Intn(36))
				p.eng.RunUntil(until)
				p.hp.RunUntil(until)
				p.ref.RunUntil(until)
			case k < 13: // bounded advance
				until := p.eng.Now() + Time(r.Intn(120))
				p.eng.RunUntil(until)
				p.hp.RunUntil(until)
				p.ref.RunUntil(until)
			case k < 14: // deadline-or-drain; RefEngine has no such entry
				// point, so mirror the observable outcome onto it.
				until := p.eng.Now() + Time(r.Intn(300))
				p.eng.RunUntilOrDrain(until)
				p.hp.RunUntilOrDrain(until)
				if p.eng.Now() == until {
					p.ref.RunUntil(until)
				} else {
					p.ref.Run()
				}
			default: // single real step
				// One Engine step fires one real event; the reference burns
				// tombstone steps first, so step it until a real firing (or
				// drained). If the engine had nothing, leave the reference's
				// remaining tombstones for the final drain, as production
				// loops would.
				stepped := p.eng.Step()
				if p.hp.Step() != stepped {
					t.Fatalf("seed %d op %d: Step availability diverged", seed, op)
				}
				if stepped {
					for n := len(p.refLog); len(p.refLog) == n; {
						if !p.ref.Step() {
							t.Fatalf("seed %d op %d: reference drained before matching a real firing", seed, op)
						}
					}
				}
			}
			if p.eng.Now() != p.hp.Now() || p.eng.Now() != p.ref.Now() {
				t.Fatalf("seed %d op %d: clocks diverged mid-run: eng=%d heap=%d ref=%d",
					seed, op, p.eng.Now(), p.hp.Now(), p.ref.Now())
			}
			if p.eng.Pending() != p.hp.Pending() {
				t.Fatalf("seed %d op %d: pending diverged: eng=%d heap=%d",
					seed, op, p.eng.Pending(), p.hp.Pending())
			}
			// Scheduled must agree at every point (the ref tracks it via the
			// tombstone generation, the engine via its bucket position).
			for i := 0; i < handles; i++ {
				if p.eng.Scheduled(engH[i]) != p.ref.Scheduled(refH[i]) ||
					p.eng.Scheduled(engH[i]) != p.hp.Scheduled(hpH[i]) {
					t.Fatalf("seed %d op %d: Scheduled(handle %d) diverged: eng=%v heap=%v ref=%v",
						seed, op, i, p.eng.Scheduled(engH[i]), p.hp.Scheduled(hpH[i]), p.ref.Scheduled(refH[i]))
				}
			}
		}
		p.eng.Run()
		p.hp.Run()
		p.ref.Run()

		if p.eng.Now() != p.hp.Now() || p.eng.Now() != p.ref.Now() {
			t.Fatalf("seed %d: clocks diverged: eng=%d heap=%d ref=%d",
				seed, p.eng.Now(), p.hp.Now(), p.ref.Now())
		}
		if len(p.engLog) != len(p.refLog) || len(p.engLog) != len(p.hpLog) {
			t.Fatalf("seed %d: firing counts diverged: eng=%d heap=%d ref=%d",
				seed, len(p.engLog), len(p.hpLog), len(p.refLog))
		}
		for i := range p.engLog {
			if p.engLog[i] != p.refLog[i] || p.engLog[i] != p.hpLog[i] {
				t.Fatalf("seed %d: firing %d diverged: eng=%v heap=%v ref=%v",
					seed, i, p.engLog[i], p.hpLog[i], p.refLog[i])
			}
		}
	}
}
