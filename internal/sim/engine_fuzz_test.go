package sim

import (
	"testing"
)

// FuzzEngineLockstep drives the timing-wheel Engine, the retired
// HeapEngine, and the tombstone RefEngine through an op sequence decoded
// from the fuzz input and asserts identical firing order and clocks. The
// decoder favors the shapes that stress the wheel: past-due schedules that
// clamp to Now, shifted deltas that land on every cascade level, and
// enough live handles that bursts cross the small-mode thresholds.
func FuzzEngineLockstep(f *testing.F) {
	// Seeds: a mixed op soup, a cascade-heavy sequence (large shifts), and
	// a burst/cancel churn.
	f.Add([]byte{0, 1, 2, 3, 4, 5, 0, 10, 20, 30, 40, 50, 60, 70})
	f.Add([]byte{0, 200, 30, 0, 201, 31, 0, 202, 32, 4, 255, 255, 5})
	f.Add([]byte{3, 9, 3, 9, 3, 9, 1, 0, 1, 1, 0, 5, 0, 0, 4, 80, 2, 7, 5})

	f.Fuzz(func(t *testing.T, data []byte) {
		eng, hp, ref := NewEngine(), NewHeapEngine(), NewRefEngine()
		var engLog, hpLog, refLog []firing

		const handles = 32 // > smallCap: bursts spill into the wheel
		var engH, hpH, refH [handles]Handle
		for i := 0; i < handles; i++ {
			i := i
			engH[i] = eng.Register(func() { engLog = append(engLog, firing{i, eng.Now()}) })
			hpH[i] = hp.Register(func() { hpLog = append(hpLog, firing{i, hp.Now()}) })
			refH[i] = ref.Register(func() { refLog = append(refLog, firing{i, ref.Now()}) })
		}

		next := func(i *int) byte {
			if *i >= len(data) {
				return 0
			}
			b := data[*i]
			*i++
			return b
		}
		for i, op := 0, 0; i < len(data) && op < 512; op++ {
			switch next(&i) % 6 {
			case 0: // reschedule: delta shifted so every cascade level is
				// reachable from two bytes
				h := int(next(&i)) % handles
				d := Time(next(&i)) << (uint(next(&i)) % 40)
				at := eng.Now() + d
				eng.Reschedule(engH[h], at)
				hp.Reschedule(hpH[h], at)
				ref.Reschedule(refH[h], at)
			case 1: // cancel
				h := int(next(&i)) % handles
				eng.Cancel(engH[h])
				hp.Cancel(hpH[h])
				ref.Cancel(refH[h])
			case 2: // past-due one-shot: clamps to Now and fires next
				back := Time(next(&i))
				label := 1000 + op
				at := eng.Now() - back
				eng.At(at, func() { engLog = append(engLog, firing{label, eng.Now()}) })
				hp.At(at, func() { hpLog = append(hpLog, firing{label, hp.Now()}) })
				ref.At(at, func() { refLog = append(refLog, firing{label, ref.Now()}) })
			case 3: // relative one-shot
				d := Time(next(&i))
				label := 1000 + op
				eng.After(d, func() { engLog = append(engLog, firing{label, eng.Now()}) })
				hp.After(d, func() { hpLog = append(hpLog, firing{label, hp.Now()}) })
				ref.After(d, func() { refLog = append(refLog, firing{label, ref.Now()}) })
			case 4: // bounded advance, shifted to cross level boundaries
				until := eng.Now() + Time(next(&i))<<(uint(next(&i))%40)
				eng.RunUntil(until)
				hp.RunUntil(until)
				ref.RunUntil(until)
			case 5: // drain
				eng.Run()
				hp.Run()
				ref.Run()
			}
			if eng.Now() != hp.Now() || eng.Now() != ref.Now() {
				t.Fatalf("op %d: clocks diverged: eng=%d heap=%d ref=%d", op, eng.Now(), hp.Now(), ref.Now())
			}
			if eng.Pending() != hp.Pending() {
				t.Fatalf("op %d: pending diverged: eng=%d heap=%d", op, eng.Pending(), hp.Pending())
			}
		}
		eng.Run()
		hp.Run()
		ref.Run()
		if eng.Now() != hp.Now() || eng.Now() != ref.Now() {
			t.Fatalf("final clocks diverged: eng=%d heap=%d ref=%d", eng.Now(), hp.Now(), ref.Now())
		}
		if len(engLog) != len(hpLog) || len(engLog) != len(refLog) {
			t.Fatalf("firing counts diverged: eng=%d heap=%d ref=%d", len(engLog), len(hpLog), len(refLog))
		}
		for i := range engLog {
			if engLog[i] != hpLog[i] || engLog[i] != refLog[i] {
				t.Fatalf("firing %d diverged: eng=%v heap=%v ref=%v", i, engLog[i], hpLog[i], refLog[i])
			}
		}
	})
}
