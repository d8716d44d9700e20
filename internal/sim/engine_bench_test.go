package sim

import "testing"

// Same-binary A/B of the timing-wheel Engine against the retired
// HeapEngine on the two canonical shapes: Sparse (16 self-rescheduling
// timers, the engine's sorted small-mode regime) and Dense (64 timers
// over a wide horizon, pure wheel mode vs O(log n) sifts). These pairs
// run in one process, so the comparison dodges the cross-binary noise
// that plagues stash-and-rebuild A/Bs.

type benchEngine interface {
	Register(fn func()) Handle
	Reschedule(h Handle, t Time)
	RescheduleAfter(h Handle, d Time)
	Run()
}

func benchTimers(b *testing.B, eng benchEngine, handles int, base, step Time) {
	fired := 0
	hs := make([]Handle, handles)
	for i := 0; i < handles; i++ {
		i := i
		hs[i] = eng.Register(func() {
			fired++
			if fired <= b.N-handles {
				eng.RescheduleAfter(hs[i], base+step*Time(i))
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := range hs {
		eng.Reschedule(hs[i], Time(1+i))
	}
	eng.Run()
	if fired < b.N {
		b.Fatalf("fired %d of %d events", fired, b.N)
	}
}

func BenchmarkWheelSparse(b *testing.B) { benchTimers(b, NewEngine(), 16, 97, 13) }
func BenchmarkHeapSparse(b *testing.B)  { benchTimers(b, NewHeapEngine(), 16, 97, 13) }
func BenchmarkWheelDense(b *testing.B)  { benchTimers(b, NewEngine(), 64, 1500, 97) }
func BenchmarkHeapDense(b *testing.B)   { benchTimers(b, NewHeapEngine(), 64, 1500, 97) }
