package core

import (
	"math"
	"testing"

	"rubik/internal/queueing"
	"rubik/internal/sim"
)

// fuzzCycles maps a byte to a compute-cycle sample: NaN, negative,
// +Inf, near-overflow, zero, or a plausible value.
func fuzzCycles(b byte) float64 {
	switch b % 8 {
	case 0:
		return math.NaN()
	case 1:
		return -1e3 * float64(1+b)
	case 2:
		return math.Inf(1)
	case 3:
		return math.MaxFloat64 / float64(1+b>>3)
	case 4:
		return 0
	default:
		return 1e4 * float64(1+b)
	}
}

// fuzzMemNs maps a byte to a memory-time sample: negative, near the
// largest sim.Time, zero, or a plausible value.
func fuzzMemNs(b byte) sim.Time {
	switch b % 4 {
	case 0:
		return -sim.Time(1 + b)
	case 1:
		return math.MaxInt64 - sim.Time(b)
	case 2:
		return 0
	default:
		return 100 * sim.Time(1+b)
	}
}

// checkTableEntries fails unless every explicit entry of tbl is finite
// and no entry decreases with queue position within its row.
func checkTableEntries(t *testing.T, tbl *TailTable) {
	t.Helper()
	if tbl == nil {
		return
	}
	for row := 0; row < tbl.Rows(); row++ {
		prevC, prevM := math.Inf(-1), math.Inf(-1)
		for i := 0; i < tbl.MaxQueue; i++ {
			c, m := tbl.Lookup(row, i)
			if math.IsNaN(c) || math.IsInf(c, 0) || math.IsNaN(m) || math.IsInf(m, 0) {
				t.Fatalf("entry (%d,%d) = (%v,%v) is not finite", row, i, c, m)
			}
			if c < prevC || m < prevM {
				t.Fatalf("entry (%d,%d) = (%v,%v) decreases from (%v,%v)", row, i, c, m, prevC, prevM)
			}
			prevC, prevM = c, m
		}
	}
}

// FuzzRubikController drives one controller through arbitrary
// interleavings of completions (NaN, negative, infinite and huge compute
// cycles and memory times among them), decisions over queues up to 20
// deep, ticks that refresh the tables, and idle gaps. It must never
// panic, every frequency it returns must be a grid step, the slack it
// predicts must be a non-negative number, and after every tick the
// table's entries must be finite and non-decreasing in queue position
// within each row.
func FuzzRubikController(f *testing.F) {
	f.Add([]byte{0x00, 0x00, 5, 3, 0x04, 6, 7, 0x08, 13, 11, 0x02, 0x01, 4, 9, 0x02, 0x01, 20, 3})
	f.Add([]byte{0x01, 0x00, 0, 0, 0x00, 1, 1, 0x00, 2, 2, 0x00, 3, 3, 0x00, 4, 4, 0x02, 0x01, 12, 200})
	f.Add([]byte{0x00, 0x00, 5, 3, 0x00, 13, 7, 0x00, 21, 11, 0x00, 29, 15, 0x00, 37, 19,
		0x00, 45, 23, 0x00, 53, 27, 0x00, 61, 31, 0x02, 0x01, 16, 2, 0x03, 255, 0x02, 0x01, 0, 0})
	f.Add([]byte{0x00, 0x00, 11, 3, 0x00, 11, 1, 0x00, 11, 0, 0x00, 11, 2, 0x00, 3, 3,
		0x00, 11, 3, 0x00, 11, 3, 0x00, 11, 3, 0x02, 0x01, 19, 17, 0x01, 0, 9, 0x02})
	// One math.MaxFloat64 compute sample after memory times near the
	// largest sim.Time: before samples above maxSample were rejected,
	// column 1 of this window summed to +Inf.
	f.Add([]byte("00710710710710710710710\x0312"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 || len(data) > 512 {
			return
		}
		cfg := DefaultConfig(500_000)
		cfg.MinSamples = 8
		cfg.HistoryCap = 64
		if data[0]&1 != 0 {
			cfg.DriftThreshold = 0.05
		}
		r, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		grid := cfg.Grid
		onGrid := func(what string, mhz int) {
			if grid.Index(mhz) < 0 {
				t.Fatalf("%s returned %d MHz, not a grid step", what, mhz)
			}
		}
		now := sim.Time(1)
		queue := make([]queueing.QueuedRequest, 20)
		view := queueing.View{Now: now, CurrentMHz: grid.Step(0), TargetMHz: grid.Step(0)}
		for pos := 1; pos < len(data); pos++ {
			switch data[pos] % 4 {
			case 0: // one completion
				if pos+2 >= len(data) {
					return
				}
				resp := 1000 * sim.Time(1+data[pos+1])
				now += resp
				r.ObserveCompletion(queueing.Completion{
					Arrival: now - resp, Start: now - resp, Done: now,
					ComputeCycles: fuzzCycles(data[pos+1]),
					MemTime:       fuzzMemNs(data[pos+2]),
					ResponseNs:    float64(resp),
					ServiceNs:     float64(resp),
				})
				pos += 2
			case 1: // a decision over a queue of depth 0-20
				if pos+2 >= len(data) {
					return
				}
				depth, spread := int(data[pos+1])%21, sim.Time(data[pos+2])
				for k := 0; k < depth; k++ {
					queue[k].Arrival = now - sim.Time(depth-k)*spread*1000
				}
				mhz := grid.Step(int(data[pos+2]) % grid.Len())
				view = queueing.View{
					Now: now, CurrentMHz: mhz, TargetMHz: mhz,
					Queue:             queue[:depth],
					HeadElapsedCycles: 1e4 * float64(data[pos+1]),
				}
				onGrid("OnEvent", r.OnEvent(view))
				if s := r.PredictedSlackNs(view); !(s >= 0) {
					t.Fatalf("PredictedSlackNs = %v, want a non-negative number", s)
				}
				pos += 2
			case 2: // a tick: table refresh and feedback
				now += cfg.UpdatePeriod
				view.Now = now
				onGrid("OnTick", r.OnTick(view))
				checkTableEntries(t, r.Table())
			default: // an idle gap
				if pos+1 >= len(data) {
					return
				}
				now += sim.Time(data[pos+1]) * sim.Millisecond
				pos++
			}
		}
	})
}
