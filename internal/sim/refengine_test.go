package sim

import "container/heap"

// RefEngine is the original container/heap engine, retained as an
// executable specification of the event semantics: boxed events, a fresh
// closure per scheduling, and generation-counter tombstones standing in for
// handle moves. The lockstep property test (engine_lockstep_test.go) drives
// RefEngine and Engine through identical schedules and asserts identical
// firing order and clocks. It lives in a test file, so no production
// build compiles it.
type RefEngine struct {
	now  Time
	heap refEventHeap
	seq  uint64

	handles []refHandle
}

// refHandle emulates Engine handles the pre-handle way: every Reschedule
// pushes a fresh closure and bumps the generation, leaving the stale event
// in the heap as a tombstone that fires as a no-op.
type refHandle struct {
	fn        func()
	gen       uint64
	scheduled bool
}

type refEvent struct {
	at  Time
	seq uint64
	fn  func()
}

type refEventHeap []refEvent

func (h refEventHeap) Len() int { return len(h) }
func (h refEventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refEventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refEventHeap) Push(x any)   { *h = append(*h, x.(refEvent)) }
func (h *refEventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// NewRefEngine returns a reference engine with the clock at 0.
func NewRefEngine() *RefEngine {
	return &RefEngine{}
}

// Now returns the current simulated time.
func (e *RefEngine) Now() Time { return e.now }

// At schedules fn at t, clamping the past to Now.
func (e *RefEngine) At(t Time, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	heap.Push(&e.heap, refEvent{at: t, seq: e.seq, fn: fn})
}

// After schedules fn d nanoseconds from now.
func (e *RefEngine) After(d Time, fn func()) {
	e.At(e.now+d, fn)
}

// Register reserves a handle firing fn, mirroring Engine.Register.
func (e *RefEngine) Register(fn func()) Handle {
	e.handles = append(e.handles, refHandle{fn: fn})
	return Handle(len(e.handles) - 1)
}

// Reschedule mirrors Engine.Reschedule via generation tombstones: the old
// pending event (if any) is invalidated and a fresh closure is pushed.
func (e *RefEngine) Reschedule(h Handle, t Time) {
	hs := &e.handles[h]
	hs.gen++
	hs.scheduled = true
	gen := hs.gen
	e.At(t, func() {
		if e.handles[h].gen != gen {
			return // superseded
		}
		e.handles[h].scheduled = false
		e.handles[h].fn()
	})
}

// RescheduleAfter schedules the handle's event d nanoseconds from now.
func (e *RefEngine) RescheduleAfter(h Handle, d Time) {
	e.Reschedule(h, e.now+d)
}

// Cancel mirrors Engine.Cancel: the pending firing (if any) is tombstoned.
func (e *RefEngine) Cancel(h Handle) {
	e.handles[h].gen++
	e.handles[h].scheduled = false
}

// Scheduled reports whether the handle has a pending (non-tombstoned)
// firing.
func (e *RefEngine) Scheduled(h Handle) bool {
	return e.handles[h].scheduled
}

// Step runs the next event; tombstones fire as no-ops, exactly as the
// pre-handle simulators behaved.
func (e *RefEngine) Step() bool {
	if len(e.heap) == 0 {
		return false
	}
	ev := heap.Pop(&e.heap).(refEvent)
	e.now = ev.at
	ev.fn()
	return true
}

// Run executes events until the queue is empty.
func (e *RefEngine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with timestamps <= t, then advances the clock.
func (e *RefEngine) RunUntil(t Time) {
	for len(e.heap) > 0 && e.heap[0].at <= t {
		e.Step()
	}
	if e.now < t {
		e.now = t
	}
}
