package sim

// HeapEngine is the 4-ary min-heap engine the timing wheel replaced,
// retained (like RefEngine) as an executable specification: every
// operation is O(log n) in pending events, but the semantics — (time,
// scheduling sequence) total order, past clamping, phantom drained-clock,
// RunUntilOrDrain boundary — are exactly the contract the wheel must
// reproduce bit for bit. The three-way lockstep property test
// (engine_lockstep_test.go) and FuzzEngineLockstep drive Engine,
// HeapEngine and RefEngine through identical schedules. It lives in a
// test file, so no production build compiles it.
type HeapEngine struct {
	now     Time
	seq     uint64
	heap    []heapEntry
	handles []heapHandleState
	free    []Handle // recycled one-shot handle slots

	// phantom is the latest firing time displaced by Reschedule/Cancel;
	// Run drags the drained clock to it (legacy tombstone drain
	// semantics). See Engine.phantom.
	phantom Time
}

// heapEntry is one scheduled event, by value in the heap slice.
type heapEntry struct {
	at  Time
	seq uint64
	h   Handle
}

type heapHandleState struct {
	fn      func()
	pos     int32 // index into HeapEngine.heap, or unscheduled
	oneShot bool  // slot recycles after firing (At/After events)
}

// NewHeapEngine returns a heap engine with the clock at 0.
func NewHeapEngine() *HeapEngine {
	return &HeapEngine{}
}

// Now returns the current simulated time.
func (e *HeapEngine) Now() Time { return e.now }

// Register reserves a handle firing fn, initially unscheduled.
func (e *HeapEngine) Register(fn func()) Handle {
	return e.register(fn, false)
}

func (e *HeapEngine) register(fn func(), oneShot bool) Handle {
	if n := len(e.free); n > 0 {
		h := e.free[n-1]
		e.free = e.free[:n-1]
		e.handles[h] = heapHandleState{fn: fn, pos: unscheduled, oneShot: oneShot}
		return h
	}
	e.handles = append(e.handles, heapHandleState{fn: fn, pos: unscheduled, oneShot: oneShot})
	return Handle(len(e.handles) - 1)
}

// Reschedule schedules the handle's event at t, moving the pending firing
// if one exists; t < Now clamps to Now. A reschedule counts as a fresh
// scheduling for tie-breaking.
func (e *HeapEngine) Reschedule(h Handle, t Time) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	hs := &e.handles[h]
	if hs.pos != unscheduled {
		i := int(hs.pos)
		if e.heap[i].at > e.phantom {
			e.phantom = e.heap[i].at
		}
		e.heap[i].at = t
		e.heap[i].seq = e.seq
		e.siftDown(e.siftUp(i))
		return
	}
	e.heap = append(e.heap, heapEntry{at: t, seq: e.seq, h: h})
	hs.pos = int32(len(e.heap) - 1)
	e.siftUp(len(e.heap) - 1)
}

// RescheduleAfter schedules the handle's event d nanoseconds from now.
func (e *HeapEngine) RescheduleAfter(h Handle, d Time) {
	e.Reschedule(h, e.now+d)
}

// Cancel clears the handle's pending firing, if any.
func (e *HeapEngine) Cancel(h Handle) {
	hs := &e.handles[h]
	if hs.pos == unscheduled {
		return
	}
	if at := e.heap[hs.pos].at; at > e.phantom {
		e.phantom = at
	}
	e.removeAt(int(hs.pos))
}

// Scheduled reports whether the handle has a pending firing.
func (e *HeapEngine) Scheduled(h Handle) bool {
	return e.handles[h].pos != unscheduled
}

// At schedules fn at t (clamping the past to Now) on a one-shot slot.
func (e *HeapEngine) At(t Time, fn func()) {
	e.Reschedule(e.register(fn, true), t)
}

// After schedules fn to run d nanoseconds from now.
func (e *HeapEngine) After(d Time, fn func()) {
	e.At(e.now+d, fn)
}

// Pending returns the number of scheduled events.
func (e *HeapEngine) Pending() int { return len(e.heap) }

// Step runs the next event, advancing the clock to its timestamp.
func (e *HeapEngine) Step() bool {
	if len(e.heap) == 0 {
		return false
	}
	top := e.heap[0]
	e.removeAt(0)
	e.now = top.at
	hs := &e.handles[top.h]
	fn := hs.fn
	if hs.oneShot {
		hs.fn = nil
		e.free = append(e.free, top.h)
	}
	fn()
	return true
}

// Run executes events until the queue is empty, then drags the clock to
// the latest displaced firing (legacy tombstone drain semantics).
func (e *HeapEngine) Run() {
	for e.Step() {
	}
	if e.now < e.phantom {
		e.now = e.phantom
	}
}

// RunUntil executes events with timestamps <= t, then advances the clock.
func (e *HeapEngine) RunUntil(t Time) {
	for len(e.heap) > 0 && e.heap[0].at <= t {
		e.Step()
	}
	if e.now < t {
		e.now = t
	}
}

// RunUntilOrDrain executes events until the queue drains or the clock
// reaches the deadline t; t <= 0 means no deadline. See
// Engine.RunUntilOrDrain.
func (e *HeapEngine) RunUntilOrDrain(t Time) {
	if t <= 0 {
		e.Run()
		return
	}
	for len(e.heap) > 0 && e.heap[0].at <= t {
		e.Step()
	}
	if len(e.heap) == 0 {
		if e.now < e.phantom {
			e.now = e.phantom
		}
		return
	}
	if e.now < t {
		e.now = t
	}
}

// heapLess orders entries by (time, scheduling order); seq is unique, so
// the order is total and the heap arity cannot affect firing order.
func heapLess(a, b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// removeAt deletes the entry at heap index i, marking its handle
// unscheduled and restoring the heap property around the hole.
func (e *HeapEngine) removeAt(i int) {
	n := len(e.heap) - 1
	e.handles[e.heap[i].h].pos = unscheduled
	if i == n {
		e.heap = e.heap[:n]
		return
	}
	e.heap[i] = e.heap[n]
	e.heap = e.heap[:n]
	e.handles[e.heap[i].h].pos = int32(i)
	e.siftDown(e.siftUp(i))
}

// siftUp moves the entry at index i toward the root until its parent is no
// larger, maintaining handle positions. It returns the final index.
func (e *HeapEngine) siftUp(i int) int {
	ev := e.heap[i]
	for i > 0 {
		p := (i - 1) / 4
		if !heapLess(ev, e.heap[p]) {
			break
		}
		e.heap[i] = e.heap[p]
		e.handles[e.heap[i].h].pos = int32(i)
		i = p
	}
	e.heap[i] = ev
	e.handles[ev.h].pos = int32(i)
	return i
}

// siftDown moves the entry at index i toward the leaves until no child is
// smaller, maintaining handle positions.
func (e *HeapEngine) siftDown(i int) {
	n := len(e.heap)
	ev := e.heap[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if heapLess(e.heap[c], e.heap[best]) {
				best = c
			}
		}
		if !heapLess(e.heap[best], ev) {
			break
		}
		e.heap[i] = e.heap[best]
		e.handles[e.heap[i].h].pos = int32(i)
		i = best
	}
	e.heap[i] = ev
	e.handles[ev.h].pos = int32(i)
}
