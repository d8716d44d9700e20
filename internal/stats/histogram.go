package stats

import (
	"fmt"
	"math"
)

// Histogram is a streaming profiler over a sliding window of the most
// recent Capacity() samples: a ring buffer with a wrapping write index.
// Push is constant-time and division-free; PMFInto finds the window
// extrema and bins the window into a caller-owned PMF in two linear
// passes over the ring's (at most) two contiguous segments, without
// allocating.
//
// It replaces the append-then-copy sample slices on Rubik's profiling path:
// those cost O(HistoryCap) per completion once the window is full (the
// trim copies the whole window) and a fresh sort/scan plus allocation per
// table rebuild. The histogram's window semantics are identical — the most
// recent Capacity() accepted samples — and PMFInto is bitwise-equal to
// NewPMFFromSamples over the same window, so swapping it in changes no
// simulation results.
type Histogram struct {
	buf  []float64
	next int // ring slot the next sample overwrites: the oldest once full
	n    int // samples in the window
}

// NewHistogram returns a histogram over a window of the given capacity.
// A non-positive capacity yields a histogram that rejects every sample,
// mirroring a zero-length sample window.
func NewHistogram(capacity int) *Histogram {
	if capacity < 0 {
		capacity = 0
	}
	return &Histogram{buf: make([]float64, capacity)}
}

// Capacity returns the window capacity.
func (h *Histogram) Capacity() int { return len(h.buf) }

// Len returns the number of samples currently in the window.
func (h *Histogram) Len() int { return h.n }

// Push ingests one sample, evicting the oldest when the window is full.
// Non-finite samples are rejected (reported false) so the window always
// bins cleanly; NewPMFFromSamples treats them as input errors instead,
// which a per-completion streaming path cannot afford to surface.
func (h *Histogram) Push(v float64) bool {
	if len(h.buf) == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return false
	}
	h.buf[h.next] = v
	h.next++
	if h.next == len(h.buf) {
		h.next = 0
	}
	if h.n < len(h.buf) {
		h.n++
	}
	return true
}

// segments returns the window as two contiguous runs of the ring, oldest
// first: older then newer. Until the ring first wraps, next == n and older
// is empty.
func (h *Histogram) segments() (older, newer []float64) {
	return h.buf[h.next:h.n], h.buf[:h.next]
}

// extrema returns the window's smallest and largest samples (0, 0 when
// empty). Values that compare equal resolve to the newest sample, so a
// window holding both -0 and +0 reports the sign of the later one, the
// same tie rule as NewPMFFromSamples.
func (h *Histogram) extrema() (lo, hi float64) {
	if h.n == 0 {
		return 0, 0
	}
	lo, hi = math.Inf(1), math.Inf(-1) // every stored sample is finite
	older, newer := h.segments()
	for _, seg := range [2][]float64{older, newer} {
		for _, s := range seg {
			if s <= lo {
				lo = s
			}
			if s >= hi {
				hi = s
			}
		}
	}
	return lo, hi
}

// Snapshot appends the window's samples, oldest first, to dst and returns
// the result. Pass nil to get a fresh copy.
func (h *Histogram) Snapshot(dst []float64) []float64 {
	older, newer := h.segments()
	dst = append(dst, older...)
	return append(dst, newer...)
}

// PMFInto bins the window into dst, reusing dst.P's backing array when its
// capacity allows. The result is bitwise-identical to NewPMFFromSamples
// over the same window (same [min, max] span, same bucket assignment, same
// degenerate single-bucket case), so the streaming profiler can replace the
// sample-slice path without perturbing any downstream decision. With a
// warm destination it performs zero allocations.
func (h *Histogram) PMFInto(dst *PMF, nbuckets int) error {
	n := h.Len()
	if n == 0 {
		return fmt.Errorf("stats: no samples")
	}
	if nbuckets <= 0 {
		return fmt.Errorf("stats: nbuckets must be positive, got %d", nbuckets)
	}
	lo, hi := h.extrema()
	if hi == lo {
		p := dst.P
		if cap(p) < 1 {
			p = make([]float64, 1)
		} else {
			p = p[:1]
		}
		p[0] = 1
		*dst = PMF{Origin: lo, Width: 1, P: p}
		return nil
	}
	w := (hi - lo) / float64(nbuckets)
	if err := checkWidth(lo, hi, w, nbuckets); err != nil {
		return err
	}
	p := dst.P
	if cap(p) < nbuckets {
		p = make([]float64, nbuckets)
	} else {
		p = p[:nbuckets]
		for i := range p {
			p[i] = 0
		}
	}
	inc := 1 / float64(n)
	older, newer := h.segments()
	for _, seg := range [2][]float64{older, newer} {
		for _, s := range seg {
			k := int((s - lo) / w)
			if k >= nbuckets { // s == hi lands one past the end
				k = nbuckets - 1
			}
			p[k] += inc
		}
	}
	*dst = PMF{Origin: lo, Width: w, P: p}
	return nil
}
