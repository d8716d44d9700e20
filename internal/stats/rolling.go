package stats

import "math"

// TimedSample is one (timestamp, value) observation in a rolling window.
// Timestamps are int64 nanoseconds, matching the simulator clock.
type TimedSample struct {
	T int64
	V float64
}

// RollingWindow keeps the samples from the trailing Span nanoseconds.
// It backs three measurement paths from the paper:
//   - rolling 200 ms tail-latency traces (Figs. 1b, 10),
//   - the instantaneous-QPS CDF over a rolling 5 ms window (Fig. 2a),
//   - the PI feedback controller's rolling 1 s measured tail (Sec. 4.2).
//
// Samples must be added in non-decreasing timestamp order.
type RollingWindow struct {
	Span int64
	buf  []TimedSample
	head int
	// scratch backs Percentile's selection so the per-tick feedback
	// measurement is allocation-free in steady state.
	scratch []float64
	// lastQ and last remember Percentile's previous query and answer;
	// warm says they are set. They only steer the search, never the
	// result.
	lastQ, last float64
	warm        bool
}

// percentileBracket is the relative half-width of the bracket around the
// previous answer that Percentile's warm-started search gathers. At the
// paper's operating point the 1 s tail stays inside it from one 100 ms
// tick to the next in about 90% of queries; a miss costs one extra pass,
// never a different answer.
const percentileBracket = 0.1

// NewRollingWindow returns a window covering the trailing span nanoseconds.
func NewRollingWindow(span int64) *RollingWindow {
	return &RollingWindow{Span: span}
}

// Add appends an observation and evicts samples older than T - Span.
func (w *RollingWindow) Add(t int64, v float64) {
	w.buf = append(w.buf, TimedSample{T: t, V: v})
	w.trim(t)
}

// trim drops samples with timestamp <= t-Span and compacts occasionally.
func (w *RollingWindow) trim(t int64) {
	cut := t - w.Span
	for w.head < len(w.buf) && w.buf[w.head].T <= cut {
		w.head++
	}
	if w.head > 1024 && w.head*2 > len(w.buf) {
		n := copy(w.buf, w.buf[w.head:])
		w.buf = w.buf[:n]
		w.head = 0
	}
}

// AdvanceTo evicts samples that fall out of the window as of time t without
// adding a new one.
func (w *RollingWindow) AdvanceTo(t int64) { w.trim(t) }

// Len returns the number of live samples.
func (w *RollingWindow) Len() int { return len(w.buf) - w.head }

// Values returns a copy of the live sample values in arrival order.
func (w *RollingWindow) Values() []float64 {
	out := make([]float64, 0, w.Len())
	for _, s := range w.buf[w.head:] {
		out = append(out, s.V)
	}
	return out
}

// Percentile returns the q-quantile of the live values (0 if empty): the
// same nearest-rank order statistic as Percentile(w.Values(), q), with no
// allocation once the window is warm. Controllers measure their feedback
// tail every tick, so the search is warm-started from the previous answer
// for the same q: one pass counts the values below a ±10% bracket around
// it and gathers the values inside, and when the wanted rank falls inside
// the bracket only the gathered values are selected. Otherwise it copies
// every live value and selects among them. The order statistic is unique,
// so both paths return the same value.
func (w *RollingWindow) Percentile(q float64) float64 {
	n := w.Len()
	if n == 0 {
		return 0
	}
	if cap(w.scratch) < n {
		w.scratch = make([]float64, 0, max(n, 2*cap(w.scratch)))
	}
	live := w.buf[w.head:]
	v, ok := 0.0, false
	if w.warm && q == w.lastQ {
		v, ok = w.bracketed(live, nearestRank(q, n))
	}
	if !ok {
		s := w.scratch[:0]
		for _, smp := range live {
			s = append(s, smp.V)
		}
		v = SelectPercentile(s, q)
	}
	w.lastQ, w.last, w.warm = q, v, true
	return v
}

// bracketed looks for the k-th smallest live value inside the bracket
// around the previous answer; ok is false when it lies outside.
func (w *RollingWindow) bracketed(live []TimedSample, k int) (float64, bool) {
	d := math.Abs(w.last) * percentileBracket
	lo, hi := w.last-d, w.last+d
	below := 0
	s := w.scratch[:0]
	for _, smp := range live {
		if smp.V < lo {
			below++
		} else if smp.V <= hi {
			s = append(s, smp.V)
		}
	}
	if k < below || k >= below+len(s) {
		return 0, false
	}
	return selectKth(s, k-below), true
}

// selectKth returns the k-th smallest element of s (0-based), partially
// reordering s in place. The returned value is the order statistic itself,
// so it is identical to sorting and indexing regardless of pivot choices.
func selectKth(s []float64, k int) float64 {
	lo, hi := 0, len(s)-1
	for lo < hi {
		// Median-of-three pivot: order s[lo], s[mid], s[hi].
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < s[lo] {
			s[mid], s[lo] = s[lo], s[mid]
		}
		if s[hi] < s[lo] {
			s[hi], s[lo] = s[lo], s[hi]
		}
		if s[hi] < s[mid] {
			s[hi], s[mid] = s[mid], s[hi]
		}
		p := s[mid]
		i, j := lo, hi
		for i <= j {
			for s[i] < p {
				i++
			}
			for s[j] > p {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return s[k]
		}
	}
	return s[k]
}

// Mean returns the mean of the live values (0 if empty).
func (w *RollingWindow) Mean() float64 {
	n := w.Len()
	if n == 0 {
		return 0
	}
	var sum float64
	for _, s := range w.buf[w.head:] {
		sum += s.V
	}
	return sum / float64(n)
}

// CountSince returns how many live samples have timestamps in (t-span, t].
// The Fig. 2a instantaneous-QPS measurement uses this with span = 5 ms.
func (w *RollingWindow) CountSince(t, span int64) int {
	cut := t - span
	n := 0
	for i := len(w.buf) - 1; i >= w.head; i-- {
		if w.buf[i].T <= cut {
			break
		}
		if w.buf[i].T <= t {
			n++
		}
	}
	return n
}
