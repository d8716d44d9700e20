package stats

import (
	"encoding/binary"
	"math"
	"testing"
)

// fuzzValues decodes a byte string into float64 observations, 8 bytes per
// value, skipping NaNs (Observe's ordering comparisons are meaningless on
// NaN) but keeping infinities, negatives, zeros and denormals — the
// histogram must route all of them to a bucket without panicking.
func fuzzValues(data []byte) []float64 {
	vals := make([]float64, 0, len(data)/8)
	for len(data) >= 8 {
		v := math.Float64frombits(binary.LittleEndian.Uint64(data))
		data = data[8:]
		if math.IsNaN(v) {
			continue
		}
		vals = append(vals, v)
	}
	return vals
}

// fuzzPMF decodes a byte string into a unit-mass PMF with up to 130
// buckets: 8 bytes per weight, non-finite values skipped, magnitudes
// folded to [0, 1e12] so the total stays finite, and an all-zero decode
// collapsed to a single-bucket delta (the degenerate profile shape).
func fuzzPMF(data []byte, origin, width float64) PMF {
	var p []float64
	for len(data) >= 8 && len(p) < 130 {
		v := math.Abs(math.Float64frombits(binary.LittleEndian.Uint64(data)))
		data = data[8:]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		if v > 1e12 {
			v = math.Mod(v, 1e12)
		}
		p = append(p, v)
	}
	var tot float64
	for _, v := range p {
		tot += v
	}
	if len(p) == 0 || tot == 0 {
		p = []float64{1}
		tot = 1
	}
	for i := range p {
		p[i] /= tot
	}
	return PMF{Origin: origin, Width: width, P: p}
}

// FuzzPackedConvolution fuzzes the packed real-FFT pipeline against the
// reference convolutions: for arbitrary unit-mass PMF pairs (mismatched
// lengths, degenerate single buckets, extreme weight ratios) both chains
// of one packed pass must reproduce IterConvolutions within the packed
// error bound, with bitwise-identical row geometry.
func FuzzPackedConvolution(f *testing.F) {
	seed := func(vals ...float64) []byte {
		b := make([]byte, 0, 8*len(vals))
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	// Degenerate single-bucket chain against a spread chain.
	f.Add(seed(1), seed(0.25, 0.5, 0.25), byte(7))
	// Mismatched lengths with uneven mass.
	f.Add(seed(0.1, 0.9), seed(0.2, 0.3, 0.1, 0.4, 0.05, 0.6, 0.7), byte(15))
	// Both degenerate.
	f.Add(seed(3), seed(42), byte(1))
	// Extreme dynamic range within one PMF.
	f.Add(seed(1e-12, 1, 1e12, 1e-300), seed(5, 5, 5, 5, 5), byte(19))

	f.Fuzz(func(t *testing.T, a, b []byte, countByte byte) {
		c := fuzzPMF(a, 2, 0.5)
		m := fuzzPMF(b, 1, 0.75)
		count := 1 + int(countByte)%20
		wantC, err := IterConvolutions(c, c, count)
		if err != nil {
			t.Fatal(err)
		}
		wantM, err := IterConvolutions(m, m, count)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := NewPackedConvolutionPlan(PackedPlanSizeFor(len(c.P), len(m.P), count))
		if err != nil {
			t.Fatal(err)
		}
		gotC := make([]PMF, count)
		gotM := make([]PMF, count)
		if err := plan.IterSelfConvolutionsInto(gotC, gotM, c, m); err != nil {
			t.Fatal(err)
		}
		for chain, pair := range map[string][2][]PMF{"C": {gotC, wantC}, "M": {gotM, wantM}} {
			got, want := pair[0], pair[1]
			for i := range want {
				if got[i].Origin != want[i].Origin || got[i].Width != want[i].Width ||
					len(got[i].P) != len(want[i].P) {
					t.Fatalf("%s row %d geometry mismatch: %+v vs %+v", chain, i, got[i], want[i])
				}
				scale := 0.0
				for _, v := range want[i].P {
					if v > scale {
						scale = v
					}
				}
				if scale == 0 {
					scale = 1
				}
				for k := range want[i].P {
					if diff := math.Abs(got[i].P[k] - want[i].P[k]); diff > 1e-9*scale {
						t.Fatalf("%s row %d entry %d: packed %v reference %v (rel err %v)",
							chain, i, k, got[i].P[k], want[i].P[k], diff/scale)
					}
				}
			}
		}
	})
}

// FuzzLogHistogramMerge fuzzes the streaming response-latency histogram
// with two arbitrary observation streams and checks the merge contract:
// counts are conserved exactly (total, underflow and overflow mass —
// FracAbove exposes the tail mass), merging is order-independent, and
// quantiles remain monotone in q and within the observed value range.
func FuzzLogHistogramMerge(f *testing.F) {
	seed := func(vals ...float64) []byte {
		b := make([]byte, 0, 8*len(vals))
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(seed(150, 1e3, 2.5e6), seed(99, 1e12, 7e8))
	f.Add(seed(), seed(1))
	f.Add(seed(-4, 0, math.Inf(1)), seed(math.Inf(-1), 1e300))
	f.Add(seed(100, 100, 100), seed(100))

	f.Fuzz(func(t *testing.T, a, b []byte) {
		va, vb := fuzzValues(a), fuzzValues(b)
		ha, hb := NewResponseHistogram(), NewResponseHistogram()
		for _, v := range va {
			ha.Observe(v)
		}
		for _, v := range vb {
			hb.Observe(v)
		}
		if ha.Count() != uint64(len(va)) || hb.Count() != uint64(len(vb)) {
			t.Fatalf("observe miscounted: %d/%d vs %d/%d", ha.Count(), len(va), hb.Count(), len(vb))
		}

		merged := NewResponseHistogram()
		if err := merged.Merge(ha); err != nil {
			t.Fatal(err)
		}
		if err := merged.Merge(hb); err != nil {
			t.Fatal(err)
		}
		if got, want := merged.Count(), uint64(len(va)+len(vb)); got != want {
			t.Fatalf("merge dropped mass: count %d, want %d", got, want)
		}

		// Order independence: b then a lands on the identical histogram.
		rev := NewResponseHistogram()
		if err := rev.Merge(hb); err != nil {
			t.Fatal(err)
		}
		if err := rev.Merge(ha); err != nil {
			t.Fatal(err)
		}
		for _, q := range []float64{0, 0.25, 0.5, 0.95, 1} {
			if merged.Quantile(q) != rev.Quantile(q) {
				t.Fatalf("merge not order-independent at q=%v", q)
			}
		}

		// Tail mass is conserved bucket-exactly: the fraction above any
		// probe scales as the count-weighted mean of the parts.
		for _, probe := range []float64{50, 1e4, 1e9, 2e12} {
			na, nb := float64(ha.Count()), float64(hb.Count())
			if na+nb == 0 {
				break
			}
			want := (ha.FracAbove(probe)*na + hb.FracAbove(probe)*nb) / (na + nb)
			if got := merged.FracAbove(probe); math.Abs(got-want) > 1e-12 {
				t.Fatalf("tail mass not conserved at %g: got %v want %v", probe, got, want)
			}
		}

		if merged.Count() == 0 {
			if q := merged.Quantile(0.5); q != 0 {
				t.Fatalf("empty histogram quantile %v", q)
			}
			return
		}
		// Quantiles are monotone in q...
		qs := []float64{0, 0.01, 0.1, 0.5, 0.9, 0.95, 0.99, 0.999, 1}
		prev := math.Inf(-1)
		for _, q := range qs {
			v := merged.Quantile(q)
			if v < prev {
				t.Fatalf("quantiles not monotone: q=%v gives %v after %v", q, v, prev)
			}
			prev = v
		}
		// ...and stay inside the histogram's representable range.
		if lo, hi := merged.Quantile(0), merged.Quantile(1); lo < 100 || hi > 1e12*1.1 {
			t.Fatalf("quantile outside geometry: [%v, %v]", lo, hi)
		}
	})
}

// FuzzHistogramWindow drives the streaming profiler with arbitrary pushes
// (NaN, ±Inf, negatives, ±0, duplicates, raw bit patterns) at capacities
// 1–64, so window extrema are evicted in every order. After every push
// the histogram must agree with a naive copy of its window: Len, the
// extrema (ties to the newest sample, so ±0 keeps its sign), Snapshot,
// and PMFInto bitwise equal to NewPMFFromSamples, errors included.
func FuzzHistogramWindow(f *testing.F) {
	// Ops: 0 NaN, 1 +Inf, 2 -Inf, 3 +0, 4 -0, 5 repeat the last value,
	// 6 the next 8 bytes as raw bits, 7 a small signed integer.
	f.Add(byte(4), byte(16), []byte{3, 4, 3, 4, 7, 0x80, 4, 3, 5, 5})
	f.Add(byte(1), byte(1), []byte{0, 1, 2, 3, 4, 7, 5})
	f.Add(byte(8), byte(127), []byte{7, 0x7f, 7, 2, 7, 3, 5, 7, 0x81, 7, 0x81, 7, 9, 7, 9, 7, 9, 7, 9})
	// Spans whose bucket width underflows to 0 (a denormal over +0) or
	// overflows to +Inf (±1e308): both binners must refuse them.
	raw := func(vals ...float64) []byte {
		var b []byte
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(append(b, 6), math.Float64bits(v))
		}
		return b
	}
	f.Add(byte(63), byte(127), append(raw(5e-324), 3))
	f.Add(byte(2), byte(127), raw(-1e308, 1e308, 1e308))

	f.Fuzz(func(t *testing.T, capByte, bucketByte byte, ops []byte) {
		capacity := 1 + int(capByte)%64
		nbuckets := 1 + int(bucketByte)%140
		h := NewHistogram(capacity)
		var window []float64 // accepted samples, oldest first
		var dst PMF
		last := 1.0
		for len(ops) > 0 {
			op := ops[0]
			ops = ops[1:]
			var v float64
			switch op % 8 {
			case 0:
				v = math.NaN()
			case 1:
				v = math.Inf(1)
			case 2:
				v = math.Inf(-1)
			case 3:
				v = 0
			case 4:
				v = math.Copysign(0, -1)
			case 5:
				v = last
			case 6:
				if len(ops) < 8 {
					return
				}
				v = math.Float64frombits(binary.LittleEndian.Uint64(ops))
				ops = ops[8:]
			case 7:
				if len(ops) == 0 {
					return
				}
				v = float64(int8(ops[0]))
				ops = ops[1:]
			}
			last = v
			finite := !math.IsNaN(v) && !math.IsInf(v, 0)
			if got := h.Push(v); got != finite {
				t.Fatalf("Push(%v) = %v, want %v", v, got, finite)
			}
			if finite {
				window = append(window, v)
				if len(window) > capacity {
					window = window[1:]
				}
			}
			if h.Len() != len(window) {
				t.Fatalf("Len %d, want %d", h.Len(), len(window))
			}
			var lo, hi float64
			if len(window) > 0 {
				lo, hi = window[0], window[0]
			}
			for _, s := range window {
				if s <= lo {
					lo = s
				}
				if s >= hi {
					hi = s
				}
			}
			if gotLo, gotHi := h.extrema(); !sameBits(gotLo, lo) || !sameBits(gotHi, hi) {
				t.Fatalf("extrema (%v, %v), want (%v, %v) over %v", gotLo, gotHi, lo, hi, window)
			}
			snap := h.Snapshot(nil)
			if len(snap) != len(window) {
				t.Fatalf("snapshot %v, want %v", snap, window)
			}
			for i := range window {
				if !sameBits(snap[i], window[i]) {
					t.Fatalf("snapshot %v, want %v", snap, window)
				}
			}
			want, wantErr := NewPMFFromSamples(window, nbuckets)
			gotErr := h.PMFInto(&dst, nbuckets)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("PMFInto error %v, NewPMFFromSamples error %v over %v", gotErr, wantErr, window)
			}
			if wantErr != nil {
				continue
			}
			if !sameBits(dst.Origin, want.Origin) || !sameBits(dst.Width, want.Width) || len(dst.P) != len(want.P) {
				t.Fatalf("PMF geometry (%v, %v, %d), want (%v, %v, %d)",
					dst.Origin, dst.Width, len(dst.P), want.Origin, want.Width, len(want.P))
			}
			for k := range want.P {
				if !sameBits(dst.P[k], want.P[k]) {
					t.Fatalf("bucket %d: %v, want %v", k, dst.P[k], want.P[k])
				}
			}
		}
	})
}
