package stats

import (
	"math"
	"math/cmplx"
)

// twiddles builds the flattened per-stage twiddle tables for transforms of
// size n (a power of two): the stage with half-size h (h = 1, 2, 4, ...,
// n/2) occupies [h-1 : 2h-1]; fwd holds the forward (-i) roots, inv the
// inverse (+i) roots. The values come from the same iterated
// w *= exp(i*step) recurrence the naive FFT/IFFT uses, so a planned
// transform starts from the naive path's twiddle bits.
func twiddles(n int) (fwd, inv []complex128) {
	if n < 2 {
		return nil, nil
	}
	fwd = make([]complex128, n-1)
	inv = make([]complex128, n-1)
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := 2 * math.Pi / float64(size)
		wf := complex(1, 0)
		wi := complex(1, 0)
		wfBase := cmplx.Exp(complex(0, -step))
		wiBase := cmplx.Exp(complex(0, step))
		for k := 0; k < half; k++ {
			fwd[half-1+k] = wf
			inv[half-1+k] = wi
			wf *= wfBase
			wi *= wiBase
		}
	}
	return fwd, inv
}

// fftStages runs the radix-2 butterfly cascade over an already
// bit-reversed x, for any power-of-two len(x). The twiddle layout is the
// one twiddles builds (stage with half-size h at tw[h-1:2h-1]); because a
// stage's twiddles exp(±i*pi*k/h) do not depend on the transform size,
// one table built for size n serves every smaller power of two too — the
// packed pipeline's decimated inverse transforms lean on that.
func fftStages(x []complex128, tw []complex128) {
	n := len(x)
	// Every specialization below performs the identical floating-point
	// operations in the identical order as the plain nested loop (including
	// the multiplications by the unit twiddle, whose skipping could flip
	// signed zeros), so results stay bitwise-equal to the naive FFT path —
	// the plan tests assert it.
	if n >= 2 {
		// size == 2: one butterfly per block; a block loop with subslices
		// would spend more time slicing than computing.
		w := tw[0]
		for s := 1; s < n; s += 2 {
			a := x[s-1]
			b := x[s] * w
			x[s-1] = a + b
			x[s] = a - b
		}
	}
	if n >= 4 {
		// size == 4: two butterflies per block, twiddles held in registers.
		w0, w1 := tw[1], tw[2]
		for s := 3; s < n; s += 4 {
			a := x[s-3]
			b := x[s-1] * w0
			x[s-3] = a + b
			x[s-1] = a - b
			a = x[s-2]
			b = x[s] * w1
			x[s-2] = a + b
			x[s] = a - b
		}
	}
	for size := 8; size <= n; size <<= 1 {
		half := size >> 1
		ws := tw[half-1 : 2*half-1]
		for start := 0; start < n; start += size {
			// Per-block subslices let the compiler drop the bounds checks
			// in the butterfly: every index is bounded by len(xa).
			xa := x[start : start+half]
			xb := x[start+half : start+size][:len(xa)]
			wk := ws[:len(xa)]
			for k := range xa {
				a := xa[k]
				b := xb[k] * wk[k]
				xa[k] = a + b
				xb[k] = a - b
			}
		}
	}
}

// PlanSizeFor returns the transform size a chain of count convolutions of
// an s0Len-bucket PMF with an sLen-bucket PMF needs: the smallest power of
// two covering the chain's longest result, as IterConvolutions sizes it.
func PlanSizeFor(s0Len, sLen, count int) int {
	maxLen := s0Len + (count-1)*(sLen-1)
	if maxLen < s0Len {
		maxLen = s0Len
	}
	return nextPow2(maxLen)
}
