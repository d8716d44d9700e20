package stats

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomPMF(r *rand.Rand, n int, origin, width float64) PMF {
	p := make([]float64, n)
	var tot float64
	for i := range p {
		p[i] = r.Float64()
		tot += p[i]
	}
	for i := range p {
		p[i] /= tot
	}
	return PMF{Origin: origin, Width: width, P: p}
}

// planTransform runs one transform the way the packed plan does —
// bit-reversal permutation, then fftStages over a twiddle table — with
// the naive path's 1/n scaling on the inverse.
func planTransform(x []complex128, tw []complex128, inverse bool) {
	n := len(x)
	if n > 1 {
		shift := 64 - uint(bits.TrailingZeros(uint(n)))
		for i := 0; i < n; i++ {
			if j := int(bits.Reverse64(uint64(i)) >> shift); j > i {
				x[i], x[j] = x[j], x[i]
			}
		}
	}
	fftStages(x, tw)
	if inverse {
		invN := complex(1/float64(n), 0)
		for i := range x {
			x[i] *= invN
		}
	}
}

func TestPlanTransformsMatchNaiveBitwise(t *testing.T) {
	// The shared twiddle tables come from the same recurrence as the
	// naive FFT/IFFT, and fftStages keeps its butterfly order, so
	// transforms must agree to the last bit — also at sizes below the
	// table's, which the packed plan's pruned inverses run at.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		size := 1 << r.Intn(11) // 1..1024
		fwd, inv := twiddles(size)
		n := size >> r.Intn(3)
		if n < 1 {
			n = 1
		}
		a := make([]complex128, n)
		b := make([]complex128, n)
		for i := range a {
			a[i] = complex(r.NormFloat64(), r.NormFloat64())
			b[i] = a[i]
		}
		if err := FFT(a); err != nil {
			return false
		}
		planTransform(b, fwd, false)
		for i := range a {
			if !sameBits(real(a[i]), real(b[i])) || !sameBits(imag(a[i]), imag(b[i])) {
				return false
			}
		}
		if err := IFFT(a); err != nil {
			return false
		}
		planTransform(b, inv, true)
		for i := range a {
			if !sameBits(real(a[i]), real(b[i])) || !sameBits(imag(a[i]), imag(b[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}
