package stats

import (
	"fmt"
	"math/bits"
)

// PackedConvolutionPlan is the packed real-FFT pipeline behind the tail
// table rebuild. The rebuild's two convolution chains (compute cycles and
// memory time) are self-convolutions of *purely real* PMFs, which a plain
// complex FFT would transform as full complex signals with identically
// zero imaginary parts — half the arithmetic moves zeros around. The
// packed plan exploits realness twice:
//
//   - Pair packing. Both chains share one transform grid, so the two
//     input PMFs ride one complex signal z = distC + i*distM: a single
//     forward FFT yields both spectra, split by conjugate symmetry
//     (spectra of real signals are Hermitian, X[n-k] = conj(X[k])), and
//     each row's two inverse transforms fuse into one — the inverse of
//     specC_row + i*specM_row carries the real C row in its real part and
//     the M row in its imaginary part.
//
//   - Hermitian half-spectra. Because every spectrum in the pipeline is
//     Hermitian (pointwise products of Hermitian sequences stay
//     Hermitian), the per-row power step acc[k] *= spec[k] and the
//     spectrum storage keep only the n/2+1 non-redundant bins, halving
//     the pointwise work and memory traffic.
//
// On top of the symmetry tricks the plan prunes each row's inverse
// transform to the smallest power of two covering that row's output:
// row i of the chain has exact support len0 + i*(len0-1) <= n, so
// decimating the accumulated spectrum by n/ni and inverting at size ni
// aliases the signal mod ni — exact for a signal that fits in ni. Early
// rows invert at 1/16th the full transform size.
//
// Net transform count for the paper-shape rebuild (128 buckets, 16 queue
// positions, two chains): 36 full-size complex transforms for two
// independent complex chains vs 1 forward + 16 size-pruned inverses here.
//
// A plan is built for a capacity, the largest transform it holds, and
// each Forward transforms at the size its own chain count needs (see
// PackedPlanSizeFor), so one plan serves every shorter or narrower chain
// pair. A transform at a given size carries the same bits on any plan
// whose capacity covers it: stage twiddles do not depend on the
// transform size.
//
// Packed butterflies and pruned inverses round differently from the
// naive IterConvolutions at the ulp level, and so do two transform sizes
// of the same chain. Results agree with the naive chains within a tight
// relative error bound (see the property and fuzz tests: ~1e-12 of each
// row's total mass, contract <= 1e-9), and the pipeline is fully
// deterministic — same inputs and count, same bits, on every run and
// every shard.
//
// A plan owns its scratch buffers and is therefore NOT safe for
// concurrent use; each table builder holds its own.
type PackedConvolutionPlan struct {
	// n is the capacity: every buffer below is sized for an n-point
	// transform.
	n int
	// Flattened per-stage twiddles (see twiddles: stage with half-size h
	// at [h-1 : 2h-1]). Twiddles depend only on the
	// stage, not the transform size, so the same tables drive every
	// forward size and every pruned inverse size.
	fwd, inv []complex128
	// revs caches one bit-reversal permutation per transform size used
	// (each forward size plus each pruned inverse size), built on first
	// use so steady-state rebuilds allocate nothing.
	revs map[int][]int
	// Half-spectra (size/2+1 of their n/2+1 bins in use): specC/specM
	// hold the forward spectra of the two inputs, accC/accM the
	// accumulated per-row spectra.
	specC, specM, accC, accM []complex128
	// z is the complex scratch: the packed signal during the forward
	// transform, then each row's fused inverse input/output.
	z []complex128

	// Chain state set by Forward: the forward transform size, the row
	// count, the next row RowInto may emit (the accumulators hold that
	// row's spectrum), and the input geometry the rows' supports and
	// origins derive from.
	size            int
	count, row      int
	nc, nm          int
	originC, widthC float64
	originM, widthM float64
}

// NewPackedConvolutionPlan builds a packed plan for transforms of up to n
// points (a power of two).
func NewPackedConvolutionPlan(n int) (*PackedConvolutionPlan, error) {
	if n < 1 || n&(n-1) != 0 {
		return nil, fmt.Errorf("stats: packed plan size %d is not a power of two", n)
	}
	p := &PackedConvolutionPlan{
		n:     n,
		revs:  map[int][]int{},
		specC: make([]complex128, n/2+1),
		specM: make([]complex128, n/2+1),
		accC:  make([]complex128, n/2+1),
		accM:  make([]complex128, n/2+1),
		z:     make([]complex128, n),
	}
	p.fwd, p.inv = twiddles(n)
	return p, nil
}

// Size returns the plan's capacity: the largest transform size Forward
// accepts.
func (p *PackedConvolutionPlan) Size() int { return p.n }

// revFor returns the bit-reversal permutation for transform size m,
// building and caching it on first use.
func (p *PackedConvolutionPlan) revFor(m int) []int {
	if rev, ok := p.revs[m]; ok {
		return rev
	}
	rev := make([]int, m)
	if m > 1 {
		shift := 64 - uint(bits.TrailingZeros(uint(m)))
		for i := 0; i < m; i++ {
			rev[i] = int(bits.Reverse64(uint64(i)) >> shift)
		}
	}
	p.revs[m] = rev
	return rev
}

// PackedPlanSizeFor returns the unified transform size the packed
// pipeline uses for the pair of self-convolution chains of a cLen-bucket
// and an mLen-bucket PMF over count queue positions — the size Forward
// transforms at, and the least capacity to pass to
// NewPackedConvolutionPlan for that chain pair. It is the larger of the two per-chain
// PlanSizeFor sizes, so a degenerate (e.g. single-bucket) chain rides
// the other chain's grid.
func PackedPlanSizeFor(cLen, mLen, count int) int {
	nc := PlanSizeFor(cLen, cLen, count)
	nm := PlanSizeFor(mLen, mLen, count)
	if nm > nc {
		return nm
	}
	return nc
}

// IterSelfConvolutionsInto computes both of the rebuild's convolution
// chains in one packed pass: dstC[i] receives the distribution of
// c + i-fold sum of c, dstM[i] the distribution of m + i-fold sum of m,
// for i = 0..len(dstC)-1 — the packed counterpart of one
// IterConvolutionsInto(dstC, c, c) plus one IterConvolutionsInto(dstM,
// m, m). The two PMFs need not share lengths or widths (the chains are
// independent; they only share transforms). Destination backing arrays
// are reused when capacity allows; with warm buffers the call performs
// zero allocations. The plan's capacity must cover
// PackedPlanSizeFor(len(c.P), len(m.P), len(dstC)).
//
// It is Forward followed by RowInto for every row, so its results are
// bitwise those of the two steps driven row by row. They match the naive
// IterConvolutions chains within the packed pipeline's relative error
// bound; they are not bitwise-equal to them (see the type comment).
func (p *PackedConvolutionPlan) IterSelfConvolutionsInto(dstC, dstM []PMF, c, m PMF) error {
	if len(dstM) != len(dstC) {
		return fmt.Errorf("stats: IterSelfConvolutions dst lengths differ: %d vs %d", len(dstC), len(dstM))
	}
	if err := p.Forward(c, m, len(dstC)); err != nil {
		return err
	}
	for i := range dstC {
		if err := p.RowInto(i, &dstC[i], &dstM[i]); err != nil {
			return err
		}
	}
	return nil
}

// Forward is the shared step of a chain pair: it packs the two real
// inputs into one complex signal, takes the single forward transform at
// size PackedPlanSizeFor(len(c.P), len(m.P), count) and splits it into
// the two Hermitian half-spectra, leaving the chains positioned at row 0
// of count. That size must not exceed the plan's capacity; the rows are
// bitwise those of a plan built at exactly that size. The plan keeps
// the inputs' geometry (not their buckets), so c and m may be reused
// once Forward returns. Calling Forward again restarts the chains.
func (p *PackedConvolutionPlan) Forward(c, m PMF, count int) error {
	if count <= 0 {
		return fmt.Errorf("stats: IterSelfConvolutions count must be positive")
	}
	if len(c.P) == 0 || len(m.P) == 0 {
		return fmt.Errorf("stats: IterSelfConvolutions empty PMF")
	}
	n := PackedPlanSizeFor(len(c.P), len(m.P), count)
	if n > p.n {
		return fmt.Errorf("stats: chain pair needs a %d-point transform, packed plan holds %d", n, p.n)
	}
	p.size, p.count, p.row = n, count, 0
	p.nc, p.nm = len(c.P), len(m.P)
	p.originC, p.widthC = c.Origin, c.Width
	p.originM, p.widthM = m.Origin, m.Width

	// Pack both real inputs into one complex signal z = c + i*m and take
	// a single forward transform.
	z := p.z[:n]
	for i := range z {
		z[i] = 0
	}
	for i, v := range c.P {
		z[i] = complex(v, 0)
	}
	for i, v := range m.P {
		z[i] = complex(real(z[i]), v)
	}
	rev := p.revFor(n)
	for i, j := range rev {
		if j > i {
			z[i], z[j] = z[j], z[i]
		}
	}
	fftStages(z, p.fwd)

	// Split the packed spectrum by conjugate symmetry into the two
	// Hermitian half-spectra: with Z = FFT(c + i*m),
	//
	//	specC[k] = (Z[k] + conj(Z[n-k])) / 2
	//	specM[k] = (Z[k] - conj(Z[n-k])) / (2i)
	//
	// Only bins 0..n/2 are kept; the rest are their conjugate mirrors.
	// Bins 0 and n/2 are self-mirrored, so their imaginary parts come
	// out exactly zero — the half-spectra are exactly Hermitian, not
	// merely approximately, and stay so under pointwise products.
	h := n / 2
	for k := 0; k <= h; k++ {
		zk := z[k]
		zn := z[(n-k)&(n-1)]
		a, b := real(zk), imag(zk)
		cr, ci := real(zn), imag(zn)
		p.specC[k] = complex((a+cr)/2, (b-ci)/2)
		p.specM[k] = complex((b+ci)/2, (cr-a)/2)
	}
	// Both chains self-convolve (s0 == s), so the accumulators start as
	// the spectra themselves.
	copy(p.accC, p.specC)
	copy(p.accM, p.specM)
	return nil
}

// RowInto writes row i of both chains — the distributions of c + i-fold
// sum of c and of m + i-fold sum of m — into dstC and dstM, reusing their
// backing arrays when capacity allows. Rows come in increasing order
// after Forward: each call first advances the accumulators by the
// half-spectrum power steps up to row i, then runs row i's pruned
// inverse. Rows skipped over get their power steps but no inverse, so
// row i carries the same bits whichever earlier rows were inverted.
func (p *PackedConvolutionPlan) RowInto(i int, dstC, dstM *PMF) error {
	if i < p.row || i >= p.count {
		return fmt.Errorf("stats: packed row %d out of order (next %d of %d)", i, p.row, p.count)
	}
	h := p.size / 2
	for ; p.row < i; p.row++ {
		// Half-spectrum power step: both accumulators advance one
		// convolution over the size/2+1 non-redundant bins only.
		for k := 0; k <= h; k++ {
			p.accC[k] *= p.specC[k]
			p.accM[k] *= p.specM[k]
		}
	}
	nc, nm := p.nc, p.nm
	lc := nc + i*(nc-1)
	lm := nm + i*(nm-1)
	// Pruned inverse: row i has exact support max(lc, lm), so a
	// transform of the smallest covering power of two ni suffices —
	// decimating the spectrum by d = n/ni aliases the row mod ni,
	// which is exact for a signal of support <= ni.
	l := lc
	if lm > l {
		l = lm
	}
	ni := nextPow2(l)
	d := p.size / ni
	hi := ni / 2
	w := p.z[:ni]
	// Assemble the fused natural-order spectrum w = accC + i*accM
	// from the decimated half-spectra; the upper half comes from
	// Hermitian symmetry, w[ni-k] = conj(accC[k*d] - i*accM[k*d]).
	for k := 0; k <= hi; k++ {
		ac, am := p.accC[k*d], p.accM[k*d]
		w[k] = complex(real(ac)-imag(am), imag(ac)+real(am))
	}
	for k := 1; k < hi; k++ {
		ac, am := p.accC[k*d], p.accM[k*d]
		w[ni-k] = complex(real(ac)+imag(am), real(am)-imag(ac))
	}
	rev := p.revFor(ni)
	for a2, b2 := range rev {
		if b2 > a2 {
			w[a2], w[b2] = w[b2], w[a2]
		}
	}
	fftStages(w, p.inv)
	// One fused inverse: the C row is the real part, the M row the
	// imaginary part. The 1/ni scaling folds into the extraction.
	invN := 1 / float64(ni)
	bufC := fitFloats(dstC.P, lc)
	for k := 0; k < lc; k++ {
		v := real(w[k]) * invN
		if v < 0 { // numeric noise
			v = 0
		}
		bufC[k] = v
	}
	bufM := fitFloats(dstM.P, lm)
	for k := 0; k < lm; k++ {
		v := imag(w[k]) * invN
		if v < 0 { // numeric noise
			v = 0
		}
		bufM[k] = v
	}
	*dstC = PMF{
		// Each convolution adds the origin plus the half-width
		// midpoint correction (see Convolve).
		Origin: p.originC + float64(i)*(p.originC+p.widthC/2),
		Width:  p.widthC,
		P:      bufC,
	}
	*dstM = PMF{
		Origin: p.originM + float64(i)*(p.originM+p.widthM/2),
		Width:  p.widthM,
		P:      bufM,
	}
	return nil
}

// fitFloats returns buf resized to n, reusing its backing array when the
// capacity allows.
func fitFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}
