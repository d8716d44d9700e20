// Package core implements the paper's primary contribution: Rubik, the
// fast analytical per-core DVFS controller for latency-critical systems.
//
// Rubik treats the work of each request as two random variables — compute
// cycles C (scale with frequency) and memory-bound time M (do not) — whose
// distributions it profiles online. The completion distribution of the
// request at queue position i is S_i = S_0 + S + ... + S (i-fold
// convolution), where S_0 conditions the service distribution on the work
// the in-service request has already received. Rubik precomputes the tail
// quantiles of these distributions into small lookup tables (the "target
// tail tables", paper Fig. 5) every 100 ms, and on every request arrival
// and completion picks the lowest frequency satisfying paper Eq. 2:
//
//	f >= max_i  c_i / (L - (t_i + m_i))
//
// A small PI feedback loop trims Rubik's internal latency target using the
// measured tail over a rolling window (paper Sec. 4.2, "Feedback-based
// fine-tuning").
package core

import (
	"fmt"

	"rubik/internal/stats"
)

// TailTable is the pair of precomputed target tail tables (compute cycles
// and memory time). Rows condition on the elapsed work of the in-service
// request (omega), quantized to octiles as in the paper's implementation;
// columns are queue positions 0..MaxQueue-1. Positions beyond the table use
// the Gaussian (CLT) extension.
//
// Columns are materialized on demand. A rebuild fills only the per-row
// parts (bounds, discounts, head tails); the first Lookup of a column
// builds every missing column up to it, in order, from the inputs its
// builder committed for this table generation, with spectral work sized
// to that column (see TableBuilder.materialize). Most generations read
// only the first few queue positions (a 100 ms table at 50% load rarely
// sees a queue of 8), so most of the convolution work is never done.
// Transforms of different sizes round differently at the ulp level, but
// every entry is a bucket-edge quantile, and the entries equal the naive
// IterConvolutions oracle's bit for bit whatever the read order (the
// lazy-column tests and FuzzLazyTailTable pin this). Because Lookup
// writes, a table is confined to its controller's goroutine, like the
// builder that owns it.
type TailTable struct {
	// Percentile is the tail percentile the table targets (e.g. 0.95).
	Percentile float64
	// MaxQueue is the number of explicit columns (paper: 16).
	MaxQueue int

	// rowBoundsC[r] is the elapsed-cycles conditioning point of row r;
	// rows are selected as the largest r with rowBoundsC[r] <= omega.
	rowBoundsC []float64
	rowBoundsM []float64

	// c[r][i] is the tail cycles-until-completion of the request at queue
	// position i when the head's elapsed work falls in row r; m[r][i] is
	// the tail memory time (ns). Only columns below built hold values.
	//
	// Row 0 (omega = 0) holds the exact convolved tails Q(C^(*(i+1))).
	// Rows r > 0 discount row 0 by the *mean* work the head has already
	// completed: c[r][i] = c[0][i] - (E[C] - E[C0|row r]). Under the
	// Gaussian view of the sum this is conservative — conditioning shrinks
	// the exact tail by at least the mean shift — while sharing one set of
	// FFT convolutions across all rows, which is what keeps the periodic
	// update within the paper's sub-millisecond budget (Sec. 4.2 reports
	// 0.2 ms per update). Each entry is floored at the row's own
	// conditioned head tail.
	c [][]float64
	m [][]float64

	// Base moments for the Gaussian extension of the exact sum tails.
	meanC, varC float64
	meanM, varM float64
	// Per-row mean discounts, for extending rows past MaxQueue.
	discC, discM []float64
	// Per-row conditioned head tails, the floor of every entry in a row.
	headC, headM []float64

	// built counts the leading columns materialized; read counts the
	// leading columns this generation has been asked for (read <= built,
	// since a cache hit may bring more columns than are read).
	built, read int
	// src is the builder whose committed inputs the missing columns are
	// built from. Cache snapshots have none and are never looked up.
	src *TableBuilder
}

// BuildTailTable constructs the tables from per-request compute-cycle and
// memory-time samples, using nbuckets-bucket distributions (paper: 128),
// rows octile rows (paper: 8), and maxQueue explicit queue positions
// (paper: 16). It is the periodic "update the service cycle and time
// distributions, perform the convolutions, and fill in the c_i and m_i
// values" step of paper Sec. 4.2.
//
// It is now a thin one-shot wrapper over TableBuilder; controllers that
// refresh periodically hold a builder for their lifetime instead, which
// makes every refresh after the first allocation-free.
func BuildTailTable(computeSamples, memSamples []float64, percentile float64, nbuckets, rows, maxQueue int) (*TailTable, error) {
	if len(computeSamples) == 0 || len(memSamples) == 0 {
		return nil, fmt.Errorf("core: no profiling samples")
	}
	b, err := NewTableBuilder(percentile, nbuckets, rows, maxQueue)
	if err != nil {
		return nil, err
	}
	t, _, err := b.RebuildFromSamples(computeSamples, memSamples)
	return t, err
}

// rebuild refills the per-row parts of t from the distributions b has
// just committed (b.distC, b.distM) and leaves every column unbuilt. The
// caller passes the distributions' moments so they are computed once per
// refresh.
func (t *TailTable) rebuild(b *TableBuilder, meanC, varC, meanM, varM float64) {
	distC, distM := b.distC, b.distM
	percentile := b.percentile

	t.Percentile = percentile
	t.MaxQueue = b.maxQueue
	t.meanC, t.varC = meanC, varC
	t.meanM, t.varM = meanM, varM

	// One cumulative pass per profiled distribution answers every row
	// bound below; QuantileFromCum is bitwise-identical to the per-row
	// Quantile scans it replaces.
	b.cumC = distC.CumSumInto(b.cumC)
	b.cumM = distM.CumSumInto(b.cumM)

	for r := 0; r < b.rows; r++ {
		q := float64(r) / float64(b.rows)
		var boundC, boundM float64
		if r > 0 {
			boundC = distC.QuantileFromCum(b.cumC, q)
			boundM = distM.QuantileFromCum(b.cumM, q)
		}
		t.rowBoundsC[r] = boundC
		t.rowBoundsM[r] = boundM

		condC := distC.ConditionAtLeastInto(b.condC, boundC)
		condM := distM.ConditionAtLeastInto(b.condM, boundM)
		discC := t.meanC - condC.Mean()
		discM := t.meanM - condM.Mean()
		if discC < 0 {
			discC = 0
		}
		if discM < 0 {
			discM = 0
		}
		t.discC[r] = discC
		t.discM[r] = discM
		t.headC[r] = condC.Quantile(percentile)
		t.headM[r] = condM.Quantile(percentile)
	}
}

// setColumn fills column i of every row from the exact sum tails of queue
// position i.
func (t *TailTable) setColumn(i int, exactC, exactM float64) {
	for r := range t.c {
		t.c[r][i] = maxf(exactC-t.discC[r], t.headC[r])
		t.m[r][i] = maxf(exactM-t.discM[r], t.headM[r])
	}
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// RowFor returns the table row for a head request with elapsedCycles of
// compute work already performed: the largest row whose conditioning point
// is at or below the elapsed work. Row bounds are quantiles of the
// profiled distribution at increasing q, hence nondecreasing, so a binary
// search suffices; RowFor runs on every arrival, completion, and tick.
func (t *TailTable) RowFor(elapsedCycles float64) int {
	lo, hi := 1, len(t.rowBoundsC) // find first bound > elapsed in [1, n)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if t.rowBoundsC[mid] <= elapsedCycles {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1
}

// Lookup returns the tail cycles c_i and tail memory time m_i (ns) for the
// request at queue position i given the head's row. Positions at or beyond
// MaxQueue use the Gaussian extension (paper Sec. 4.2, "Large queues"),
// which needs only column 0 and the moments. A column read for the first
// time in this table generation is materialized first, with every
// missing column before it.
func (t *TailTable) Lookup(row, i int) (ci, mi float64) {
	if row < 0 {
		row = 0
	}
	if row >= len(t.c) {
		row = len(t.c) - 1
	}
	col := i
	if i >= t.MaxQueue {
		col = 0
	}
	if col >= t.read {
		t.demand(col)
	}
	if i < t.MaxQueue {
		return t.c[row][i], t.m[row][i]
	}
	// Gaussian (CLT) extension of the exact sum tails, with the same
	// per-row mean discount as the in-table entries (paper Sec. 4.2,
	// "Large queues").
	n := float64(i + 1)
	ci = stats.GaussianTail(n*t.meanC, n*t.varC, t.Percentile) - t.discC[row]
	mi = stats.GaussianTail(n*t.meanM, n*t.varM, t.Percentile) - t.discM[row]
	if ci < t.c[row][0] {
		ci = t.c[row][0]
	}
	if mi < t.m[row][0] {
		mi = t.m[row][0]
	}
	return ci, mi
}

// demand records the first read of column col in this generation,
// counting it for TableBuilder.Columns, and builds the columns still
// missing up to it.
func (t *TailTable) demand(col int) {
	t.src.columns += col + 1 - t.read
	t.read = col + 1
	if col >= t.built {
		t.src.materialize(col)
	}
}

// Rows returns the number of omega rows.
func (t *TailTable) Rows() int { return len(t.c) }
