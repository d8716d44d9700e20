package core

import (
	"fmt"
	"math"

	"rubik/internal/stats"
)

// TableBuilder is the persistent, allocation-free rebuild pipeline behind
// a controller's target tail tables. It owns everything a periodic refresh
// needs — one packed FFT convolution plan (stats.PackedConvolutionPlan:
// twiddles, bit-reversal, scratch) with the capacity for a full table,
// the profiled-distribution buffers,
// the convolution result buffers, and the TailTable itself, which
// Rebuild refills in place. A controller creates
// one builder for its lifetime; every refresh after the first then
// performs zero steady-state allocations, which is what keeps the paper's
// periodic update inside its 0.2 ms budget (Sec. 4.2) once PR 1's cluster
// layer multiplies refresh frequency by the core count.
//
// The rebuilt tables are bitwise-identical to BuildTailTable's: the
// streaming profiler bins exactly like NewPMFFromSamples and the row
// math is unchanged. Each generation sizes its spectral work by the
// columns its lookups read (see materialize), so its convolutions round
// differently from the naive IterConvolutions at the ulp level, and
// differently from one read order to another. Every table entry is a
// bucket-edge quantile, which absorbs that noise: the tables come out
// bit-identical to the naive build, whatever the read order (the
// builder and lazy-column tests pin this). With the drift gate off,
// swapping the builder in changes no experiment output.
//
// A builder owns its buffers and is NOT safe for concurrent use; each
// controller holds its own.
type TableBuilder struct {
	// DriftThreshold gates the expensive part of a refresh: when both
	// profiled distributions have moved less than this relative amount (in
	// mean and standard deviation) since the last full rebuild, Rebuild
	// keeps the existing tables and skips the convolutions. 0 (the
	// default) disables the gate — every refresh rebuilds, and results are
	// byte-identical to the ungated pipeline. Set it from
	// core.Config.DriftThreshold; the tradeoff is staleness: a gated table
	// reacts one threshold-crossing later to workload drift, in exchange
	// for dropping the dominant rebuild cost at steady load.
	DriftThreshold float64

	// Cache, when non-nil, memoizes full rebuilds content-addressed by
	// their exact inputs (both profiled PMFs plus the table shape): a
	// refresh whose inputs match a cached rebuild bit for bit copies the
	// cached table in place instead of re-running the convolutions, which
	// is bitwise-indistinguishable from rebuilding because the pipeline
	// is a pure function of that key. Nil (the default) rebuilds
	// privately. The cache is shared across the builders of one socket
	// (cluster.RunFleet gives every socket its own cache); like the
	// builder itself it must not be used from two goroutines at once.
	Cache *TableCache

	percentile     float64
	nbuckets       int
	rows, maxQueue int

	// plan holds transforms up to the size a full table of
	// nbuckets-bucket profiles needs; each forward run uses only the
	// size its columns need. It is built on the first forward transform,
	// so a builder whose generations read only column 0 never allocates
	// it.
	plan *stats.PackedConvolutionPlan

	// distC/distM are the profiled distributions the current table
	// generation was built from: its lazy columns are convolved from
	// them. A refresh profiles into nextC/nextM and commits by swapping
	// the pairs, so a refresh that fails or is skipped by the drift gate
	// leaves the generation's inputs untouched.
	distC, distM stats.PMF
	nextC, nextM stats.PMF
	// covered is how many columns the plan's forward transform of the
	// committed distributions reaches; 0 means none has run in this
	// generation.
	covered int

	// Reused buffers, sized on first use.
	convC, convM []stats.PMF
	condC, condM []float64
	// cumC/cumM hold each profiled distribution's running mass, computed
	// once per rebuild so every row-bound quantile is answered from the
	// same pass instead of rescanning the PMF per row.
	cumC, cumM []float64

	table *TailTable

	// Drift-gate state: moments of the profiles at the last full rebuild.
	haveProfile                              bool
	lastMeanC, lastStdC, lastMeanM, lastStdM float64
	builds, skips, cacheHits, columns        int

	// probe/probeFP are the cache key of the refresh in flight, kept on
	// the builder (rather than finish's stack) so taking their address
	// for cache calls does not heap-allocate a key per refresh.
	probe   tableKey
	probeFP uint64
	// entry is the cache entry holding the current generation, valid
	// while its version still equals entryVersion; the columns the
	// generation materialized go back into it when it retires.
	entry        *cacheEntry
	entryVersion uint64
}

// NewTableBuilder validates the table dimensions and returns a builder
// with its TailTable and working buffers preallocated.
func NewTableBuilder(percentile float64, nbuckets, rows, maxQueue int) (*TableBuilder, error) {
	if percentile <= 0 || percentile >= 1 {
		return nil, fmt.Errorf("core: percentile %v out of (0,1)", percentile)
	}
	if nbuckets <= 0 {
		return nil, fmt.Errorf("core: nbuckets must be positive, got %d", nbuckets)
	}
	if rows < 1 || maxQueue < 1 {
		return nil, fmt.Errorf("core: rows=%d maxQueue=%d must be positive", rows, maxQueue)
	}
	t := &TailTable{
		Percentile: percentile,
		MaxQueue:   maxQueue,
		rowBoundsC: make([]float64, rows),
		rowBoundsM: make([]float64, rows),
		c:          make([][]float64, rows),
		m:          make([][]float64, rows),
		discC:      make([]float64, rows),
		discM:      make([]float64, rows),
		headC:      make([]float64, rows),
		headM:      make([]float64, rows),
	}
	for r := 0; r < rows; r++ {
		t.c[r] = make([]float64, maxQueue)
		t.m[r] = make([]float64, maxQueue)
	}
	b := &TableBuilder{
		percentile: percentile,
		nbuckets:   nbuckets,
		rows:       rows,
		maxQueue:   maxQueue,
		convC:      make([]stats.PMF, maxQueue),
		convM:      make([]stats.PMF, maxQueue),
		condC:      make([]float64, nbuckets),
		condM:      make([]float64, nbuckets),
		cumC:       make([]float64, nbuckets),
		cumM:       make([]float64, nbuckets),
		// Both distribution pairs alternate as profiling targets, so both
		// start with full-size buckets: no refresh after the first
		// allocates.
		distC: stats.PMF{P: make([]float64, 0, nbuckets)},
		distM: stats.PMF{P: make([]float64, 0, nbuckets)},
		nextC: stats.PMF{P: make([]float64, 0, nbuckets)},
		nextM: stats.PMF{P: make([]float64, 0, nbuckets)},
		table: t,
	}
	t.src = b
	return b, nil
}

// Table returns the builder's table (valid after the first successful
// Rebuild; refilled in place by later ones).
func (b *TableBuilder) Table() *TailTable { return b.table }

// Builds returns how many refreshes performed the full rebuild.
func (b *TableBuilder) Builds() int { return b.builds }

// Skips returns how many refreshes the drift gate short-circuited.
func (b *TableBuilder) Skips() int { return b.skips }

// CacheHits returns how many refreshes were answered by copying a cached
// rebuild (always 0 with Cache nil; such refreshes count in neither
// Builds nor Skips).
func (b *TableBuilder) CacheHits() int { return b.cacheHits }

// Columns returns how many table columns the builder's generations have
// been asked for: for each generation, one more than the deepest queue
// position any Lookup read (positions past MaxQueue read column 0). It
// depends only on the lookups, not on how many columns were computed or
// copied from the cache, so it is deterministic across cache settings
// and shard counts.
func (b *TableBuilder) Columns() int { return b.columns }

// Rebuild refreshes the table from the profilers' current windows. It
// returns the (builder-owned) table and whether a new generation was
// committed: false means the drift gate found both profiles within
// DriftThreshold of the last rebuild and kept the existing tables. A
// rebuild fills only the per-row parts; the columns are built on first
// Lookup. On error the previous table generation is left intact,
// inputs included.
func (b *TableBuilder) Rebuild(histC, histM *stats.Histogram) (*TailTable, bool, error) {
	if err := histC.PMFInto(&b.nextC, b.nbuckets); err != nil {
		return nil, false, fmt.Errorf("core: compute distribution: %w", err)
	}
	if err := histM.PMFInto(&b.nextM, b.nbuckets); err != nil {
		return nil, false, fmt.Errorf("core: memory distribution: %w", err)
	}
	return b.finish()
}

// RebuildFromSamples refreshes the table from explicit sample slices (the
// BuildTailTable-compatible entry point). The same drift gate applies.
func (b *TableBuilder) RebuildFromSamples(computeSamples, memSamples []float64) (*TailTable, bool, error) {
	if len(computeSamples) == 0 || len(memSamples) == 0 {
		return nil, false, fmt.Errorf("core: no profiling samples")
	}
	distC, err := stats.NewPMFFromSamples(computeSamples, b.nbuckets)
	if err != nil {
		return nil, false, fmt.Errorf("core: compute distribution: %w", err)
	}
	distM, err := stats.NewPMFFromSamples(memSamples, b.nbuckets)
	if err != nil {
		return nil, false, fmt.Errorf("core: memory distribution: %w", err)
	}
	b.nextC, b.nextM = distC, distM
	return b.finish()
}

// finish runs the drift gate on b.nextC/b.nextM and, when it does not
// fire, commits them as the new generation — through the
// content-addressed cache when one is attached (a verified hit copies the
// cached table in place, bitwise-identical to rebuilding), by the
// per-row rebuild otherwise. Every step that can fail runs before the
// commit.
func (b *TableBuilder) finish() (*TailTable, bool, error) {
	meanC, varC := b.nextC.Mean(), b.nextC.Variance()
	meanM, varM := b.nextM.Mean(), b.nextM.Variance()
	stdC, stdM := math.Sqrt(varC), math.Sqrt(varM)
	if b.DriftThreshold > 0 && b.haveProfile &&
		relDrift(meanC, stdC, b.lastMeanC, b.lastStdC) <= b.DriftThreshold &&
		relDrift(meanM, stdM, b.lastMeanM, b.lastStdM) <= b.DriftThreshold {
		b.skips++
		return b.table, false, nil
	}
	b.retire()
	if b.Cache != nil {
		// The probe key aliases the builder's next-distribution buffers,
		// which become the committed ones below; the cache copies them
		// only when it stores a new entry.
		b.probe = tableKey{
			percentile: b.percentile,
			nbuckets:   b.nbuckets, rows: b.rows, maxQueue: b.maxQueue,
			distC: b.nextC, distM: b.nextM,
		}
		b.probeFP = b.Cache.fingerprint(&b.probe)
		if e := b.Cache.lookup(b.probeFP, &b.probe); e != nil {
			b.commit()
			b.table.copyFrom(&e.table)
			b.entry, b.entryVersion = e, e.version
			b.noteProfile(meanC, stdC, meanM, stdM)
			b.cacheHits++
			return b.table, true, nil
		}
	}
	b.commit()
	b.table.rebuild(b, meanC, varC, meanM, varM)
	if b.Cache != nil {
		b.entry = b.Cache.insert(b.probeFP, &b.probe, b.table)
		b.entryVersion = b.entry.version
	}
	b.noteProfile(meanC, stdC, meanM, stdM)
	b.builds++
	return b.table, true, nil
}

// commit makes b.nextC/b.nextM the inputs of a new table generation with
// no columns built or read yet.
func (b *TableBuilder) commit() {
	b.distC, b.nextC = b.nextC, b.distC
	b.distM, b.nextM = b.nextM, b.distM
	b.covered = 0
	b.entry = nil
	b.table.built, b.table.read = 0, 0
}

// retire hands the columns the outgoing generation materialized back to
// the cache entry that holds it, if the entry has not since been evicted
// and reused, so a later hit on the same inputs starts with them. It
// leaves the LRU order alone: the cache sees the same inserts, lookups
// and evictions as it would if every column had been built at rebuild.
func (b *TableBuilder) retire() {
	if e := b.entry; e != nil && e.version == b.entryVersion && b.table.built > e.table.built {
		e.table.copyFrom(b.table)
	}
}

// minForwardPoints is the smallest forward transform a generation runs:
// at 128 buckets it covers columns 0-3, which is as deep as most
// paper-point generations read.
const minForwardPoints = 512

// materialize builds the current generation's columns from b.table.built
// through col, in order, doing only the spectral work they need. Column 0
// is the profiled distribution itself, so its quantiles come straight
// from distC/distM. A column past the forward transform's coverage first
// runs forward, sized for it, which restarts the power steps from row 0.
// Each column then costs its power steps, a pruned inverse, its
// quantiles and its entries in every row.
func (b *TableBuilder) materialize(col int) {
	t := b.table
	if t.built == 0 {
		t.setColumn(0, b.distC.Quantile(b.percentile), b.distM.Quantile(b.percentile))
		t.built = 1
		if col == 0 {
			return
		}
	}
	if col >= b.covered {
		if err := b.forward(col); err != nil {
			// Unreachable: the plan's capacity covers every profile.
			panic(fmt.Sprintf("core: lazy table columns: %v", err))
		}
	}
	for i := t.built; i <= col; i++ {
		if err := b.plan.RowInto(i, &b.convC[i], &b.convM[i]); err != nil {
			panic(fmt.Sprintf("core: lazy table columns: %v", err))
		}
		t.setColumn(i, b.convC[i].Quantile(b.percentile), b.convM[i].Quantile(b.percentile))
	}
	t.built = col + 1
}

// forward runs the forward transform of the committed distributions
// that reaches column col, covering every column that fits in the
// smallest transform covering col, or in minForwardPoints if that is
// larger, up to MaxQueue. It builds the plan on first use.
func (b *TableBuilder) forward(col int) error {
	if b.plan == nil {
		// Profiles never have more than nbuckets buckets, so this
		// capacity covers every generation's deepest column.
		p, err := stats.NewPackedConvolutionPlan(stats.PackedPlanSizeFor(b.nbuckets, b.nbuckets, b.maxQueue))
		if err != nil {
			return err
		}
		b.plan = p
	}
	nc, nm := len(b.distC.P), len(b.distM.P)
	points := stats.PackedPlanSizeFor(nc, nm, col+1)
	if points < minForwardPoints {
		points = minForwardPoints
	}
	count := col + 1
	for count < b.maxQueue && stats.PackedPlanSizeFor(nc, nm, count+1) <= points {
		count++
	}
	b.covered = count
	return b.plan.Forward(b.distC, b.distM, count)
}

// noteProfile records the profile moments a refresh acted on, the state
// the drift gate measures later refreshes against.
func (b *TableBuilder) noteProfile(meanC, stdC, meanM, stdM float64) {
	b.lastMeanC, b.lastStdC = meanC, stdC
	b.lastMeanM, b.lastStdM = meanM, stdM
	b.haveProfile = true
}

// relDrift measures how far a profile moved relative to its previous
// scale: the larger of the mean shift and the spread shift, normalized by
// the previous distribution's dominant magnitude.
func relDrift(mean, std, lastMean, lastStd float64) float64 {
	scale := math.Max(math.Abs(lastMean), lastStd)
	if scale < 1e-12 {
		scale = 1e-12
	}
	dm := math.Abs(mean-lastMean) / scale
	ds := math.Abs(std-lastStd) / scale
	return math.Max(dm, ds)
}
