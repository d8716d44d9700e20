package core

import (
	"math/rand"
	"testing"

	"rubik/internal/stats"
	"rubik/internal/workload"
)

// naiveTable is the oracle for a builder's current generation: the
// complete table eagerTailTable builds from the same committed
// distributions through the naive stats.IterConvolutions chains.
func naiveTable(t *testing.T, b *TableBuilder) *TailTable {
	t.Helper()
	want, err := eagerTailTable(b.distC, b.distM, b.percentile, b.rows, b.maxQueue, false)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestPackedBuilderMatchesReferenceTables sweeps the builder over profile
// windows and table shapes and requires its tables to be bit-for-bit
// identical to the naive oracle's. The packed convolutions differ from
// the naive chains at the ulp level, but every table entry is a
// bucket-edge quantile of the convolved rows, and the quantile's 1e-12
// bucket slack absorbs that noise on realistic, continuously distributed
// profiles: random windows, the masstree, xapian and moses service
// distributions at loads 0.3 and 0.7, and degenerate all-equal windows.
// Fixed seeds keep the sweep deterministic; the universal (bound-level)
// guarantee lives in the stats property and fuzz tests.
func TestPackedBuilderMatchesReferenceTables(t *testing.T) {
	shapes := []struct {
		nbuckets, rows, maxQueue int
	}{
		{128, 8, 16}, // paper shape
		{64, 4, 8},
		{32, 1, 4},
		{130, 8, 16}, // non-power-of-two buckets
		{1, 2, 3},
	}
	for seed := int64(0); seed < 12; seed++ {
		r := rand.New(rand.NewSource(seed))
		for _, shape := range shapes {
			b, err := NewTableBuilder(0.95, shape.nbuckets, shape.rows, shape.maxQueue)
			if err != nil {
				t.Fatal(err)
			}
			histC, histM := stats.NewHistogram(512), stats.NewHistogram(512)
			// Two sliding-window refreshes per builder.
			for round := 0; round < 2; round++ {
				comp, mem := randomSamples(r, 128+r.Intn(256))
				for i := range comp {
					histC.Push(comp[i])
					histM.Push(mem[i])
				}
				got, _, err := b.Rebuild(histC, histM)
				if err != nil {
					t.Fatal(err)
				}
				tablesBitwiseEqual(t, got, naiveTable(t, b))
			}
		}
	}

	// Application service distributions, profiled through a sliding
	// window the size of a short controller history.
	apps := []workload.LCApp{workload.Masstree(), workload.Xapian(), workload.Moses()}
	for ai, app := range apps {
		for _, load := range []float64{0.3, 0.7} {
			tr := workload.GenerateAtLoad(app, load, 1500, 17+int64(ai))
			b, err := NewTableBuilder(0.95, 128, 8, 16)
			if err != nil {
				t.Fatal(err)
			}
			histC, histM := stats.NewHistogram(512), stats.NewHistogram(512)
			for i, req := range tr.Requests {
				histC.Push(req.ComputeCycles)
				histM.Push(float64(req.MemTime))
				if (i+1)%250 != 0 {
					continue
				}
				got, _, err := b.Rebuild(histC, histM)
				if err != nil {
					t.Fatal(err)
				}
				tablesBitwiseEqual(t, got, naiveTable(t, b))
			}
		}
	}

	// Degenerate all-equal profiles collapse to delta chains; the builder
	// must still match exactly.
	b, err := NewTableBuilder(0.95, 128, 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	histC, histM := stats.NewHistogram(64), stats.NewHistogram(64)
	for i := 0; i < 50; i++ {
		histC.Push(1e5)
		histM.Push(2e4)
	}
	got, _, err := b.Rebuild(histC, histM)
	if err != nil {
		t.Fatal(err)
	}
	tablesBitwiseEqual(t, got, naiveTable(t, b))
}

// TestPackedBuilderRebuildAllocationFree checks that the builder's one
// plan serves every forward size allocation-free: refreshes that read
// column 0 only (no forward transform), columns up to 3, 7 and 15 (the
// 512-, 1,024- and 2,048-point transforms at 128 buckets), columns 0 to
// 15 one at a time (every re-forward in turn), and a degenerate all-equal
// window (a single-bucket PMF, which transforms at a smaller size still)
// allocate nothing once each shape has run once.
func TestPackedBuilderRebuildAllocationFree(t *testing.T) {
	b, err := NewTableBuilder(0.95, 128, 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(8))
	spreadC, spreadM := stats.NewHistogram(4096), stats.NewHistogram(4096)
	comp, mem := randomSamples(r, 4096)
	for i := range comp {
		spreadC.Push(comp[i])
		spreadM.Push(mem[i])
	}
	flatC, flatM := stats.NewHistogram(64), stats.NewHistogram(64)
	for i := 0; i < 64; i++ {
		flatC.Push(1e5)
		flatM.Push(2e4)
	}
	refresh := func() {
		for _, h := range [][2]*stats.Histogram{{spreadC, spreadM}, {flatC, flatM}} {
			for _, deepest := range []int{0, 3, 7, 15} {
				tbl, _, err := b.Rebuild(h[0], h[1])
				if err != nil {
					t.Fatal(err)
				}
				tbl.Lookup(0, deepest)
			}
			tbl, _, err := b.Rebuild(h[0], h[1])
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 16; i++ {
				tbl.Lookup(0, i)
			}
		}
	}
	refresh() // warm buffers and every transform size's permutation
	if allocs := testing.AllocsPerRun(5, refresh); allocs != 0 {
		t.Fatalf("steady-state Rebuild across forward sizes allocates %v/op, want 0", allocs)
	}
}
