package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rubik/internal/queueing"
	"rubik/internal/stats"
)

// committedTable is the eager oracle for the generation a builder
// committed from histC/histM: the profiled distributions re-derived from
// the same windows, fully convolved up front by the packed pipeline.
func committedTable(t testing.TB, b *TableBuilder, histC, histM *stats.Histogram) *TailTable {
	t.Helper()
	var distC, distM stats.PMF
	if err := histC.PMFInto(&distC, b.nbuckets); err != nil {
		t.Fatal(err)
	}
	if err := histM.PMFInto(&distM, b.nbuckets); err != nil {
		t.Fatal(err)
	}
	want, err := eagerTailTable(distC, distM, b.percentile, b.rows, b.maxQueue, true)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// sameLookup fails unless got and want answer Lookup(row, i) with the same
// bits.
func sameLookup(t testing.TB, got, want *TailTable, row, i int) {
	t.Helper()
	gc, gm := got.Lookup(row, i)
	wc, wm := want.Lookup(row, i)
	if math.Float64bits(gc) != math.Float64bits(wc) || math.Float64bits(gm) != math.Float64bits(wm) {
		t.Fatalf("Lookup(%d,%d) = (%v,%v), eager table says (%v,%v)", row, i, gc, gm, wc, wm)
	}
}

// everyLookup checks every row at every queue position up to 20, past
// MaxQueue into the Gaussian extension.
func everyLookup(t testing.TB, got, want *TailTable) {
	t.Helper()
	for row := -1; row <= want.Rows(); row++ {
		for i := 0; i <= 20; i++ {
			sameLookup(t, got, want, row, i)
		}
	}
}

func pushSamples(histC, histM *stats.Histogram, comp, mem []float64) {
	for i := range comp {
		histC.Push(comp[i])
		histM.Push(mem[i])
	}
}

// TestLazyColumnsMatchEager reads lazy tables in random orders — deep
// columns first, shallow first, beyond MaxQueue — and requires every
// answer to equal the eagerly built table's bit for bit. The column
// counter must equal the deepest column read + 1.
func TestLazyColumnsMatchEager(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 30; trial++ {
		nbuckets := 1 + r.Intn(130)
		rows := 1 + r.Intn(8)
		maxQueue := 1 + r.Intn(16)
		b, err := NewTableBuilder(0.9+0.09*r.Float64(), nbuckets, rows, maxQueue)
		if err != nil {
			t.Fatal(err)
		}
		histC, histM := stats.NewHistogram(256), stats.NewHistogram(256)
		wantColumns := 0
		for round := 0; round < 3; round++ {
			comp, mem := randomSamples(r, 32+r.Intn(200))
			pushSamples(histC, histM, comp, mem)
			got, _, err := b.Rebuild(histC, histM)
			if err != nil {
				t.Fatal(err)
			}
			want := committedTable(t, b, histC, histM)
			deepest := -1
			for k := 0; k < 12; k++ {
				row, i := r.Intn(rows+2)-1, r.Intn(21)
				sameLookup(t, got, want, row, i)
				if i >= maxQueue {
					i = 0
				}
				if i > deepest {
					deepest = i
				}
			}
			wantColumns += deepest + 1
			if b.Columns() != wantColumns {
				t.Fatalf("trial %d round %d: Columns() = %d, want %d", trial, round, b.Columns(), wantColumns)
			}
		}
	}
}

// TestDemandSizedColumnsMatchOracle pins demand-sized generations at
// the transform-size boundaries. Column 0 comes straight from the
// profile, and deeper columns from forward transforms sized to the
// deepest column read so far, re-run whenever a read goes past them. For
// bucket counts around 128 (where the 512-, 1,024- and 2,048-point
// transforms cover 4, 8 and 16 columns, or one fewer each at 129) and
// table widths on either side of those coverages, three read orders
// must answer every Lookup bit for bit as both the full-size eager
// table and the naive oracle do: one column at a time upward (a
// re-forward at every size boundary), deepest first (one forward), and
// column 0 alone before a deep read. A generation that has read only
// column 0, positions past MaxQueue included, has run no forward
// transform, and a builder that has run none has no plan.
func TestDemandSizedColumnsMatchOracle(t *testing.T) {
	orders := []struct {
		name string
		read func(t *testing.T, b *TableBuilder, got, eager, naive *TailTable)
	}{
		// First, on a fresh builder: its plan must not exist yet.
		{"head-then-deep", func(t *testing.T, b *TableBuilder, got, eager, naive *TailTable) {
			lookupColumn(t, got, eager, naive, 0)
			lookupColumn(t, got, eager, naive, got.MaxQueue+3)
			if b.covered != 0 || b.plan != nil {
				t.Fatalf("reading column 0 built a plan (%v) or ran a forward transform covering %d columns", b.plan != nil, b.covered)
			}
			for _, i := range []int{got.MaxQueue - 1, got.MaxQueue / 2, 1} {
				lookupColumn(t, got, eager, naive, i)
			}
		}},
		{"ascending", func(t *testing.T, b *TableBuilder, got, eager, naive *TailTable) {
			for i := 0; i < got.MaxQueue; i++ {
				lookupColumn(t, got, eager, naive, i)
			}
		}},
		{"deepest-first", func(t *testing.T, b *TableBuilder, got, eager, naive *TailTable) {
			for i := got.MaxQueue - 1; i >= 0; i-- {
				lookupColumn(t, got, eager, naive, i)
			}
		}},
	}
	r := rand.New(rand.NewSource(12))
	for _, nbuckets := range []int{1, 2, 127, 128, 129, 130} {
		for _, maxQueue := range []int{1, 4, 5, 8, 9, 16} {
			b, err := NewTableBuilder(0.95, nbuckets, 3, maxQueue)
			if err != nil {
				t.Fatal(err)
			}
			histC, histM := stats.NewHistogram(1024), stats.NewHistogram(1024)
			comp, mem := randomSamples(r, 1024)
			pushSamples(histC, histM, comp, mem)
			var distC, distM stats.PMF
			if err := histC.PMFInto(&distC, nbuckets); err != nil {
				t.Fatal(err)
			}
			if err := histM.PMFInto(&distM, nbuckets); err != nil {
				t.Fatal(err)
			}
			eager, err := eagerTailTable(distC, distM, 0.95, 3, maxQueue, true)
			if err != nil {
				t.Fatal(err)
			}
			naive, err := eagerTailTable(distC, distM, 0.95, 3, maxQueue, false)
			if err != nil {
				t.Fatal(err)
			}
			for _, order := range orders {
				// Each refresh commits a new generation: no columns, no
				// forward transform.
				got, _, err := b.Rebuild(histC, histM)
				if err != nil {
					t.Fatal(err)
				}
				t.Run(fmt.Sprintf("%d/%d/%s", nbuckets, maxQueue, order.name), func(t *testing.T) {
					order.read(t, b, got, eager, naive)
					everyLookup(t, got, naive)
				})
			}
		}
	}
}

// lookupColumn reads queue position i in every row of got, requiring the
// bits of both eager oracles.
func lookupColumn(t *testing.T, got, eager, naive *TailTable, i int) {
	t.Helper()
	for row := 0; row < got.Rows(); row++ {
		sameLookup(t, got, eager, row, i)
		sameLookup(t, got, naive, row, i)
	}
}

// TestRebuildHalfFailureKeepsGeneration fails a refresh halfway: the
// compute window profiles fine (so its distribution is already binned),
// then the memory window is empty. The previous generation must still
// answer every column exactly as an eager build of its own inputs —
// whether it had read no column yet (its forward transform not yet run)
// or column 0.
func TestRebuildHalfFailureKeepsGeneration(t *testing.T) {
	for _, readFirst := range []bool{false, true} {
		b, err := NewTableBuilder(0.95, 128, 8, 16)
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(3))
		histC, histM := stats.NewHistogram(512), stats.NewHistogram(512)
		comp, mem := randomSamples(r, 512)
		pushSamples(histC, histM, comp, mem)
		tbl, _, err := b.Rebuild(histC, histM)
		if err != nil {
			t.Fatal(err)
		}
		want := committedTable(t, b, histC, histM)
		if readFirst {
			sameLookup(t, tbl, want, 0, 0)
		}

		// A different compute profile, and no memory samples at all.
		for i := 0; i < 512; i++ {
			histC.Push(3 * comp[i])
		}
		if _, _, err := b.Rebuild(histC, stats.NewHistogram(8)); err == nil {
			t.Fatal("a refresh with an empty memory window must fail")
		}
		if b.Table() != tbl {
			t.Fatal("a failed refresh must keep the builder's table")
		}
		everyLookup(t, tbl, want)
	}
}

// TestDriftSkipAfterCacheHitKeepsGeneration covers the other way a
// generation outlives a refresh: a builder takes its table from the
// cache (with the columns another builder materialized), then the drift
// gate skips its next refresh, whose profile has already been binned.
// Columns the hit did not bring must still come from the hit's inputs.
func TestDriftSkipAfterCacheHitKeepsGeneration(t *testing.T) {
	cache := NewTableCache(8)
	r := rand.New(rand.NewSource(77))
	comp, mem := randomSamples(r, 1024)

	first, err := NewTableBuilder(0.95, 128, 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	first.Cache = cache
	histC, histM := stats.NewHistogram(2048), stats.NewHistogram(2048)
	pushSamples(histC, histM, comp, mem)
	tbl, _, err := first.Rebuild(histC, histM)
	if err != nil {
		t.Fatal(err)
	}
	want := committedTable(t, first, histC, histM)
	sameLookup(t, tbl, want, 2, 3) // materializes columns 0..3
	// A new generation retires the first one: its four columns go back
	// into its cache entry.
	other, _ := randomSamples(r, 1024)
	for i := range other {
		histC.Push(2 * other[i])
	}
	if _, _, err := first.Rebuild(histC, histM); err != nil {
		t.Fatal(err)
	}

	second, err := NewTableBuilder(0.95, 128, 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	second.Cache = cache
	second.DriftThreshold = 0.05
	histC2, histM2 := stats.NewHistogram(2048), stats.NewHistogram(2048)
	pushSamples(histC2, histM2, comp, mem)
	hit, _, err := second.Rebuild(histC2, histM2)
	if err != nil {
		t.Fatal(err)
	}
	if second.CacheHits() != 1 {
		t.Fatalf("second builder must hit the cache (hits=%d)", second.CacheHits())
	}
	if hit.built != 4 {
		t.Fatalf("the hit brought %d columns, want the 4 the first generation built", hit.built)
	}
	// Same-distribution samples: the profile moves, but within the gate.
	more, moreMem := randomSamples(r, 64)
	pushSamples(histC2, histM2, more, moreMem)
	if _, rebuilt, err := second.Rebuild(histC2, histM2); err != nil || rebuilt {
		t.Fatalf("refresh must be skipped by the drift gate (rebuilt=%v err=%v)", rebuilt, err)
	}
	everyLookup(t, hit, want)
}

// TestCacheRetireSkipsRecycledEntry pins the retire guard: when the
// entry holding a generation is evicted and reused for other inputs
// before the generation retires, the retiring columns must not be
// written into it.
func TestCacheRetireSkipsRecycledEntry(t *testing.T) {
	cache := NewTableCache(1)
	r := rand.New(rand.NewSource(8))
	newBuilder := func() *TableBuilder {
		b, err := NewTableBuilder(0.95, 64, 4, 8)
		if err != nil {
			t.Fatal(err)
		}
		b.Cache = cache
		return b
	}
	a, q := newBuilder(), newBuilder()
	histA, histAM := stats.NewHistogram(256), stats.NewHistogram(256)
	comp, mem := randomSamples(r, 256)
	pushSamples(histA, histAM, comp, mem)
	tbl, _, err := a.Rebuild(histA, histAM)
	if err != nil {
		t.Fatal(err)
	}
	tbl.Lookup(0, 7) // all of a's columns

	// q's profile evicts a's entry; the recycled entry now holds q's
	// inputs with no columns.
	histQ, histQM := stats.NewHistogram(256), stats.NewHistogram(256)
	compQ, memQ := randomSamples(r, 256)
	pushSamples(histQ, histQM, compQ, memQ)
	if _, _, err := q.Rebuild(histQ, histQM); err != nil {
		t.Fatal(err)
	}
	wantQ := committedTable(t, q, histQ, histQM)

	// a moves to q's profile: a retires (its columns must not land in
	// the recycled entry) and then hits q's entry.
	got, _, err := a.Rebuild(histQ, histQM)
	if err != nil {
		t.Fatal(err)
	}
	if a.CacheHits() != 1 {
		t.Fatalf("q's profile must still be cached (hits=%d)", a.CacheHits())
	}
	everyLookup(t, got, wantQ)
}

// TestRubikRebuildFailuresCounted drives a failing periodic refresh
// through the controller: OnTick must count it and keep deciding from the
// previous generation, which still answers every column exactly.
func TestRubikRebuildFailuresCounted(t *testing.T) {
	r := bootstrappedRubik(t, 1e6)
	if r.RebuildFailures() != 0 {
		t.Fatalf("failures = %d before any failing refresh", r.RebuildFailures())
	}
	tbl := r.Table()
	var distC, distM stats.PMF
	if err := r.histC.PMFInto(&distC, r.cfg.Buckets); err != nil {
		t.Fatal(err)
	}
	if err := r.histM.PMFInto(&distM, r.cfg.Buckets); err != nil {
		t.Fatal(err)
	}
	want, err := eagerTailTable(distC, distM, r.cfg.TailPercentile, r.cfg.OmegaRows, r.cfg.MaxTableQueue, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < r.cfg.MinSamples; i++ {
		r.histC.Push(9e5)
	}
	r.histM = stats.NewHistogram(r.cfg.HistoryCap) // no memory profile
	before := r.TableBuilds()
	r.OnTick(queueing.View{CurrentMHz: 2400})
	if r.RebuildFailures() != 1 || r.TableBuilds() != before {
		t.Fatalf("failures=%d builds=%d (was %d), want one failure and no build",
			r.RebuildFailures(), r.TableBuilds(), before)
	}
	if r.Table() != tbl {
		t.Fatal("a failed refresh must keep the previous table")
	}
	everyLookup(t, tbl, want)
}

// TestLazyRefreshAllocationFree pins the steady state of a typical
// generation — refresh, then read columns 0..4 — and of a full one at
// zero allocations.
func TestLazyRefreshAllocationFree(t *testing.T) {
	b, err := NewTableBuilder(0.95, 128, 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(8))
	histC, histM := stats.NewHistogram(4096), stats.NewHistogram(4096)
	comp, mem := randomSamples(r, 4096)
	pushSamples(histC, histM, comp, mem)
	for _, deepest := range []int{4, 15} {
		refresh := func() {
			tbl, _, err := b.Rebuild(histC, histM)
			if err != nil {
				t.Fatal(err)
			}
			tbl.Lookup(0, deepest)
		}
		refresh() // warm buffers
		if allocs := testing.AllocsPerRun(5, refresh); allocs != 0 {
			t.Fatalf("refresh + columns 0..%d allocates %v/op, want 0", deepest, allocs)
		}
	}
}

// FuzzLazyTailTable drives two builders sharing one rebuild cache with
// arbitrary sample sets (single- and two-valued ones included) and
// arbitrary interleavings of rebuilds, cache hits, drift-gate skips,
// half-failed refreshes and Lookup(row, col <= 20) reads. Every answer
// must equal a fully materialized eager table of the generation's
// inputs, bit for bit.
func FuzzLazyTailTable(f *testing.F) {
	f.Add([]byte{0x80, 0x10, 0x21, 0x00, 1, 2, 3, 0x02, 4, 9, 0x01, 0x02, 1, 15})
	f.Add([]byte{0x05, 0x07, 0x10, 0x00, 7, 7, 7, 0x02, 0, 20, 0x03, 0x02, 3, 3})
	f.Add([]byte{0xff, 0x0f, 0x3f, 0x00, 1, 200, 1, 200, 0x04, 0x02, 1, 11, 0x08, 0x02, 0, 6})
	f.Add([]byte{0x40, 0x33, 0x47, 0x00, 9, 0x01, 0x02, 2, 2, 0x05, 0x06, 0x02, 5, 17, 0x03, 0x02, 0, 0})
	// Spread windows at 128 and 129 buckets read upward across the 512-,
	// 1,024- and 2,048-point forward sizes (columns 0, 3, 4, 7, 8, 15),
	// deepest first, and again after an unchanged-window refresh whose
	// cache hit brings the first columns back.
	f.Add([]byte{0x7f, 0x07, 0x0f, 0x00, 0, 10, 0, 200, 0, 50, 0, 130, 0, 90,
		0x02, 1, 0, 0x02, 2, 3, 0x02, 3, 4, 0x02, 0, 7, 0x02, 4, 8, 0x02, 5, 15})
	f.Add([]byte{0x80, 0x07, 0x0f, 0x00, 0, 10, 0, 200, 0, 50, 0, 130, 0, 90,
		0x02, 1, 0, 0x02, 2, 3, 0x02, 3, 4, 0x02, 0, 7, 0x02, 4, 8, 0x02, 5, 15})
	f.Add([]byte{0x80, 0x07, 0x0f, 0x01, 0, 10, 0, 255, 0, 3, 0, 77,
		0x02, 2, 15, 0x02, 1, 0, 0x01, 0x02, 1, 0, 0x02, 3, 3, 0x02, 2, 4, 0x02, 0, 8})
	f.Add([]byte{0x7f, 0x07, 0x0f, 0x01, 0, 10, 0, 255, 0, 3, 0, 77,
		0x02, 0, 0, 0x02, 1, 4, 0x01, 0x02, 0, 7, 0x02, 2, 8, 0x02, 3, 15})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 || len(data) > 96 {
			return
		}
		nbuckets := 1 + int(data[0])%130
		rows := 1 + int(data[1])%8
		maxQueue := 1 + int(data[2])%16
		cache := NewTableCache(1 + int(data[3])%4)

		type lane struct {
			b            *TableBuilder
			histC, histM *stats.Histogram
			want         *TailTable
		}
		lanes := make([]*lane, 2)
		for k := range lanes {
			b, err := NewTableBuilder(0.95, nbuckets, rows, maxQueue)
			if err != nil {
				t.Fatal(err)
			}
			b.Cache = cache
			if data[1]&0x20 != 0 {
				b.DriftThreshold = 0.05
			}
			lanes[k] = &lane{b: b, histC: stats.NewHistogram(32), histM: stats.NewHistogram(32)}
		}
		refresh := func(l *lane, histM *stats.Histogram) {
			tbl, rebuilt, err := l.b.Rebuild(l.histC, histM)
			switch {
			case err != nil:
				if histM.Len() > 0 && l.histC.Len() > 0 {
					t.Fatalf("refresh failed: %v", err)
				}
			case rebuilt:
				l.want = committedTable(t, l.b, l.histC, histM)
				if tbl != l.b.Table() {
					t.Fatal("refresh returned a table the builder does not own")
				}
			}
		}
		for pos := 4; pos < len(data); pos++ {
			op := data[pos]
			l := lanes[op>>7]
			switch op & 0x07 {
			case 0, 4: // profile the next byte as one request and refresh
				if pos+1 >= len(data) {
					return
				}
				pos++
				v := float64(data[pos])
				l.histC.Push(1e3 * (1 + v))
				l.histM.Push(1e2 * (1 + float64(data[pos]%3)))
				refresh(l, l.histM)
			case 1: // refresh an unchanged window: a cache hit or a skip
				if l.histC.Len() > 0 {
					refresh(l, l.histM)
				}
			case 2: // read one entry
				if pos+2 >= len(data) {
					return
				}
				row, col := int(data[pos+1]%10)-1, int(data[pos+2])%21
				pos += 2
				if l.want != nil {
					sameLookup(t, l.b.Table(), l.want, row, col)
				}
			case 3: // half-failed refresh: no memory samples
				l.histC.Push(5e3)
				refresh(l, stats.NewHistogram(4))
			case 5: // copy the other lane's window, so the cache can share it
				o := lanes[1-op>>7]
				for i := 0; i < 32; i++ {
					l.histC.Push(float64(1+i%2) * 2e3)
					l.histM.Push(3e2)
					o.histC.Push(float64(1+i%2) * 2e3)
					o.histM.Push(3e2)
				}
				refresh(l, l.histM)
				refresh(o, o.histM)
			default: // a burst of identical samples
				for i := 0; i < 8; i++ {
					l.histC.Push(4e3)
					l.histM.Push(1e2)
				}
				refresh(l, l.histM)
			}
		}
		for _, l := range lanes {
			if l.want != nil {
				everyLookup(t, l.b.Table(), l.want)
			}
		}
	})
}
