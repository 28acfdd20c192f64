package estimate

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/db"
	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/incr"
	"repro/internal/route"
)

// testDesign builds a small deterministic synthetic design plus its
// routing grid.
func testDesign(t testing.TB, cells int, seed int64) (*db.Design, *route.Grid) {
	t.Helper()
	cfg := gen.Congested(cells, seed)
	d, err := gen.Generate(cfg)
	if err != nil {
		t.Fatalf("gen: %v", err)
	}
	g, err := route.NewGrid(d)
	if err != nil {
		t.Fatalf("grid: %v", err)
	}
	return d, g
}

// movables returns the indices of movable cells.
func movables(d *db.Design) []int {
	var ms []int
	for ci := range d.Cells {
		if d.Cells[ci].Movable() {
			ms = append(ms, ci)
		}
	}
	return ms
}

func demandEqual(t *testing.T, ctx string, ah, av, bh, bv []int64) {
	t.Helper()
	if len(ah) != len(bh) || len(av) != len(bv) {
		t.Fatalf("%s: demand length mismatch", ctx)
	}
	for i := range ah {
		if ah[i] != bh[i] {
			t.Fatalf("%s: hDem[%d] = %d, want %d", ctx, i, ah[i], bh[i])
		}
		if av[i] != bv[i] {
			t.Fatalf("%s: vDem[%d] = %d, want %d", ctx, i, av[i], bv[i])
		}
	}
}

// TestRecomputeDeterministicAcrossWorkers pins that the sharded parallel
// recompute produces the same bits as the serial pass for every worker
// count — fixed-point integer accumulation is order-independent.
func TestRecomputeDeterministicAcrossWorkers(t *testing.T) {
	d, g := testDesign(t, 600, 7)
	var refH, refV []int64
	for _, w := range []int{1, 2, 8} {
		e := New(g, Options{Workers: w})
		e.Recompute(d)
		h, v := e.SnapshotDemand()
		if refH == nil {
			refH, refV = h, v
			continue
		}
		demandEqual(t, "workers", h, v, refH, refV)
	}
}

// TestIncrementalDifferential drives random direct moves plus
// Begin/Move/Revert and Begin/Move/Commit transactions through an
// attached cache and asserts the incrementally maintained demand grid is
// bitwise-equal to a fresh full recompute at every quiescent point.
func TestIncrementalDifferential(t *testing.T) {
	d, g := testDesign(t, 400, 11)
	ms := movables(d)
	cache := incr.New(d)
	est := New(g, Options{})
	Attach(est, cache)

	die := g.Origin
	w := float64(g.NX) * g.TileW
	h := float64(g.NY) * g.TileH
	rng := rand.New(rand.NewSource(42))
	randPos := func() geom.Point {
		return geom.Point{
			X: die.X + rng.Float64()*w,
			Y: die.Y + rng.Float64()*h,
		}
	}
	check := func(ctx string) {
		t.Helper()
		fresh := New(g, Options{})
		fresh.Recompute(d)
		ih, iv := est.SnapshotDemand()
		fh, fv := fresh.SnapshotDemand()
		demandEqual(t, ctx, ih, iv, fh, fv)
	}

	check("initial")
	for round := 0; round < 30; round++ {
		switch round % 3 {
		case 0: // direct (untracked) moves
			for k := 0; k < 5; k++ {
				cache.Move(ms[rng.Intn(len(ms))], randPos())
			}
			check("direct")
		case 1: // transaction, reverted
			cache.Begin()
			for k := 0; k < 5; k++ {
				cache.Move(ms[rng.Intn(len(ms))], randPos())
			}
			cache.Revert()
			check("revert")
		case 2: // transaction, committed
			cache.Begin()
			for k := 0; k < 5; k++ {
				cache.Move(ms[rng.Intn(len(ms))], randPos())
			}
			cache.Commit()
			check("commit")
		}
	}
}

// TestIncrementalRevertRestoresBits pins the journal-replay property on
// its own: a reverted transaction leaves the accumulators exactly as they
// were before Begin.
func TestIncrementalRevertRestoresBits(t *testing.T) {
	d, g := testDesign(t, 300, 3)
	ms := movables(d)
	cache := incr.New(d)
	est := New(g, Options{})
	Attach(est, cache)

	h0, v0 := est.SnapshotDemand()
	rng := rand.New(rand.NewSource(1))
	cache.Begin()
	for k := 0; k < 20; k++ {
		ci := ms[rng.Intn(len(ms))]
		cache.Move(ci, geom.Point{
			X: g.Origin.X + rng.Float64()*float64(g.NX)*g.TileW,
			Y: g.Origin.Y + rng.Float64()*float64(g.NY)*g.TileH,
		})
	}
	cache.Revert()
	h1, v1 := est.SnapshotDemand()
	demandEqual(t, "revert-bits", h1, v1, h0, v0)
}

// TestIncrementalMoveNoAllocs pins the 0-allocs/op warm path for both the
// direct-move and the transactional (journaled) update paths.
func TestIncrementalMoveNoAllocs(t *testing.T) {
	d, g := testDesign(t, 300, 5)
	ms := movables(d)
	cache := incr.New(d)
	est := New(g, Options{})
	Attach(est, cache)

	a := geom.Point{X: g.Origin.X + g.TileW*1.3, Y: g.Origin.Y + g.TileH*1.3}
	b := geom.Point{X: g.Origin.X + float64(g.NX-2)*g.TileW, Y: g.Origin.Y + float64(g.NY-2)*g.TileH}
	ci := ms[len(ms)/2]

	// Warm both paths: grow the journal and scratch to steady state.
	for i := 0; i < 4; i++ {
		cache.Begin()
		cache.Move(ci, a)
		cache.Move(ci, b)
		cache.Revert()
		cache.Move(ci, a)
		cache.Move(ci, b)
	}

	direct := testing.AllocsPerRun(100, func() {
		cache.Move(ci, a)
		cache.Move(ci, b)
	})
	if direct != 0 {
		t.Errorf("direct Move allocates %.1f allocs/op, want 0", direct)
	}
	txn := testing.AllocsPerRun(100, func() {
		cache.Begin()
		cache.Move(ci, a)
		cache.Move(ci, b)
		cache.Revert()
	})
	if txn != 0 {
		t.Errorf("txn Move/Revert allocates %.1f allocs/op, want 0", txn)
	}
}

// TestEstimateMatchesGridGeometry sanity-checks construction: tile count,
// positive capacity somewhere, and congestion responding to demand.
func TestEstimateMatchesGridGeometry(t *testing.T) {
	d, g := testDesign(t, 300, 9)
	e := New(g, Options{})
	if e.Tiles != g.Tiles {
		t.Fatalf("geometry mismatch: est %+v grid %+v", e.Tiles, g.Tiles)
	}
	var capSum float64
	for _, c := range e.capTot {
		capSum += c
	}
	if capSum <= 0 {
		t.Fatal("no tile capacity derived from grid")
	}
	e.Recompute(d)
	cong := e.TileCongestion()
	if len(cong) != e.NX*e.NY {
		t.Fatalf("congestion length %d, want %d", len(cong), e.NX*e.NY)
	}
	if slices.Max(cong) <= 0 {
		t.Fatal("recompute produced zero congestion everywhere")
	}
	var into []float64
	into = e.CongestionInto(into)
	for i := range cong {
		if cong[i] != into[i] {
			t.Fatalf("CongestionInto diverges at %d", i)
		}
		tx, ty := i%e.NX, i/e.NX
		if got := e.CongestionAt(tx, ty); got != cong[i] {
			t.Fatalf("CongestionAt(%d,%d) = %v, want %v", tx, ty, got, cong[i])
		}
	}
	if prof := e.ACEProfile(); len(prof) != len(route.ACEPercentiles) {
		t.Fatalf("ACEProfile length %d, want %d", len(prof), len(route.ACEPercentiles))
	}
}

// TestCorrelationAgainstRouter is the drift gate: the estimator must rank
// tiles like the real router on a congested design. Measured values at
// 2500 cells (15×15 grid): pearson 0.91, spearman 0.83, overlap@4 0.75.
// The floors are pinned well below that so routine noise passes but a
// broken estimator — wrong axis, wrong denominator, dropped pin term —
// fails loudly.
func TestCorrelationAgainstRouter(t *testing.T) {
	d, g := testDesign(t, 2500, 13)
	r := route.NewRouter(g, route.RouterOptions{})
	r.RouteDesign(d)
	routed := g.TileCongestion()

	e := New(g, Options{})
	e.Recompute(d)
	c := Correlate(e.TileCongestion(), routed, 0)

	t.Logf("pearson=%.3f spearman=%.3f overlap@%d=%.3f tiles=%d",
		c.Pearson, c.Spearman, c.K, c.HotspotOverlap, c.Tiles)
	if c.Tiles < 100 {
		t.Fatalf("only %d finite tile pairs scored", c.Tiles)
	}
	if c.Pearson < 0.7 {
		t.Errorf("pearson %.3f below floor 0.7", c.Pearson)
	}
	if c.Spearman < 0.65 {
		t.Errorf("spearman %.3f below floor 0.65", c.Spearman)
	}
	if c.HotspotOverlap < 0.4 {
		t.Errorf("hotspot overlap %.3f below floor 0.4", c.HotspotOverlap)
	}
}

// TestCorrelateMath pins the harness arithmetic on hand-built vectors.
func TestCorrelateMath(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	// Perfect linear agreement.
	c := Correlate(x, x, 2)
	if math.Abs(c.Pearson-1) > 1e-12 || math.Abs(c.Spearman-1) > 1e-12 {
		t.Errorf("identity: pearson=%v spearman=%v, want 1,1", c.Pearson, c.Spearman)
	}
	if c.HotspotOverlap != 1 {
		t.Errorf("identity overlap = %v, want 1", c.HotspotOverlap)
	}
	// Perfect anti-correlation.
	y := []float64{8, 7, 6, 5, 4, 3, 2, 1}
	c = Correlate(x, y, 2)
	if math.Abs(c.Pearson+1) > 1e-12 || math.Abs(c.Spearman+1) > 1e-12 {
		t.Errorf("reversed: pearson=%v spearman=%v, want -1,-1", c.Pearson, c.Spearman)
	}
	if c.HotspotOverlap != 0 {
		t.Errorf("reversed overlap = %v, want 0", c.HotspotOverlap)
	}
	// Monotone but non-linear: Spearman stays 1, Pearson does not.
	z := []float64{1, 4, 9, 16, 25, 36, 49, 64}
	c = Correlate(x, z, 2)
	if math.Abs(c.Spearman-1) > 1e-12 {
		t.Errorf("monotone spearman = %v, want 1", c.Spearman)
	}
	if c.Pearson >= 1 {
		t.Errorf("monotone pearson = %v, want < 1", c.Pearson)
	}
	// Non-finite pairs are dropped.
	xi := []float64{1, 2, math.Inf(1), 4}
	yi := []float64{1, 2, 3, math.NaN()}
	c = Correlate(xi, yi, 1)
	if c.Tiles != 2 {
		t.Errorf("finite filter kept %d pairs, want 2", c.Tiles)
	}
	// Constant input: correlation defined as 0, no NaN escapes.
	c = Correlate([]float64{1, 1, 1}, []float64{1, 2, 3}, 1)
	if c.Pearson != 0 || c.Spearman != 0 {
		t.Errorf("constant input: pearson=%v spearman=%v, want 0,0", c.Pearson, c.Spearman)
	}
}

// BenchmarkRecompute measures the full-recompute throughput benchest
// reports as tiles/s.
func BenchmarkRecompute(b *testing.B) {
	d, g := testDesign(b, 2000, 17)
	e := New(g, Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Recompute(d)
	}
}

// BenchmarkIncrementalMove measures the per-move incremental update cost.
func BenchmarkIncrementalMove(b *testing.B) {
	d, g := testDesign(b, 2000, 17)
	ms := movables(d)
	cache := incr.New(d)
	est := New(g, Options{})
	Attach(est, cache)
	a := geom.Point{X: g.Origin.X + g.TileW, Y: g.Origin.Y + g.TileH}
	c2 := geom.Point{X: g.Origin.X + float64(g.NX-2)*g.TileW, Y: g.Origin.Y + float64(g.NY-2)*g.TileH}
	ci := ms[len(ms)/2]
	cache.Move(ci, a)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			cache.Move(ci, c2)
		} else {
			cache.Move(ci, a)
		}
	}
}

// TestNetDemandWeightScalesAndStaysLocal pins RUDY basics on a single
// horizontal 2-pin net: a net's box demand scales linearly with its
// weight, it totals about one horizontal track per tile spanned, and
// tiles far from the net (and its pins) carry no demand.
func TestNetDemandWeightScalesAndStaysLocal(t *testing.T) {
	b := db.NewBuilder("r", geom.NewRect(0, 0, 100, 100))
	a := b.AddStdCell("a", 2, 2)
	c := b.AddStdCell("b", 2, 2)
	b.AddNet("n", 3, b.CenterConn(a), b.CenterConn(c))
	d := b.MustDesign()
	d.Cells[a].Pos = geom.Point{X: 9, Y: 49}  // center (10,50), tile (1,5)
	d.Cells[c].Pos = geom.Point{X: 89, Y: 49} // center (90,50), tile (9,5)
	e := New(route.NewUniformGrid(geom.NewRect(0, 0, 100, 100), 10, 10, 10, 10), Options{})

	// Tile (4,5) lies inside the net's box and holds no pin, so its
	// demand is the box's alone.
	mid := 5*e.NX + 4
	e.Recompute(d)
	h3, v3 := e.SnapshotDemand()
	d.Nets[0].Weight = 1
	e.Recompute(d)
	h1, v1 := e.SnapshotDemand()
	if h1[mid] <= 0 {
		t.Fatal("no horizontal demand on a tile the net spans")
	}
	if h3[mid] != 3*h1[mid] || v3[mid] != 3*v1[mid] {
		t.Errorf("weight 3 demand (h %d, v %d) is not 3× weight 1 demand (h %d, v %d)", h3[mid], v3[mid], h1[mid], v1[mid])
	}
	// The box spans 8 tile columns; one track across each, plus the two
	// pins' escape demand.
	var tot int64
	for _, v := range h1 {
		tot += v
	}
	if tracks := float64(tot) / fpScale; tracks < 4 || tracks > 12 {
		t.Errorf("total horizontal demand %.2f tracks, want about 8", tracks)
	}
	if far := 0*e.NX + 4; h1[far] != 0 || v1[far] != 0 || h3[far] != 0 || v3[far] != 0 {
		t.Errorf("demand far from the net: weight 1 (h %d, v %d), weight 3 (h %d, v %d)", h1[far], v1[far], h3[far], v3[far])
	}
}

// TestACEProfileHandSet pins the estimator's ACE statistic on hand-set
// demands: the mean of the top x% of the per-tile directional ratios, at
// least one, with directions of zero capacity left out of both the
// ranking and the count.
func TestACEProfileHandSet(t *testing.T) {
	g := route.NewUniformGrid(geom.NewRect(0, 0, 100, 100), 10, 10, 10, 10)
	e := New(g, Options{})
	e.hDem[0] = fp(30)
	e.vDem[5] = fp(20)
	e.hDem[17] = fp(15)
	e.vDem[99] = fp(10)
	for i := 40; i < 45; i++ {
		e.hDem[i] = fp(5)
	}
	// A direction with demand but no capacity is not ranked, so 199
	// ratios count.
	e.vCap[60] = 0
	e.vDem[60] = fp(100)
	// k = max(1, ⌊199·x/100⌋) = 1, 1, 3, 9 over ratios 3, 2, 1.5, 1,
	// 0.5×5, then zeros.
	want := []float64{3, 3, 6.5 / 3, 10.0 / 9}
	if got := e.ACEProfile(); !slices.Equal(got, want) {
		t.Errorf("ACEProfile = %v, want %v", got, want)
	}
}
