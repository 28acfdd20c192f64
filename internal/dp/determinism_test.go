package dp

import (
	"bytes"
	"testing"

	"repro/internal/bookshelf"
	"repro/internal/db"
	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/legal"
	"repro/internal/route"
)

// scatteredDesign regenerates the same design and deterministic scatter
// for every call, so per-worker-count runs start from identical state.
func scatteredDesign(t testing.TB) *db.Design {
	t.Helper()
	return scattered(gen.Config{
		Name: "det", Seed: 97, NumStdCells: 400, NumFixedMacros: 2,
		NumMovableMacros: 1, NumModules: 3, NumFences: 2, NumTerminals: 8,
		TargetUtil: 0.55,
	})
}

// scattered generates cfg, spreads its movable cells over the die in a
// fixed pattern (fenced cells pulled into their fence) and legalizes the
// macros.
func scattered(cfg gen.Config) *db.Design {
	d := gen.MustGenerate(cfg)
	for i, ci := range d.Movable() {
		c := &d.Cells[ci]
		c.SetCenter(geom.Point{
			X: d.Die.Lo.X + float64((i*37)%101)/101*d.Die.W(),
			Y: d.Die.Lo.Y + float64((i*53)%97)/97*d.Die.H(),
		})
		if rg := d.CellRegion(ci); rg != db.NoRegion {
			c.SetCenter(d.Regions[rg].Nearest(c.Center()))
		}
	}
	legal.LegalizeMacros(d)
	return d
}

// congestionFor builds a synthetic 8×8 congestion map with a hot stripe,
// positioned over the die.
func congestionFor(d *db.Design, opt *Options) {
	const n = 8
	m := &route.CongestionMap{
		Tiles: route.Tiles{NX: n, NY: n, Origin: d.Die.Lo, TileW: d.Die.W() / n, TileH: d.Die.H() / n},
		Cong:  make([]float64, n*n),
	}
	for ty := 0; ty < n; ty++ {
		for tx := 0; tx < n; tx++ {
			u := 0.4
			if tx >= 3 && tx <= 4 {
				u = 1.6
			}
			m.Cong[ty*n+tx] = u
		}
	}
	opt.Routed = m
}

// placement runs legalization and detailed placement at the given worker
// count on a fresh copy of the scattered design and renders the result as
// Bookshelf .pl bytes.
func placement(t *testing.T, workers int, congested bool) []byte {
	t.Helper()
	d := scatteredDesign(t)
	if _, err := legal.LegalizeCellsOpt(d, legal.Options{Workers: workers}); err != nil {
		t.Fatal(err)
	}
	opt := Options{Passes: 2, Workers: workers}
	if congested {
		congestionFor(d, &opt)
	}
	Optimize(d, opt)
	var buf bytes.Buffer
	if err := bookshelf.WritePl(&buf, d); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPlacementDeterministicAcrossWorkers requires byte-identical .pl
// output through legalize + detailed placement for every worker count:
// workers decide only who evaluates proposals, never what commits.
func TestPlacementDeterministicAcrossWorkers(t *testing.T) {
	for _, congested := range []bool{false, true} {
		ref := placement(t, 1, congested)
		for _, w := range []int{2, 8} {
			got := placement(t, w, congested)
			if !bytes.Equal(ref, got) {
				t.Errorf("congested=%v: .pl output differs between workers=1 and workers=%d",
					congested, w)
			}
		}
	}
}

// totalCost is the optimizer's objective recomputed from scratch: HPWL
// plus the congestion penalty of every movable standard cell in place.
func totalCost(d *db.Design, opt Options) float64 {
	o := newOptimizer(d, opt.withDefaults())
	tot := d.HPWL()
	for _, ci := range o.cells {
		tot += o.congCostAt(ci, d.Cells[ci].Pos)
	}
	return tot
}

// TestOptimizeInvariants runs congestion-aware detailed placement and
// checks the safety net: the combined objective never worsens, and no
// overlap, fence, or die violations appear.
func TestOptimizeInvariants(t *testing.T) {
	d := scatteredDesign(t)
	if _, err := legal.LegalizeCells(d); err != nil {
		t.Fatal(err)
	}
	opt := Options{Passes: 2, Workers: 4}
	congestionFor(d, &opt)
	before := totalCost(d, opt)
	res := Optimize(d, opt)
	after := totalCost(d, opt)
	if after > before+1e-6 {
		t.Errorf("combined objective worsened: %v -> %v", before, after)
	}
	if v := d.OverlapViolations(); v != 0 {
		t.Errorf("overlaps introduced: %d", v)
	}
	if v := d.FenceViolations(); v != 0 {
		t.Errorf("fence violations introduced: %d", v)
	}
	if v := d.OutOfDie(); v != 0 {
		t.Errorf("cells pushed out of die: %d", v)
	}
	if res.Swaps+res.Reorders+res.Shifts == 0 {
		t.Error("optimizer made no moves at all on a scattered design")
	}
}
