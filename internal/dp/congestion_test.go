package dp

import (
	"testing"

	"repro/internal/db"
	"repro/internal/estimate"
	"repro/internal/geom"
	"repro/internal/route"
)

// tileProbe is a cell centre and the tile the congestion guard must read
// for it; tx < 0 means no tile, so no cost.
type tileProbe struct {
	name   string
	x, y   float64
	tx, ty int
}

// tileProbes cover the first and last tile of a 10×10 grid of 10×10
// tiles from the origin, and points just outside it on each side. The
// tile is the centre's offset over the tile size truncated toward zero,
// so half a tile left of or below the grid still reads tile 0, and a
// tile and a half does not.
var tileProbes = []tileProbe{
	{"first tile", 5, 5, 0, 0},
	{"last tile", 95, 95, 9, 9},
	{"half a tile left", -5, 5, 0, 0},
	{"half a tile below", 5, -5, 0, 0},
	{"a tile and a half left", -15, 5, -1, -1},
	{"a tile and a half below", 5, -15, -1, -1},
	{"just right", 100.5, 5, -1, -1},
	{"just above", 5, 100.5, -1, -1},
}

// tileRuleDesign is one 4×10 cell centred in the first tile of a 100×100
// die, netted to a terminal in the last tile, whose own second net gives
// the last tile more pins than the first.
func tileRuleDesign() *db.Design {
	b := db.NewBuilder("tiles", geom.NewRect(0, 0, 100, 100))
	a := b.AddStdCell("a", 4, 10)
	t0 := b.AddTerminal("t0", geom.Point{X: 95, Y: 95})
	t1 := b.AddTerminal("t1", geom.Point{X: 96, Y: 96})
	b.AddNet("n0", 1, b.CenterConn(a), db.Conn{Cell: t0})
	b.AddNet("n1", 1, db.Conn{Cell: t0}, db.Conn{Cell: t1})
	b.MakeRows(10, 1)
	d := b.MustDesign()
	d.Cells[a].Pos = geom.Point{X: 3, Y: 0}
	return d
}

// checkTileRule prices cell 0 centred at every probe and compares it
// with the penalty of the probe's tile as at reports it.
func checkTileRule(t *testing.T, o *optimizer, at func(tx, ty int) float64) {
	t.Helper()
	for _, p := range tileProbes {
		want := 0.0
		if p.tx >= 0 {
			over := at(p.tx, p.ty) - 1
			if over <= 0 {
				t.Fatalf("%s: tile (%d,%d) is not overloaded, so the probe tells nothing", p.name, p.tx, p.ty)
			}
			want = 0.5 * over * 4 * 10
		}
		pos := geom.Point{X: p.x - 2, Y: p.y - 5}
		if got := o.congCostAt(0, pos); got != want {
			t.Errorf("%s: cost %v, want %v", p.name, got, want)
		}
	}
}

// TestCongCostTileRuleRouted pins the tile rule through the routed
// snapshot, every tile overloaded by a different amount.
func TestCongCostTileRuleRouted(t *testing.T) {
	d := tileRuleDesign()
	m := &route.CongestionMap{
		Tiles: route.Tiles{NX: 10, NY: 10, TileW: 10, TileH: 10},
		Cong:  make([]float64, 100),
	}
	for i := range m.Cong {
		m.Cong[i] = 2 + float64(i)/100
	}
	o := newOptimizer(d, Options{Routed: m}.withDefaults())
	checkTileRule(t, o, func(tx, ty int) float64 { return m.Cong[ty*10+tx] })
	if got, want := o.congCostAt(0, geom.Point{X: 3, Y: 0}), 0.5*1.0*4*10; got != want {
		t.Errorf("first tile cost %v, want %v", got, want)
	}
}

// TestCongCostTileRuleEstimate pins the same rule through the live
// estimator, over a grid whose capacity is so small that every tile the
// net's box covers is overloaded.
func TestCongCostTileRuleEstimate(t *testing.T) {
	d := tileRuleDesign()
	g := route.NewUniformGrid(d.Die, 10, 10, 1e-3, 1e-3)
	est := estimate.New(g, estimate.Options{Workers: 1})
	o := newOptimizer(d, Options{Estimate: est}.withDefaults())
	if est.CongestionAt(0, 0) == est.CongestionAt(9, 9) {
		t.Fatal("first and last tile read alike, so the probes cannot tell them apart")
	}
	checkTileRule(t, o, est.CongestionAt)
}
