package dp

import (
	"testing"

	"repro/internal/db"
	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/legal"
)

func TestPermutations(t *testing.T) {
	if got := len(permutations(3)); got != 6 {
		t.Errorf("3! = %d", got)
	}
	if got := len(permutations(1)); got != 1 {
		t.Errorf("1! = %d", got)
	}
	seen := map[string]bool{}
	for _, p := range permutations(3) {
		key := ""
		for _, v := range p {
			key += string(rune('0' + v))
		}
		if seen[key] {
			t.Errorf("duplicate permutation %s", key)
		}
		seen[key] = true
	}
}

// crossed builds two cell pairs whose nets are crossed; a global swap of
// the two middle cells uncrosses them.
func TestGlobalSwapUncrosses(t *testing.T) {
	b := db.NewBuilder("sw", geom.NewRect(0, 0, 100, 10))
	l := b.AddTerminal("tl", geom.Point{X: 0, Y: 5})
	r := b.AddTerminal("tr", geom.Point{X: 100, Y: 5})
	a := b.AddStdCell("a", 4, 10)
	c := b.AddStdCell("c", 4, 10)
	b.AddNet("nl", 1, db.Conn{Cell: l}, b.CenterConn(a))
	b.AddNet("nr", 1, db.Conn{Cell: r}, b.CenterConn(c))
	b.MakeRows(10, 1)
	d := b.MustDesign()
	// a (connected left) sits right; c (connected right) sits left.
	d.Cells[a].Pos = geom.Point{X: 80, Y: 0}
	d.Cells[c].Pos = geom.Point{X: 20, Y: 0}
	before := d.HPWL()
	res := Optimize(d, Options{Passes: 1})
	if res.Swaps < 1 {
		t.Fatalf("expected a swap, got %+v", res)
	}
	if res.After >= before {
		t.Errorf("HPWL did not improve: %v -> %v", before, res.After)
	}
	if d.Cells[a].Pos.X > d.Cells[c].Pos.X {
		t.Error("cells not uncrossed")
	}
}

func TestRowShiftMovesTowardNet(t *testing.T) {
	b := db.NewBuilder("sh", geom.NewRect(0, 0, 100, 10))
	tr := b.AddTerminal("t", geom.Point{X: 90, Y: 5})
	a := b.AddStdCell("a", 4, 10)
	b.AddNet("n", 1, db.Conn{Cell: tr}, b.CenterConn(a))
	b.MakeRows(10, 1)
	d := b.MustDesign()
	d.Cells[a].Pos = geom.Point{X: 10, Y: 0}
	res := Optimize(d, Options{Passes: 1})
	if res.Shifts < 1 {
		t.Fatalf("expected a shift: %+v", res)
	}
	if got := d.Cells[a].Pos.X; got < 80 {
		t.Errorf("cell only moved to %v", got)
	}
}

func TestLocalReorderFixesTriple(t *testing.T) {
	b := db.NewBuilder("re", geom.NewRect(0, 0, 60, 10))
	tl := b.AddTerminal("tl", geom.Point{X: 0, Y: 5})
	tr := b.AddTerminal("tr", geom.Point{X: 60, Y: 5})
	a := b.AddStdCell("a", 4, 10) // wants left
	c := b.AddStdCell("c", 4, 10) // wants right
	e := b.AddStdCell("e", 4, 10) // middle, unconnected
	b.AddNet("nl", 1, db.Conn{Cell: tl}, b.CenterConn(a))
	b.AddNet("nr", 1, db.Conn{Cell: tr}, b.CenterConn(c))
	b.MakeRows(10, 1)
	d := b.MustDesign()
	// Order on the row: c, e, a (worst case).
	d.Cells[c].Pos = geom.Point{X: 20, Y: 0}
	d.Cells[e].Pos = geom.Point{X: 24, Y: 0}
	d.Cells[a].Pos = geom.Point{X: 28, Y: 0}
	before := d.HPWL()
	res := Optimize(d, Options{Passes: 2})
	if res.After >= before {
		t.Errorf("HPWL did not improve: %v -> %v (%+v)", before, res.After, res)
	}
	if d.Cells[a].Pos.X > d.Cells[c].Pos.X {
		t.Error("reorder did not place a left of c")
	}
}

func TestOptimizePreservesLegality(t *testing.T) {
	d := gen.MustGenerate(gen.Config{
		Name: "dp", Seed: 21, NumStdCells: 300, NumFixedMacros: 2,
		NumMovableMacros: 1, NumModules: 3, NumFences: 2, NumTerminals: 8,
		TargetUtil: 0.55,
	})
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
	if _, err := legal.LegalizeCells(d); err != nil {
		t.Fatal(err)
	}
	before := d.HPWL()
	res := Optimize(d, Options{Passes: 2})
	if res.After > before+1e-6 {
		t.Errorf("detailed placement worsened HPWL: %v -> %v", before, res.After)
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

func TestFenceGuardBlocksEscapes(t *testing.T) {
	b := db.NewBuilder("fg", geom.NewRect(0, 0, 100, 10))
	rg := b.AddRegion("f", geom.NewRect(0, 0, 30, 10))
	tr := b.AddTerminal("t", geom.Point{X: 95, Y: 5})
	a := b.AddStdCell("a", 4, 10)
	b.AddNet("n", 1, db.Conn{Cell: tr}, b.CenterConn(a))
	b.MakeRows(10, 1)
	d := b.MustDesign()
	d.Cells[a].Region = rg
	d.Cells[a].Pos = geom.Point{X: 10, Y: 0}
	Optimize(d, Options{Passes: 2})
	if d.FenceViolations() != 0 {
		t.Errorf("fenced cell escaped to %v", d.Cells[a].Pos)
	}
	// It may shift right toward the net but only to the fence edge.
	if d.Cells[a].Pos.X > 26 {
		t.Errorf("cell beyond fence interior: %v", d.Cells[a].Pos.X)
	}
}

func TestCongestionPenaltyDetersHotMoves(t *testing.T) {
	// A cell pulled rightward by its net; the right half of the die is a
	// routed hot spot. Without the penalty the shift goes right; with a
	// strong penalty it stays put.
	build := func() *db.Design {
		b := db.NewBuilder("cg", geom.NewRect(0, 0, 100, 10))
		tr := b.AddTerminal("t", geom.Point{X: 95, Y: 5})
		a := b.AddStdCell("a", 4, 10)
		b.AddNet("n", 1, db.Conn{Cell: tr}, b.CenterConn(a))
		b.MakeRows(10, 1)
		d := b.MustDesign()
		d.Cells[a].Pos = geom.Point{X: 10, Y: 0}
		return d
	}
	hot := make([]float64, 10) // 10x1 tiles of 10x10
	for tx := 5; tx < 10; tx++ {
		hot[tx] = 3.0 // 300% overload on the right half
	}
	dFree := build()
	Optimize(dFree, Options{Passes: 1})
	dCong := build()
	Optimize(dCong, Options{
		Passes:      1,
		Congestion:  hot,
		CongNX:      10,
		CongTileW:   10,
		CongTileH:   10,
		CongPenalty: 10,
	})
	xFree := dFree.Cells[1].Pos.X
	xCong := dCong.Cells[1].Pos.X
	if xFree < 80 {
		t.Fatalf("unpenalized shift only reached %v", xFree)
	}
	if xCong >= 50 {
		t.Errorf("congestion-aware shift entered the hot zone: x=%v", xCong)
	}
}
