package route

import (
	"math"
	"testing"

	"repro/internal/db"
	"repro/internal/gen"
	"repro/internal/geom"
)

func uniform(nx, ny int, cap float64) *Grid {
	return NewUniformGrid(geom.NewRect(0, 0, float64(nx*10), float64(ny*10)), nx, ny, cap, cap)
}

func TestGridIndexing(t *testing.T) {
	g := uniform(4, 3, 10)
	if len(g.HCap) != 3*3 || len(g.VCap) != 4*2 {
		t.Fatalf("edge counts: H=%d V=%d", len(g.HCap), len(g.VCap))
	}
	if tx, ty := g.TileOf(geom.Point{X: 5, Y: 5}); tx != 0 || ty != 0 {
		t.Errorf("TileOf(5,5) = %d,%d", tx, ty)
	}
	if tx, ty := g.TileOf(geom.Point{X: 39.9, Y: 29.9}); tx != 3 || ty != 2 {
		t.Errorf("TileOf(39.9,29.9) = %d,%d", tx, ty)
	}
	// Out-of-range points clamp.
	if tx, ty := g.TileOf(geom.Point{X: -5, Y: 500}); tx != 0 || ty != 2 {
		t.Errorf("clamped TileOf = %d,%d", tx, ty)
	}
	if r := g.TileRect(1, 1); r != geom.NewRect(10, 10, 20, 20) {
		t.Errorf("TileRect = %v", r)
	}
}

func TestGridFromRouteInfo(t *testing.T) {
	b := db.NewBuilder("g", geom.NewRect(0, 0, 100, 100))
	fm := b.AddMacro("m", 30, 30, true)
	b.SetRoute(&db.RouteInfo{
		GridX: 10, GridY: 10, Layers: 2,
		HorizCap: []float64{20, 0}, VertCap: []float64{0, 20},
		MinWidth: []float64{1, 1}, MinSpacing: []float64{1, 1}, ViaSpacing: []float64{0, 0},
		TileW: 10, TileH: 10,
		BlockagePorosity: 0,
		Blockages:        []db.RouteBlockage{{Cell: fm, Layers: []int{0, 1}}},
	})
	d := b.MustDesign()
	d.Cells[fm].Pos = geom.Point{X: 40, Y: 40}
	g, err := NewGrid(d)
	if err != nil {
		t.Fatal(err)
	}
	// An edge far from the macro has full capacity.
	if got := g.HCap[g.HIdx(0, 0)]; got != 20 {
		t.Errorf("clear edge capacity = %v", got)
	}
	// Edges fully under the macro (tiles 4..6, rows 4..6) lose capacity.
	under := g.HCap[g.HIdx(4, 5)]
	if under > 1 {
		t.Errorf("blocked edge capacity = %v, want ~0", under)
	}
}

func TestBlockagePorosityKeepsSomeCapacity(t *testing.T) {
	b := db.NewBuilder("g", geom.NewRect(0, 0, 100, 100))
	fm := b.AddMacro("m", 30, 30, true)
	b.SetRoute(&db.RouteInfo{
		GridX: 10, GridY: 10, Layers: 1,
		HorizCap: []float64{20}, VertCap: []float64{20},
		MinWidth: []float64{1}, MinSpacing: []float64{1}, ViaSpacing: []float64{0},
		TileW: 10, TileH: 10,
		BlockagePorosity: 0.5,
		Blockages:        []db.RouteBlockage{{Cell: fm, Layers: []int{0}}},
	})
	d := b.MustDesign()
	d.Cells[fm].Pos = geom.Point{X: 40, Y: 40}
	g, err := NewGrid(d)
	if err != nil {
		t.Fatal(err)
	}
	under := g.HCap[g.HIdx(4, 5)]
	if under < 9 {
		t.Errorf("porous blockage should keep ≥ half capacity, got %v", under)
	}
}

func TestPatternRouteLShape(t *testing.T) {
	g := uniform(10, 10, 10)
	r := NewRouter(g, RouterOptions{})
	path := r.patternRoute(tile{1, 1}, tile{5, 4})
	if len(path) != 1+4+3 {
		t.Fatalf("path length %d, want 8 tiles", len(path))
	}
	if path[0] != (tile{1, 1}) || path[len(path)-1] != (tile{5, 4}) {
		t.Fatalf("endpoints wrong: %v", path)
	}
	// Path must be connected: every hop 4-adjacent.
	for i := 0; i+1 < len(path); i++ {
		dx := abs(path[i].x-path[i+1].x) + abs(path[i].y-path[i+1].y)
		if dx != 1 {
			t.Fatalf("path not connected at %d: %v -> %v", i, path[i], path[i+1])
		}
	}
}

func TestPatternRouteAvoidsCongestion(t *testing.T) {
	g := uniform(10, 10, 2)
	r := NewRouter(g, RouterOptions{})
	// Saturate the straight horizontal corridor at y=0.
	for x := 0; x < 9; x++ {
		g.HDem[g.HIdx(x, 0)] = 2
	}
	path := r.patternRoute(tile{0, 0}, tile{9, 0})
	// The chosen route should leave row 0.
	offRow := false
	for _, tl := range path {
		if tl.y != 0 {
			offRow = true
		}
	}
	if !offRow {
		t.Error("pattern route ignored congestion on the straight corridor")
	}
}

func TestMazeRouteFindsDetour(t *testing.T) {
	g := uniform(8, 8, 1)
	r := NewRouter(g, RouterOptions{})
	// Wall of zero capacity across column 3..4 except at the top row.
	for y := 0; y < 7; y++ {
		g.HCap[g.HIdx(3, y)] = 0
	}
	path := r.mazeRoute(tile{0, 3}, tile{7, 3})
	if path[0] != (tile{0, 3}) || path[len(path)-1] != (tile{7, 3}) {
		t.Fatalf("endpoints wrong")
	}
	// Must cross column 3→4 at y=7 (the only free horizontal edge).
	crossedAtTop := false
	for i := 0; i+1 < len(path); i++ {
		if path[i].y == 7 && path[i+1].y == 7 &&
			((path[i].x == 3 && path[i+1].x == 4) || (path[i].x == 4 && path[i+1].x == 3)) {
			crossedAtTop = true
		}
	}
	if !crossedAtTop {
		t.Errorf("maze route did not detour through the gap: %v", path)
	}
}

// routable builds a small design and routes it end to end.
func TestRouteDesignEndToEnd(t *testing.T) {
	d := gen.MustGenerate(gen.Config{
		Name: "rt", Seed: 5, NumStdCells: 200, NumFixedMacros: 2,
		NumMovableMacros: 1, NumModules: 2, NumFences: 1, NumTerminals: 8,
		TargetUtil: 0.6,
	})
	// Spread cells deterministically so nets have extent.
	for i, ci := range d.Movable() {
		c := &d.Cells[ci]
		c.SetCenter(geom.Point{
			X: d.Die.Lo.X + float64((i*37)%97)/97*d.Die.W(),
			Y: d.Die.Lo.Y + float64((i*61)%89)/89*d.Die.H(),
		})
	}
	g, err := NewGrid(d)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRouter(g, RouterOptions{})
	res := r.RouteDesign(d)
	if res.Segments == 0 || res.WirelengthTiles == 0 {
		t.Fatalf("nothing routed: %+v", res)
	}
	// Demand conservation: sum of demands equals total routed tiles.
	var dem float64
	for _, v := range g.HDem {
		dem += v
	}
	for _, v := range g.VDem {
		dem += v
	}
	if math.Abs(dem-float64(res.WirelengthTiles)) > 1e-6 {
		t.Errorf("demand %v != routed tiles %d", dem, res.WirelengthTiles)
	}
}

func TestRRRReducesOverflow(t *testing.T) {
	// Bus design: 12 horizontal nets concentrated on two middle rows of a
	// 2-track fabric. The pattern pass overloads those rows; rip-up must
	// spread nets across neighbouring rows (plenty of free capacity, and
	// each source tile holds at most 6 nets against 6 escape tracks, so a
	// legal solution exists).
	b := db.NewBuilder("bus", geom.NewRect(0, 0, 100, 100))
	var conns []int
	for i := 0; i < 12; i++ {
		l := b.AddStdCell(name("l", i), 2, 2)
		r := b.AddStdCell(name("r", i), 2, 2)
		b.AddNet(name("n", i), 1, b.CenterConn(l), b.CenterConn(r))
		conns = append(conns, l, r)
	}
	d := b.MustDesign()
	for i := 0; i < 12; i++ {
		y := 44.0
		if i%2 == 1 {
			y = 54.0
		}
		d.Cells[conns[2*i]].Pos = geom.Point{X: 2, Y: y}
		d.Cells[conns[2*i+1]].Pos = geom.Point{X: 94, Y: y}
	}
	g := uniform(10, 10, 2)
	rt := NewRouter(g, RouterOptions{MaxRRRIters: 8})
	res := rt.RouteDesign(d)
	if res.InitialOverflow <= 0 {
		t.Fatalf("construction failed to overflow initially: %+v", res)
	}
	if res.Overflow >= res.InitialOverflow {
		t.Errorf("RRR did not reduce overflow: %v -> %v", res.InitialOverflow, res.Overflow)
	}
	if res.Overflow > 8 {
		t.Errorf("RRR left overflow %v (max cong %v)", res.Overflow, res.MaxCongestion)
	}
	if res.RRRIters == 0 {
		t.Error("expected rip-up rounds to run")
	}
}

func name(p string, i int) string { return p + string(rune('a'+i/26)) + string(rune('a'+i%26)) }

func TestACEAndRC(t *testing.T) {
	g := uniform(11, 2, 10) // 10 H edges per row, 2 rows; 11 V edges
	// Make exactly one edge 200% congested, everything else 0.
	g.HDem[g.HIdx(0, 0)] = 20
	nEdges := len(g.HCap) + len(g.VCap)
	ace05 := g.ACE(0.5)
	// Top 0.5% of 31 edges = 1 edge -> ratio 2.0.
	if math.Abs(ace05-2.0) > 1e-9 {
		t.Errorf("ACE(0.5) = %v, want 2 (edges=%d)", ace05, nEdges)
	}
	prof := g.ACEProfile()
	if prof[0] < prof[3] {
		t.Error("ACE must be non-increasing in percentile")
	}
	rc := RC(prof)
	if rc < 100 {
		t.Errorf("RC = %v", rc)
	}
	// Un-congested grid: RC floors at 100.
	g2 := uniform(11, 2, 10)
	if got := RC(g2.ACEProfile()); got != 100 {
		t.Errorf("empty grid RC = %v, want 100", got)
	}
}

func TestScaledHPWL(t *testing.T) {
	if got := ScaledHPWL(1000, 100); got != 1000 {
		t.Errorf("RC=100 must not scale: %v", got)
	}
	if got := ScaledHPWL(1000, 110); math.Abs(got-1300) > 1e-9 {
		t.Errorf("RC=110 -> %v, want 1300", got)
	}
}

func TestTileCongestionMap(t *testing.T) {
	g := uniform(4, 4, 10)
	g.HDem[g.HIdx(1, 2)] = 15 // 150% on edge (1,2)-(2,2)
	m := g.TileCongestion()
	// The flanking tiles share the hot edge's demand over their total
	// incident capacity; they must be the hottest tiles and equally so.
	if m[2*4+1] <= m[0] || math.Abs(m[2*4+1]-m[2*4+2]) > 1e-9 {
		t.Errorf("tiles flanking hot edge: %v %v (cold %v)", m[9], m[10], m[0])
	}
	if m[0] != 0 {
		t.Errorf("cold tile congested: %v", m[0])
	}
	// A tile's congestion reflects demand/total-capacity: tile (1,2) has
	// 4 incident edges of capacity 10 and one carries 15 tracks.
	if math.Abs(m[2*4+1]-15.0/40.0) > 1e-9 {
		t.Errorf("tile (1,2) congestion = %v, want 0.375", m[9])
	}
}

func TestEvaluateDesign(t *testing.T) {
	d := gen.MustGenerate(gen.Config{
		Name: "ev", Seed: 6, NumStdCells: 150, NumFixedMacros: 2,
		NumModules: 2, NumFences: 1, NumTerminals: 8, TargetUtil: 0.6,
	})
	for i, ci := range d.Movable() {
		c := &d.Cells[ci]
		c.SetCenter(geom.Point{
			X: d.Die.Lo.X + float64((i*37)%97)/97*d.Die.W(),
			Y: d.Die.Lo.Y + float64((i*61)%89)/89*d.Die.H(),
		})
	}
	m, err := EvaluateDesign(d, RouterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m.HPWL <= 0 || m.RC < 100 || m.ScaledHPWL < m.HPWL {
		t.Errorf("implausible metrics: %+v", m)
	}
	if len(m.ACE) != len(ACEPercentiles) {
		t.Errorf("ACE profile size %d", len(m.ACE))
	}
	if m.String() == "" {
		t.Error("empty String()")
	}
}

func TestEvaluateDesignWithoutRouteInfo(t *testing.T) {
	b := db.NewBuilder("no", geom.NewRect(0, 0, 10, 10))
	b.AddStdCell("a", 1, 1)
	d := b.MustDesign()
	if _, err := EvaluateDesign(d, RouterOptions{}); err == nil {
		t.Error("expected error for design without route info")
	}
}

func TestSampleBetween(t *testing.T) {
	s := sampleBetween(3, 3, 4)
	if len(s) != 1 || s[0] != 3 {
		t.Errorf("degenerate sample: %v", s)
	}
	s = sampleBetween(0, 3, 8)
	if len(s) != 4 {
		t.Errorf("small span should enumerate: %v", s)
	}
	s = sampleBetween(0, 100, 4)
	if s[0] != 0 || s[len(s)-1] != 100 {
		t.Errorf("endpoints missing: %v", s)
	}
	if len(s) > 6 {
		t.Errorf("too many samples: %v", s)
	}
	s = sampleBetween(100, 0, 4) // reversed input
	if s[0] != 0 || s[len(s)-1] != 100 {
		t.Errorf("reversed endpoints: %v", s)
	}
}

// TestWarmRerouteNoAllocs pins the disabled-telemetry contract documented
// on RouterOptions.Obs: with a nil recorder, a warmed-up rerouteSegment
// (the hot path of every RRR round) performs zero allocations.
func TestWarmRerouteNoAllocs(t *testing.T) {
	g, fx := benchDesign(800)
	r := NewRouter(g, RouterOptions{Workers: 1})
	r.RouteDesign(fx.d)
	best, span := 0, -1
	for si := range r.segs {
		s := &r.segs[si]
		if d := abs(s.a.x-s.b.x) + abs(s.a.y-s.b.y); d > span {
			span, best = d, si
		}
	}
	s := &r.segs[best]
	r.snapshotCosts()
	ss := r.state(0)
	s.path = r.rerouteSegment(ss, s) // warm the path buffer
	allocs := testing.AllocsPerRun(100, func() {
		s.path = r.rerouteSegment(ss, s)
	})
	if allocs != 0 {
		t.Errorf("warm reroute with telemetry disabled allocates %.1f/op, want 0", allocs)
	}
}
