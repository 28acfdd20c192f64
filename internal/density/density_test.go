package density

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// penaltyWithGradient evaluates the penalty and adds its gradient at the
// same positions.
func penaltyWithGradient(g *Grid, objs []Obj, x, y, gx, gy []float64) float64 {
	v := g.Penalty(objs, x, y)
	g.PenaltyGradient(objs, x, y, gx, gy)
	return v
}

// DensityMap returns the exact-overlap density (demand / free bin area)
// per bin: the unsmoothed reference the bell-shaped penalty is checked
// against.
func (g *Grid) DensityMap(objs []Obj, x, y []float64) []float64 {
	nb := g.NX * g.NY
	dem := make([]float64, nb)
	for i := range objs {
		r := geom.NewRect(x[i]-objs[i].HalfW, y[i]-objs[i].HalfH, x[i]+objs[i].HalfW, y[i]+objs[i].HalfH)
		r = r.Intersect(g.Die)
		if r.Empty() {
			continue
		}
		scale := objs[i].Area / (4 * objs[i].HalfW * objs[i].HalfH)
		x0, x1 := g.binRangeX(r.Lo.X, r.Hi.X)
		y0, y1 := g.binRangeY(r.Lo.Y, r.Hi.Y)
		for by := y0; by <= y1; by++ {
			for bx := x0; bx <= x1; bx++ {
				dem[by*g.NX+bx] += scale * g.binRect(bx, by).OverlapArea(r)
			}
		}
	}
	binArea := g.BinW * g.BinH
	out := make([]float64, nb)
	for b := 0; b < nb; b++ {
		free := binArea - g.base[b]
		if free <= 1e-12 {
			out[b] = 0
			if dem[b] > 0 {
				out[b] = math.Inf(1)
			}
			continue
		}
		out[b] = dem[b] / free
	}
	return out
}

// TotalDeposited returns the sum of smoothed demand after the last Penalty
// call; used by area-conservation tests.
func (g *Grid) TotalDeposited() float64 {
	var s float64
	for _, d := range g.demand {
		s += d
	}
	return s
}

func newTestGrid() *Grid {
	return NewGrid(geom.NewRect(0, 0, 100, 100), 10, 10, 0.8)
}

func TestGridGeometry(t *testing.T) {
	g := newTestGrid()
	if g.BinW != 10 || g.BinH != 10 {
		t.Fatalf("bin dims %v x %v", g.BinW, g.BinH)
	}
	r := g.binRect(0, 0)
	if r != geom.NewRect(0, 0, 10, 10) {
		t.Errorf("binRect(0,0) = %v", r)
	}
	r = g.binRect(9, 9)
	if r != geom.NewRect(90, 90, 100, 100) {
		t.Errorf("binRect(9,9) = %v", r)
	}
}

func TestAddFixedAccounting(t *testing.T) {
	g := newTestGrid()
	g.AddFixed(geom.NewRect(0, 0, 15, 10))
	if got := g.Base(0, 0); got != 100 {
		t.Errorf("bin (0,0) base = %v, want 100", got)
	}
	if got := g.Base(1, 0); got != 50 {
		t.Errorf("bin (1,0) base = %v, want 50", got)
	}
	if got := g.Base(2, 0); got != 0 {
		t.Errorf("bin (2,0) base = %v, want 0", got)
	}
	// Capacity reflects the target density over free area.
	if got := g.capArea[0]; got != 0 {
		t.Errorf("blocked bin capacity = %v", got)
	}
	if got := g.capArea[1]; math.Abs(got-0.8*50) > 1e-9 {
		t.Errorf("half-blocked bin capacity = %v, want 40", got)
	}
}

func TestBellShape(t *testing.T) {
	hw, wb := 3.0, 2.0
	bell := func(d, hw, wb float64) (float64, float64) { return newBell(hw, wb).eval(d) }
	// Center: full potential.
	p0, dp0 := bell(0, hw, wb)
	if p0 != 1 || dp0 != 0 {
		t.Errorf("bell(0) = %v, %v", p0, dp0)
	}
	// Beyond support: zero.
	p, dp := bell(hw+2*wb+0.001, hw, wb)
	if p != 0 || dp != 0 {
		t.Errorf("bell beyond support = %v, %v", p, dp)
	}
	// Continuity at the inner/outer boundary.
	d0 := hw + wb
	pIn, dIn := bell(d0-1e-9, hw, wb)
	pOut, dOut := bell(d0+1e-9, hw, wb)
	if math.Abs(pIn-pOut) > 1e-6 {
		t.Errorf("bell value discontinuous at %v: %v vs %v", d0, pIn, pOut)
	}
	if math.Abs(dIn-dOut) > 1e-6 {
		t.Errorf("bell derivative discontinuous at %v: %v vs %v", d0, dIn, dOut)
	}
	// Monotone decreasing on [0, support].
	prev := 1.1
	for d := 0.0; d <= hw+2*wb; d += 0.05 {
		p, _ := bell(d, hw, wb)
		if p > prev+1e-12 {
			t.Fatalf("bell not monotone at d=%v", d)
		}
		prev = p
	}
}

func TestAreaConservation(t *testing.T) {
	g := newTestGrid()
	rng := rand.New(rand.NewSource(3))
	n := 40
	objs := make([]Obj, n)
	x := make([]float64, n)
	y := make([]float64, n)
	var want float64
	for i := range objs {
		objs[i] = Obj{HalfW: 1 + rng.Float64()*4, HalfH: 1 + rng.Float64()*2, Area: 5 + rng.Float64()*20}
		// Keep objects in the interior so no bell mass is clipped.
		x[i] = 20 + rng.Float64()*60
		y[i] = 20 + rng.Float64()*60
		want += objs[i].Area
	}
	g.Penalty(objs, x, y)
	if got := g.TotalDeposited(); math.Abs(got-want) > 1e-6*want {
		t.Errorf("deposited %v, want %v", got, want)
	}
}

func TestPenaltyGradientMatchesFiniteDifference(t *testing.T) {
	g := NewGrid(geom.NewRect(0, 0, 60, 60), 6, 6, 0.9)
	g.AddFixed(geom.NewRect(0, 0, 20, 20))
	rng := rand.New(rand.NewSource(5))
	n := 6
	objs := make([]Obj, n)
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range objs {
		objs[i] = Obj{HalfW: 2 + rng.Float64()*3, HalfH: 2 + rng.Float64()*3, Area: 30 + rng.Float64()*50}
		x[i] = 10 + rng.Float64()*40
		y[i] = 10 + rng.Float64()*40
	}
	gx := make([]float64, n)
	gy := make([]float64, n)
	penaltyWithGradient(g, objs, x, y, gx, gy)
	const h = 1e-5
	for i := 0; i < n; i++ {
		orig := x[i]
		x[i] = orig + h
		fp := g.Penalty(objs, x, y)
		x[i] = orig - h
		fm := g.Penalty(objs, x, y)
		x[i] = orig
		fd := (fp - fm) / (2 * h)
		if math.Abs(fd-gx[i]) > 1e-3*(1+math.Abs(fd)) {
			t.Errorf("x gradient obj %d: analytic %v fd %v", i, gx[i], fd)
		}
		orig = y[i]
		y[i] = orig + h
		fp = g.Penalty(objs, x, y)
		y[i] = orig - h
		fm = g.Penalty(objs, x, y)
		y[i] = orig
		fd = (fp - fm) / (2 * h)
		if math.Abs(fd-gy[i]) > 1e-3*(1+math.Abs(fd)) {
			t.Errorf("y gradient obj %d: analytic %v fd %v", i, gy[i], fd)
		}
	}
}

func TestGradientPushesApart(t *testing.T) {
	// Two identical objects stacked at the same point: gradients must
	// point in opposite directions (or both be pushed outward), and a
	// descent step must reduce the penalty.
	g := newTestGrid()
	objs := []Obj{
		{HalfW: 5, HalfH: 5, Area: 100},
		{HalfW: 5, HalfH: 5, Area: 100},
	}
	x := []float64{50, 51}
	y := []float64{50, 50}
	gx := make([]float64, 2)
	gy := make([]float64, 2)
	before := penaltyWithGradient(g, objs, x, y, gx, gy)
	// Object 1 sits right of object 0: pushing 1 right reduces overlap.
	if gx[1] >= 0 {
		t.Errorf("expected negative-penalty direction to the right, gx[1] = %v", gx[1])
	}
	step := 2.0 / math.Max(math.Abs(gx[0]), math.Abs(gx[1]))
	x[0] -= step * gx[0]
	x[1] -= step * gx[1]
	after := g.Penalty(objs, x, y)
	if after >= before {
		t.Errorf("descent step did not reduce penalty: %v -> %v", before, after)
	}
}

func TestOverflowMetric(t *testing.T) {
	g := NewGrid(geom.NewRect(0, 0, 100, 100), 10, 10, 1.0)
	// One object filling one bin exactly: no overflow at target 1.
	objs := []Obj{{HalfW: 5, HalfH: 5, Area: 100}}
	x := []float64{15}
	y := []float64{15}
	if ov := g.Overflow(objs, x, y); ov > 1e-9 {
		t.Errorf("single aligned object overflow = %v", ov)
	}
	// Two objects in the same bin: half the area overflows.
	objs = append(objs, Obj{HalfW: 5, HalfH: 5, Area: 100})
	x = append(x, 15)
	y = append(y, 15)
	ov := g.Overflow(objs, x, y)
	if math.Abs(ov-0.5) > 1e-9 {
		t.Errorf("stacked objects overflow = %v, want 0.5", ov)
	}
}

func TestOverflowRespectsBase(t *testing.T) {
	g := NewGrid(geom.NewRect(0, 0, 100, 100), 10, 10, 1.0)
	g.AddFixed(geom.NewRect(10, 10, 20, 20)) // block bin (1,1)
	objs := []Obj{{HalfW: 5, HalfH: 5, Area: 100}}
	x := []float64{15}
	y := []float64{15}
	if ov := g.Overflow(objs, x, y); math.Abs(ov-1.0) > 1e-9 {
		t.Errorf("object on blocked bin overflow = %v, want 1", ov)
	}
}

func TestDensityMap(t *testing.T) {
	g := NewGrid(geom.NewRect(0, 0, 100, 100), 10, 10, 1.0)
	objs := []Obj{{HalfW: 5, HalfH: 5, Area: 100}}
	x := []float64{15}
	y := []float64{15}
	m := g.DensityMap(objs, x, y)
	if math.Abs(m[1*10+1]-1.0) > 1e-9 {
		t.Errorf("bin (1,1) density = %v, want 1", m[11])
	}
	if m[0] != 0 {
		t.Errorf("bin (0,0) density = %v, want 0", m[0])
	}
}

func TestSmallObjectsStillSpread(t *testing.T) {
	// Objects much smaller than a bin must produce non-zero gradients
	// thanks to the effHalf widening.
	g := newTestGrid()
	objs := []Obj{
		{HalfW: 0.5, HalfH: 0.5, Area: 1},
		{HalfW: 0.5, HalfH: 0.5, Area: 1},
	}
	x := []float64{50, 50.3}
	y := []float64{50, 50}
	gx := make([]float64, 2)
	gy := make([]float64, 2)
	penaltyWithGradient(g, objs, x, y, gx, gy)
	if gx[0] == 0 && gx[1] == 0 {
		t.Error("tiny stacked objects produced zero gradient")
	}
}

func TestPenaltyDropsAsObjectsSpread(t *testing.T) {
	g := newTestGrid()
	n := 16
	objs := make([]Obj, n)
	for i := range objs {
		objs[i] = Obj{HalfW: 4, HalfH: 4, Area: 64}
	}
	// Clumped.
	xc := make([]float64, n)
	yc := make([]float64, n)
	for i := range xc {
		xc[i] = 50 + float64(i%4)
		yc[i] = 50 + float64(i/4)
	}
	clumped := g.Penalty(objs, xc, yc)
	// Uniform 4x4 arrangement.
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = 12.5 + 25*float64(i%4)
		ys[i] = 12.5 + 25*float64(i/4)
	}
	spread := g.Penalty(objs, xs, ys)
	if spread >= clumped {
		t.Errorf("spread penalty %v should be below clumped %v", spread, clumped)
	}
}

func TestDerateNarrowChannels(t *testing.T) {
	// Two macros with a 10-unit channel between them (bins are 10 wide):
	// the single channel column between x=40..50 must derate.
	g := NewGrid(geom.NewRect(0, 0, 100, 100), 10, 10, 1.0)
	g.AddFixed(geom.NewRect(0, 20, 40, 80))
	g.AddFixed(geom.NewRect(50, 20, 100, 80))
	before := g.capArea[5*10+4] // bin (4,5) in the channel
	n := g.DerateNarrowChannels(25, 0.5)
	if n == 0 {
		t.Fatal("no bins derated")
	}
	after := g.capArea[5*10+4]
	if math.Abs(after-before*0.5) > 1e-9 {
		t.Errorf("channel bin capacity %v, want %v", after, before*0.5)
	}
	// Open area far from macros must be untouched.
	if g.capArea[0] != 1.0*100 {
		t.Errorf("open bin capacity changed: %v", g.capArea[0])
	}
}

func TestDerateIgnoresWideChannels(t *testing.T) {
	// 30-unit channel with a 25-unit threshold: no derating.
	g := NewGrid(geom.NewRect(0, 0, 100, 100), 10, 10, 1.0)
	g.AddFixed(geom.NewRect(0, 20, 30, 80))
	g.AddFixed(geom.NewRect(60, 20, 100, 80))
	if n := g.DerateNarrowChannels(25, 0.5); n != 0 {
		t.Errorf("wide channel derated %d bins", n)
	}
}

func TestDerateRequiresBothBounds(t *testing.T) {
	// A single macro: free bins beside it touch the die edge, so they are
	// not channels.
	g := NewGrid(geom.NewRect(0, 0, 100, 100), 10, 10, 1.0)
	g.AddFixed(geom.NewRect(40, 40, 60, 60))
	if n := g.DerateNarrowChannels(35, 0.5); n != 0 {
		t.Errorf("edge-adjacent area derated %d bins", n)
	}
}

func TestParallelPenaltyMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	g1 := NewGrid(geom.NewRect(0, 0, 200, 200), 24, 24, 0.8)
	g2 := NewGrid(geom.NewRect(0, 0, 200, 200), 24, 24, 0.8)
	g1.AddFixed(geom.NewRect(30, 30, 80, 90))
	g2.AddFixed(geom.NewRect(30, 30, 80, 90))
	g2.SetWorkers(5)
	n := 300
	objs := make([]Obj, n)
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range objs {
		objs[i] = Obj{HalfW: 1 + rng.Float64()*4, HalfH: 2 + rng.Float64()*3, Area: 10 + rng.Float64()*30}
		x[i] = rng.Float64() * 200
		y[i] = rng.Float64() * 200
	}
	gx1 := make([]float64, n)
	gy1 := make([]float64, n)
	gx2 := make([]float64, n)
	gy2 := make([]float64, n)
	v1 := penaltyWithGradient(g1, objs, x, y, gx1, gy1)
	v2 := penaltyWithGradient(g2, objs, x, y, gx2, gy2)
	if math.Abs(v1-v2) > 1e-6*(1+math.Abs(v1)) {
		t.Errorf("value differs: serial %v parallel %v", v1, v2)
	}
	for i := 0; i < n; i++ {
		if math.Abs(gx1[i]-gx2[i]) > 1e-6*(1+math.Abs(gx1[i])) ||
			math.Abs(gy1[i]-gy2[i]) > 1e-6*(1+math.Abs(gy1[i])) {
			t.Fatalf("gradient differs at obj %d: (%v,%v) vs (%v,%v)", i, gx1[i], gy1[i], gx2[i], gy2[i])
		}
	}
	// Value-only path too.
	if v1b, v2b := g1.Penalty(objs, x, y), g2.Penalty(objs, x, y); math.Abs(v1b-v2b) > 1e-6*(1+v1b) {
		t.Errorf("value-only differs: %v vs %v", v1b, v2b)
	}
}

func TestSetWorkersSmallInputFallsBack(t *testing.T) {
	g := NewGrid(geom.NewRect(0, 0, 100, 100), 10, 10, 0.8)
	g.SetWorkers(8)
	objs := []Obj{{HalfW: 2, HalfH: 2, Area: 16}}
	x := []float64{50}
	y := []float64{50}
	// Single object: serial path must be used without panicking.
	if v := g.Penalty(objs, x, y); v <= 0 {
		t.Errorf("penalty = %v", v)
	}
}

// benchPenalty times the value and gradient passes separately on 5000
// objects over a 64×64 grid.
func benchPenalty(b *testing.B, workers int) {
	g := NewGrid(geom.NewRect(0, 0, 1000, 1000), 64, 64, 0.8)
	g.SetWorkers(workers)
	rng := rand.New(rand.NewSource(31))
	n := 5000
	objs := make([]Obj, n)
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range objs {
		objs[i] = Obj{HalfW: 2 + rng.Float64()*6, HalfH: 6, Area: 50}
		x[i] = rng.Float64() * 1000
		y[i] = rng.Float64() * 1000
	}
	gx := make([]float64, n)
	gy := make([]float64, n)
	b.Run("value", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g.Penalty(objs, x, y)
		}
	})
	b.Run("gradient", func(b *testing.B) {
		g.Penalty(objs, x, y)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g.PenaltyGradient(objs, x, y, gx, gy)
		}
	})
}

func BenchmarkPenalty(b *testing.B)         { benchPenalty(b, 1) }
func BenchmarkPenaltyParallel(b *testing.B) { benchPenalty(b, 0) }
