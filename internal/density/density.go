// Package density implements the bin-density model of analytical global
// placement: a uniform grid over the die, a base occupancy map from fixed
// objects, the NTUplace-style bell-shaped per-cell density potential with
// analytic gradient, and the exact-overlap overflow metric used to decide
// when spreading is done.
//
// The penalty the placer minimizes is
//
//	N(x, y) = Σ_b ( D_b(x, y) − M_b )²
//
// where D_b is the smoothed movable-area density of bin b and M_b the
// bin's target capacity (target density × free bin area). Each movable
// object deposits area into nearby bins through a twice-differentiable
// bell curve per axis; the curve's support spans the object plus two bins
// on each side, and small objects are widened to one bin so that gradients
// never vanish. Per-object normalization keeps the deposited area exactly
// equal to the object's (inflated) area, so total area is conserved no
// matter the bell shapes.
//
// The penalty kernels run on several goroutines (Grid.SetThreads) without
// changing a bit: a shard count (Grid.SetWorkers) alone fixes the order
// each bin's deposits are summed in (see penalty.go).
package density

import (
	"math"

	"repro/internal/geom"
)

// Obj is one movable object as the density model sees it: half-dimensions
// for spreading and the area to deposit (already inflated when routability
// inflation is active). Coordinates live in the caller's arrays.
type Obj struct {
	HalfW, HalfH float64
	Area         float64
}

// Grid is the density bin structure.
type Grid struct {
	Die        geom.Rect
	NX, NY     int
	BinW, BinH float64
	// Target is the target density in (0, 1].
	Target float64

	// base[b] is the area of fixed objects overlapping bin b.
	base []float64
	// capArea[b] = Target · (binArea − base[b]), the allowed movable area.
	capArea []float64

	// demand is the smoothed movable demand per bin the last Penalty
	// call deposited; PenaltyGradient reads it.
	demand []float64

	// shards fixes the order the deposit is summed in (SetWorkers) and
	// threads how many goroutines run the kernels (SetThreads); scratch
	// holds one bellScratch per goroutine a kernel ran on, or per shard
	// for a sharded deposit.
	shards, threads int
	scratch         []bellScratch
	// chunks is the length of the gradient task list in progress.
	chunks int
}

// NewGrid builds an nx×ny grid over die with the given target density.
func NewGrid(die geom.Rect, nx, ny int, target float64) *Grid {
	if nx < 1 {
		nx = 1
	}
	if ny < 1 {
		ny = 1
	}
	if target <= 0 || target > 1 {
		target = 1
	}
	g := &Grid{
		Die: die, NX: nx, NY: ny,
		BinW: die.W() / float64(nx), BinH: die.H() / float64(ny),
		Target: target,
		base:   make([]float64, nx*ny),
		demand: make([]float64, nx*ny),
		shards: 1, threads: 1,
	}
	g.recomputeCap()
	return g
}

func (g *Grid) recomputeCap() {
	binArea := g.BinW * g.BinH
	if g.capArea == nil {
		g.capArea = make([]float64, len(g.base))
	}
	for i, b := range g.base {
		free := binArea - b
		if free < 0 {
			free = 0
		}
		g.capArea[i] = g.Target * free
	}
}

// AddFixed deposits a fixed object's footprint into the base map by exact
// rectangle overlap. Call for every fixed macro before placement; the die
// clip is applied internally.
func (g *Grid) AddFixed(r geom.Rect) {
	r = r.Intersect(g.Die)
	if r.Empty() {
		return
	}
	x0, x1 := g.binRangeX(r.Lo.X, r.Hi.X)
	y0, y1 := g.binRangeY(r.Lo.Y, r.Hi.Y)
	for by := y0; by <= y1; by++ {
		for bx := x0; bx <= x1; bx++ {
			g.base[by*g.NX+bx] += g.binRect(bx, by).OverlapArea(r)
		}
	}
	g.recomputeCap()
}

// Base returns the fixed-area occupancy of bin (bx, by).
func (g *Grid) Base(bx, by int) float64 { return g.base[by*g.NX+bx] }

// binRect returns the rectangle of bin (bx, by).
func (g *Grid) binRect(bx, by int) geom.Rect {
	x := g.Die.Lo.X + float64(bx)*g.BinW
	y := g.Die.Lo.Y + float64(by)*g.BinH
	return geom.NewRect(x, y, x+g.BinW, y+g.BinH)
}

// binRangeX clamps [lo, hi] to valid x bin indices.
func (g *Grid) binRangeX(lo, hi float64) (int, int) {
	b0 := int(math.Floor((lo - g.Die.Lo.X) / g.BinW))
	b1 := int(math.Floor((hi - g.Die.Lo.X) / g.BinW))
	if b0 < 0 {
		b0 = 0
	}
	if b1 >= g.NX {
		b1 = g.NX - 1
	}
	return b0, b1
}

func (g *Grid) binRangeY(lo, hi float64) (int, int) {
	b0 := int(math.Floor((lo - g.Die.Lo.Y) / g.BinH))
	b1 := int(math.Floor((hi - g.Die.Lo.Y) / g.BinH))
	if b0 < 0 {
		b0 = 0
	}
	if b1 >= g.NY {
		b1 = g.NY - 1
	}
	return b0, b1
}

// bellRange returns the first and last bin index whose center can be
// within the bell support [c − span, c + span] along one axis.
func bellRange(c, span, origin, step float64, n int) (int, int) {
	b0 := int(math.Floor((c - span - origin) / step))
	b1 := int(math.Ceil((c + span - origin) / step))
	if b0 < 0 {
		b0 = 0
	}
	if b1 >= n {
		b1 = n - 1
	}
	return b0, b1
}

// bellShape is one object's bell-shaped potential along one axis, for
// object half-width hw and bin width wb, as a function of the center
// distance d ≥ 0:
//
//	p(d) = 1 − a·d²                    for d ≤ hw + wb
//	p(d) = b·(d − hw − 2wb)²           for hw + wb < d ≤ hw + 2wb
//	p(d) = 0                           beyond
//
// with a, b chosen for C¹ continuity. The constants are computed once per
// object and axis, not per bin.
type bellShape struct {
	inner, outer float64 // hw + wb, hw + 2wb
	a, b         float64
}

func newBell(hw, wb float64) bellShape {
	w := 2 * hw
	return bellShape{
		inner: hw + wb,
		outer: hw + 2*wb,
		a:     4 / ((w + 2*wb) * (w + 4*wb)),
		b:     2 / (wb * (w + 4*wb)),
	}
}

// eval returns p(d) and its derivative p'(d).
func (s bellShape) eval(d float64) (p, dp float64) {
	switch {
	case d <= s.inner:
		return 1 - s.a*d*d, -2 * s.a * d
	case d <= s.outer:
		t := d - s.outer
		return s.b * t * t, 2 * s.b * t
	default:
		return 0, 0
	}
}

// effHalf widens an object's half-extent to at least one bin so that the
// bell support always covers several bin centers.
func effHalf(h, binDim float64) float64 {
	if h < binDim {
		return binDim
	}
	return h
}

// DerateNarrowChannels reduces the capacity of bins lying in narrow
// channels: maximal runs of free bins, bounded on both sides by
// macro-blocked bins, whose extent is below minSpan. Cells placed in such
// channels are nearly unroutable (the macros also block routing layers),
// so the placer derates them by the given factor and spreading naturally
// avoids them. It returns the number of derated bins. Call after all
// AddFixed calls.
func (g *Grid) DerateNarrowChannels(minSpan, factor float64) int {
	if factor < 0 {
		factor = 0
	}
	if factor > 1 {
		factor = 1
	}
	binArea := g.BinW * g.BinH
	blocked := func(bx, by int) bool {
		return g.base[by*g.NX+bx] >= 0.5*binArea
	}
	derate := make([]bool, g.NX*g.NY)
	// Horizontal runs.
	for by := 0; by < g.NY; by++ {
		run := 0
		leftBounded := false
		flush := func(end int, rightBounded bool) {
			if run > 0 && leftBounded && rightBounded && float64(run)*g.BinW < minSpan {
				for bx := end - run; bx < end; bx++ {
					derate[by*g.NX+bx] = true
				}
			}
		}
		for bx := 0; bx < g.NX; bx++ {
			if blocked(bx, by) {
				flush(bx, true)
				run = 0
				leftBounded = true
			} else {
				run++
			}
		}
		flush(g.NX, false)
	}
	// Vertical runs.
	for bx := 0; bx < g.NX; bx++ {
		run := 0
		lowBounded := false
		flush := func(end int, highBounded bool) {
			if run > 0 && lowBounded && highBounded && float64(run)*g.BinH < minSpan {
				for by := end - run; by < end; by++ {
					derate[by*g.NX+bx] = true
				}
			}
		}
		for by := 0; by < g.NY; by++ {
			if blocked(bx, by) {
				flush(by, true)
				run = 0
				lowBounded = true
			} else {
				run++
			}
		}
		flush(g.NY, false)
	}
	count := 0
	for i, dr := range derate {
		if dr {
			g.capArea[i] *= factor
			count++
		}
	}
	return count
}

// EnsureCapacity rescales the bin capacities so their sum is at least
// margin × required. Derating (channels) and dense fixed layouts can push
// the summed target capacity below the movable area, which makes the
// density system infeasible and stalls spreading; this restores global
// feasibility while preserving the relative shape of the capacity map.
// It returns the scale factor applied (1 when nothing was needed).
func (g *Grid) EnsureCapacity(required, margin float64) float64 {
	var total float64
	for _, c := range g.capArea {
		total += c
	}
	want := required * margin
	if total >= want || total <= 0 {
		return 1
	}
	scale := want / total
	for i := range g.capArea {
		g.capArea[i] *= scale
	}
	return scale
}

// Overflow returns the total-overflow ratio using exact rectangle overlap:
// Σ_b max(0, demand_b − capacity_b) / Σ area. It is the convergence
// criterion for spreading (not differentiable; evaluated between solver
// rounds).
func (g *Grid) Overflow(objs []Obj, x, y []float64) float64 {
	nb := g.NX * g.NY
	dem := make([]float64, nb)
	var totalArea float64
	for i := range objs {
		totalArea += objs[i].Area
		r := geom.NewRect(x[i]-objs[i].HalfW, y[i]-objs[i].HalfH, x[i]+objs[i].HalfW, y[i]+objs[i].HalfH)
		r = r.Intersect(g.Die)
		if r.Empty() {
			continue
		}
		// Scale so clipped deposits still sum to the full area.
		scale := objs[i].Area / (4 * objs[i].HalfW * objs[i].HalfH)
		x0, x1 := g.binRangeX(r.Lo.X, r.Hi.X)
		y0, y1 := g.binRangeY(r.Lo.Y, r.Hi.Y)
		for by := y0; by <= y1; by++ {
			for bx := x0; bx <= x1; bx++ {
				dem[by*g.NX+bx] += scale * g.binRect(bx, by).OverlapArea(r)
			}
		}
	}
	if totalArea <= 0 {
		return 0
	}
	var over float64
	for b := 0; b < nb; b++ {
		if ex := dem[b] - g.capArea[b]; ex > 0 {
			over += ex
		}
	}
	return over / totalArea
}
