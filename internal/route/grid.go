// Package route is the global-routing substrate of the reproduction: a
// g-cell grid with per-edge capacities derived from the design's .route
// description (macro blockages included), a PathFinder-style negotiated
// global router used for evaluation, and the DAC-2012 contest metrics
// (ACE, RC, scaled HPWL). The fast congestion estimate the placer's
// routability loop can use instead of routing lives in internal/estimate.
//
// The grid collapses routing layers into one horizontal and one vertical
// capacity per edge, which is exactly the abstraction the contest
// evaluator exposes to placers; demand is counted in tracks, one per net
// crossing an edge.
package route

import (
	"fmt"
	"math"

	"repro/internal/db"
	"repro/internal/geom"
)

// Tiles is the g-cell geometry: NX×NY tiles of TileW×TileH from Origin,
// indexed (tx, ty) with tile (0,0) at the lower-left. Every per-tile map
// over it is indexed ty·NX+tx. The routing grid and the congestion
// estimator embed it, so both signals fill the same tiles.
type Tiles struct {
	NX, NY       int
	Origin       geom.Point
	TileW, TileH float64
}

// TileOf returns the tile containing point p, clamped to the grid.
func (t *Tiles) TileOf(p geom.Point) (int, int) {
	tx := int(math.Floor((p.X - t.Origin.X) / t.TileW))
	ty := int(math.Floor((p.Y - t.Origin.Y) / t.TileH))
	if tx < 0 {
		tx = 0
	}
	if tx >= t.NX {
		tx = t.NX - 1
	}
	if ty < 0 {
		ty = 0
	}
	if ty >= t.NY {
		ty = t.NY - 1
	}
	return tx, ty
}

// TileRect returns tile (tx, ty)'s rectangle.
func (t *Tiles) TileRect(tx, ty int) geom.Rect {
	x := t.Origin.X + float64(tx)*t.TileW
	y := t.Origin.Y + float64(ty)*t.TileH
	return geom.NewRect(x, y, x+t.TileW, y+t.TileH)
}

// CongestionMap is one per-tile congestion map together with the tiles
// it was taken over; Cong is indexed ty·NX+tx.
type CongestionMap struct {
	Tiles
	Cong []float64
}

// At returns the congestion of the tile containing p, clamped to the
// grid.
func (m *CongestionMap) At(p geom.Point) float64 {
	tx, ty := m.TileOf(p)
	return m.Cong[ty*m.NX+tx]
}

// Grid is the g-cell routing grid over its Tiles. A horizontal edge
// h(x,y) joins tiles (x,y)–(x+1,y); a vertical edge v(x,y) joins
// (x,y)–(x,y+1).
type Grid struct {
	Tiles

	// HCap has (NX−1)·NY entries indexed y·(NX−1)+x.
	HCap []float64
	// VCap has NX·(NY−1) entries indexed y·NX+x.
	VCap []float64
	// HDem and VDem are the current demands, same indexing.
	HDem []float64
	VDem []float64
	// HHist and VHist are PathFinder history costs.
	HHist []float64
	VHist []float64
}

// NewUniformGrid builds a grid over die with uniform per-edge capacities.
func NewUniformGrid(die geom.Rect, nx, ny int, hcap, vcap float64) *Grid {
	g := &Grid{Tiles: Tiles{
		NX: nx, NY: ny,
		Origin: die.Lo,
		TileW:  die.W() / float64(nx),
		TileH:  die.H() / float64(ny),
	}}
	g.alloc()
	for i := range g.HCap {
		g.HCap[i] = hcap
	}
	for i := range g.VCap {
		g.VCap[i] = vcap
	}
	return g
}

// NewGrid builds the routing grid for a design from its RouteInfo,
// collapsing layers and applying macro blockages with the blockage
// porosity. Terminals and standard cells do not block routing.
func NewGrid(d *db.Design) (*Grid, error) {
	ri := d.Route
	if ri == nil {
		return nil, fmt.Errorf("route: design %q has no routing info", d.Name)
	}
	if ri.GridX < 2 || ri.GridY < 2 {
		return nil, fmt.Errorf("route: grid %dx%d too small", ri.GridX, ri.GridY)
	}
	g := &Grid{Tiles: Tiles{
		NX: ri.GridX, NY: ri.GridY,
		Origin: ri.Origin,
		TileW:  ri.TileW,
		TileH:  ri.TileH,
	}}
	if g.TileW <= 0 || g.TileH <= 0 {
		g.TileW = d.Die.W() / float64(g.NX)
		g.TileH = d.Die.H() / float64(g.NY)
	}
	g.alloc()
	var hTotal, vTotal float64
	for l := 0; l < ri.Layers; l++ {
		hTotal += ri.HorizCap[l]
		vTotal += ri.VertCap[l]
	}
	for i := range g.HCap {
		g.HCap[i] = hTotal
	}
	for i := range g.VCap {
		g.VCap[i] = vTotal
	}
	// Blockage pass: each blocked layer under the cell footprint loses
	// its share of capacity, scaled by the covered fraction of the edge's
	// tile span and softened by porosity.
	for _, b := range ri.Blockages {
		c := &d.Cells[b.Cell]
		r := c.Rect()
		var hBlocked, vBlocked float64
		for _, l := range b.Layers {
			hBlocked += ri.HorizCap[l]
			vBlocked += ri.VertCap[l]
		}
		g.applyBlockage(r, hBlocked, vBlocked, ri.BlockagePorosity)
	}
	return g, nil
}

func (g *Grid) alloc() {
	g.HCap = make([]float64, (g.NX-1)*g.NY)
	g.VCap = make([]float64, g.NX*(g.NY-1))
	g.HDem = make([]float64, len(g.HCap))
	g.VDem = make([]float64, len(g.VCap))
	g.HHist = make([]float64, len(g.HCap))
	g.VHist = make([]float64, len(g.VCap))
}

// applyBlockage reduces capacity under rectangle r. Each edge spans two
// tiles; its blocked share is the mean covered fraction of those tiles
// times the blocked-layer capacity, softened by porosity (the fraction of
// blocked capacity that survives).
func (g *Grid) applyBlockage(r geom.Rect, hBlocked, vBlocked, porosity float64) {
	if porosity < 0 {
		porosity = 0
	}
	if porosity > 1 {
		porosity = 1
	}
	loss := 1 - porosity
	tx0, ty0 := g.TileOf(r.Lo)
	tx1, ty1 := g.TileOf(geom.Point{X: r.Hi.X - 1e-9, Y: r.Hi.Y - 1e-9})
	frac := func(tx, ty int) float64 {
		tileR := g.TileRect(tx, ty)
		return tileR.OverlapArea(r) / tileR.Area()
	}
	// Horizontal edges whose either endpoint tile is covered.
	for ty := ty0; ty <= ty1; ty++ {
		xa := tx0 - 1
		if xa < 0 {
			xa = 0
		}
		xb := tx1
		if xb > g.NX-2 {
			xb = g.NX - 2
		}
		for x := xa; x <= xb; x++ {
			f := (frac(x, ty) + frac(x+1, ty)) / 2
			if f <= 0 {
				continue
			}
			i := g.HIdx(x, ty)
			g.HCap[i] = math.Max(0, g.HCap[i]-hBlocked*f*loss)
		}
	}
	for tx := tx0; tx <= tx1; tx++ {
		ya := ty0 - 1
		if ya < 0 {
			ya = 0
		}
		yb := ty1
		if yb > g.NY-2 {
			yb = g.NY - 2
		}
		for y := ya; y <= yb; y++ {
			f := (frac(tx, y) + frac(tx, y+1)) / 2
			if f <= 0 {
				continue
			}
			i := g.VIdx(tx, y)
			g.VCap[i] = math.Max(0, g.VCap[i]-vBlocked*f*loss)
		}
	}
}

// HIdx returns the horizontal edge index for the edge (x,y)–(x+1,y).
func (g *Grid) HIdx(x, y int) int { return y*(g.NX-1) + x }

// VIdx returns the vertical edge index for the edge (x,y)–(x,y+1).
func (g *Grid) VIdx(x, y int) int { return y*g.NX + x }

// ResetDemand zeroes all demands (history is kept).
func (g *Grid) ResetDemand() {
	for i := range g.HDem {
		g.HDem[i] = 0
	}
	for i := range g.VDem {
		g.VDem[i] = 0
	}
}

// ResetHistory zeroes PathFinder history costs.
func (g *Grid) ResetHistory() {
	for i := range g.HHist {
		g.HHist[i] = 0
	}
	for i := range g.VHist {
		g.VHist[i] = 0
	}
}

// Clone returns a deep copy of the grid (demands and history included).
func (g *Grid) Clone() *Grid {
	out := *g
	out.HCap = append([]float64(nil), g.HCap...)
	out.VCap = append([]float64(nil), g.VCap...)
	out.HDem = append([]float64(nil), g.HDem...)
	out.VDem = append([]float64(nil), g.VDem...)
	out.HHist = append([]float64(nil), g.HHist...)
	out.VHist = append([]float64(nil), g.VHist...)
	return &out
}

// TotalOverflow returns the sum over edges of max(0, demand − capacity).
func (g *Grid) TotalOverflow() float64 {
	var of float64
	for i := range g.HDem {
		if ex := g.HDem[i] - g.HCap[i]; ex > 0 {
			of += ex
		}
	}
	for i := range g.VDem {
		if ex := g.VDem[i] - g.VCap[i]; ex > 0 {
			of += ex
		}
	}
	return of
}

// MaxCongestion returns the maximum demand/capacity ratio over all edges
// with positive capacity.
func (g *Grid) MaxCongestion() float64 {
	m := 0.0
	for i := range g.HDem {
		if g.HCap[i] > 0 {
			if r := g.HDem[i] / g.HCap[i]; r > m {
				m = r
			}
		}
	}
	for i := range g.VDem {
		if g.VCap[i] > 0 {
			if r := g.VDem[i] / g.VCap[i]; r > m {
				m = r
			}
		}
	}
	return m
}

// TileCongestion returns, per tile, the total demand of the edges incident
// to the tile divided by their total capacity. The sum (rather than a max
// over edges) keeps a single near-zero-capacity edge — e.g. under a macro
// blockage — from marking the whole tile infinitely hot, which would send
// the placer's inflation loop into a feedback spiral.
func (g *Grid) TileCongestion() []float64 {
	dem := make([]float64, g.NX*g.NY)
	capTot := make([]float64, g.NX*g.NY)
	add := func(tx, ty int, d, c float64) {
		i := ty*g.NX + tx
		dem[i] += d
		capTot[i] += c
	}
	for y := 0; y < g.NY; y++ {
		for x := 0; x < g.NX-1; x++ {
			i := g.HIdx(x, y)
			add(x, y, g.HDem[i], g.HCap[i])
			add(x+1, y, g.HDem[i], g.HCap[i])
		}
	}
	for y := 0; y < g.NY-1; y++ {
		for x := 0; x < g.NX; x++ {
			i := g.VIdx(x, y)
			add(x, y, g.VDem[i], g.VCap[i])
			add(x, y+1, g.VDem[i], g.VCap[i])
		}
	}
	out := make([]float64, g.NX*g.NY)
	for i := range out {
		if capTot[i] > 0 {
			out[i] = dem[i] / capTot[i]
		} else if dem[i] > 0 {
			out[i] = math.Inf(1)
		}
	}
	return out
}
