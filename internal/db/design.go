package db

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/geom"
)

// RouteInfo carries the global-routing grid description from a Bookshelf
// .route file (or a synthetic equivalent): the g-cell grid, per-layer
// capacities, wire geometry, and porosity adjustments over blockages.
type RouteInfo struct {
	GridX, GridY, Layers int
	// VertCap and HorizCap give per-layer routing capacity in tracks.
	VertCap, HorizCap []float64
	MinWidth          []float64
	MinSpacing        []float64
	ViaSpacing        []float64
	// Origin of the grid and tile dimensions in database units.
	Origin       geom.Point
	TileW, TileH float64
	// BlockagePorosity is the fraction of capacity that survives above a
	// placement blockage (0 = fully blocked).
	BlockagePorosity float64
	// NiTerminals lists cells whose pins are not on the top routing layer
	// (kept for format fidelity; unused by the simplified router).
	NiTerminals []int
	// Blockages lists explicit capacity reductions: the cell's footprint
	// blocks the given layers completely.
	Blockages []RouteBlockage
}

// RouteBlockage marks the layers fully blocked under a cell's footprint.
type RouteBlockage struct {
	Cell   int
	Layers []int
}

// Design is a complete placement problem instance.
type Design struct {
	Name string
	// Die is the placeable area (core region).
	Die     geom.Rect
	Cells   []Cell
	Pins    []Pin
	Nets    []Net
	Rows    []Row
	Regions []Region
	Modules []Module
	Route   *RouteInfo

	// cellByName is the lazily built name index. It is published
	// atomically so concurrent readers of one shared design (delta jobs
	// diffing against the same base) may all trigger the first build:
	// each builds an equal map from the same cells and publishes it.
	cellByName atomic.Pointer[map[string]int]
}

// CellIndex returns the index of the named cell, or -1. On duplicate
// names the last cell wins. Safe for concurrent use as long as nobody
// mutates the cells.
func (d *Design) CellIndex(name string) int {
	idx := d.cellByName.Load()
	if idx == nil {
		m := make(map[string]int, len(d.Cells))
		for i := range d.Cells {
			m[d.Cells[i].Name] = i
		}
		idx = &m
		d.cellByName.Store(idx)
	}
	if i, ok := (*idx)[name]; ok {
		return i
	}
	return -1
}

// InvalidateNameIndex must be called after renaming or re-slicing Cells.
func (d *Design) InvalidateNameIndex() { d.cellByName.Store(nil) }

// PinPos returns the absolute position of pin p, honoring the owning cell's
// orientation.
func (d *Design) PinPos(p int) geom.Point {
	pin := &d.Pins[p]
	c := &d.Cells[pin.Cell]
	return c.Pos.Add(c.OrientOffset(pin.Offset))
}

// NetBBox returns the bounding box of the net's pins. A net with fewer than
// one pin yields an empty rectangle.
func (d *Design) NetBBox(n int) geom.Rect {
	net := &d.Nets[n]
	if len(net.Pins) == 0 {
		return geom.Rect{}
	}
	p0 := d.PinPos(net.Pins[0])
	bb := geom.Rect{Lo: p0, Hi: p0}
	for _, p := range net.Pins[1:] {
		q := d.PinPos(p)
		if q.X < bb.Lo.X {
			bb.Lo.X = q.X
		}
		if q.Y < bb.Lo.Y {
			bb.Lo.Y = q.Y
		}
		if q.X > bb.Hi.X {
			bb.Hi.X = q.X
		}
		if q.Y > bb.Hi.Y {
			bb.Hi.Y = q.Y
		}
	}
	return bb
}

// NetHPWL returns the half-perimeter wirelength of one net.
func (d *Design) NetHPWL(n int) float64 {
	if d.Nets[n].Degree() < 2 {
		return 0
	}
	bb := d.NetBBox(n)
	return (bb.Hi.X - bb.Lo.X) + (bb.Hi.Y - bb.Lo.Y)
}

// HPWL returns the total weighted half-perimeter wirelength of the design.
func (d *Design) HPWL() float64 {
	var total float64
	for i := range d.Nets {
		w := d.Nets[i].Weight
		if w == 0 {
			w = 1
		}
		total += w * d.NetHPWL(i)
	}
	return total
}

// MovableArea returns the total geometric area of movable cells.
func (d *Design) MovableArea() float64 {
	var a float64
	for i := range d.Cells {
		if d.Cells[i].Movable() {
			a += d.Cells[i].Area()
		}
	}
	return a
}

// FixedAreaInDie returns the area of fixed, space-occupying objects clipped
// to the die (terminals are excluded: they sit on the boundary and occupy
// no row area).
func (d *Design) FixedAreaInDie() float64 {
	var a float64
	for i := range d.Cells {
		c := &d.Cells[i]
		if c.Movable() || c.Kind == Terminal {
			continue
		}
		a += c.Rect().Intersect(d.Die).Area()
	}
	return a
}

// Utilization returns movable area divided by free die area.
func (d *Design) Utilization() float64 {
	free := d.Die.Area() - d.FixedAreaInDie()
	if free <= 0 {
		return math.Inf(1)
	}
	return d.MovableArea() / free
}

// RowHeight returns the common row height, or 0 when the design has no rows.
func (d *Design) RowHeight() float64 {
	if len(d.Rows) == 0 {
		return 0
	}
	return d.Rows[0].Height
}

// Movable returns the indices of all movable cells.
func (d *Design) Movable() []int {
	out := make([]int, 0, len(d.Cells))
	for i := range d.Cells {
		if d.Cells[i].Movable() {
			out = append(out, i)
		}
	}
	return out
}

// MovableMacros returns the indices of movable macro cells.
func (d *Design) MovableMacros() []int {
	var out []int
	for i := range d.Cells {
		if d.Cells[i].Movable() && d.Cells[i].Kind == Macro {
			out = append(out, i)
		}
	}
	return out
}

// CellRegion returns the effective fence region of a cell: the cell's own
// assignment, or the nearest enclosing module's, or NoRegion.
func (d *Design) CellRegion(ci int) int {
	c := &d.Cells[ci]
	if c.Region != NoRegion {
		return c.Region
	}
	m := c.Module
	for m != NoModule {
		if d.Modules[m].Region != NoRegion {
			return d.Modules[m].Region
		}
		m = d.Modules[m].Parent
	}
	return NoRegion
}

// ModuleDepth returns the depth of module m in the hierarchy (root = 0).
func (d *Design) ModuleDepth(m int) int {
	depth := 0
	for m != NoModule && d.Modules[m].Parent != NoModule {
		m = d.Modules[m].Parent
		depth++
	}
	return depth
}

// ModulePath returns the slash-separated path of module m from the root.
func (d *Design) ModulePath(m int) string {
	if m == NoModule {
		return "/"
	}
	var parts []string
	for m != NoModule {
		parts = append(parts, d.Modules[m].Name)
		m = d.Modules[m].Parent
	}
	// Reverse.
	for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
		parts[i], parts[j] = parts[j], parts[i]
	}
	path := ""
	for _, p := range parts {
		path += "/" + p
	}
	return path
}

// Clone returns a deep copy of the design. Positions, orientations and
// inflation ratios in the clone can be modified without affecting the
// original.
func (d *Design) Clone() *Design {
	out := &Design{
		Name:    d.Name,
		Die:     d.Die,
		Cells:   make([]Cell, len(d.Cells)),
		Pins:    make([]Pin, len(d.Pins)),
		Nets:    make([]Net, len(d.Nets)),
		Rows:    make([]Row, len(d.Rows)),
		Regions: make([]Region, len(d.Regions)),
		Modules: make([]Module, len(d.Modules)),
	}
	copy(out.Pins, d.Pins)
	copy(out.Rows, d.Rows)
	for i := range d.Cells {
		out.Cells[i] = d.Cells[i]
		out.Cells[i].Pins = append([]int(nil), d.Cells[i].Pins...)
	}
	for i := range d.Nets {
		out.Nets[i] = d.Nets[i]
		out.Nets[i].Pins = append([]int(nil), d.Nets[i].Pins...)
	}
	for i := range d.Regions {
		out.Regions[i] = d.Regions[i]
		out.Regions[i].Rects = append([]geom.Rect(nil), d.Regions[i].Rects...)
	}
	for i := range d.Modules {
		out.Modules[i] = d.Modules[i]
		out.Modules[i].Children = append([]int(nil), d.Modules[i].Children...)
		out.Modules[i].Cells = append([]int(nil), d.Modules[i].Cells...)
	}
	if d.Route != nil {
		r := *d.Route
		r.VertCap = append([]float64(nil), d.Route.VertCap...)
		r.HorizCap = append([]float64(nil), d.Route.HorizCap...)
		r.MinWidth = append([]float64(nil), d.Route.MinWidth...)
		r.MinSpacing = append([]float64(nil), d.Route.MinSpacing...)
		r.ViaSpacing = append([]float64(nil), d.Route.ViaSpacing...)
		r.NiTerminals = append([]int(nil), d.Route.NiTerminals...)
		r.Blockages = make([]RouteBlockage, len(d.Route.Blockages))
		for i := range d.Route.Blockages {
			r.Blockages[i] = d.Route.Blockages[i]
			r.Blockages[i].Layers = append([]int(nil), d.Route.Blockages[i].Layers...)
		}
		out.Route = &r
	}
	return out
}

// CopyPositionsFrom copies cell positions and orientations from src, which
// must have the same cell count.
func (d *Design) CopyPositionsFrom(src *Design) error {
	if len(src.Cells) != len(d.Cells) {
		return fmt.Errorf("db: position copy between designs with %d and %d cells", len(src.Cells), len(d.Cells))
	}
	for i := range d.Cells {
		d.Cells[i].Pos = src.Cells[i].Pos
		d.Cells[i].Orient = src.Cells[i].Orient
	}
	return nil
}
