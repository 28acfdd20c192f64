package db

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/geom"
)

// Validate checks the referential integrity of the design: every pin points
// at a valid cell and net, nets and cells agree about their pins, modules
// form a tree rooted at index 0, and region/module references are in range.
// It returns the first problem found.
func (d *Design) Validate() error {
	for i := range d.Pins {
		p := &d.Pins[i]
		if p.Cell < 0 || p.Cell >= len(d.Cells) {
			return fmt.Errorf("db: pin %d references cell %d out of range", i, p.Cell)
		}
		if p.Net < 0 || p.Net >= len(d.Nets) {
			return fmt.Errorf("db: pin %d references net %d out of range", i, p.Net)
		}
	}
	for ci := range d.Cells {
		c := &d.Cells[ci]
		if c.BaseW < 0 || c.BaseH < 0 {
			return fmt.Errorf("db: cell %q has negative dimensions %gx%g", c.Name, c.BaseW, c.BaseH)
		}
		if c.Region != NoRegion && (c.Region < 0 || c.Region >= len(d.Regions)) {
			return fmt.Errorf("db: cell %q references region %d out of range", c.Name, c.Region)
		}
		if c.Module != NoModule && (c.Module < 0 || c.Module >= len(d.Modules)) {
			return fmt.Errorf("db: cell %q references module %d out of range", c.Name, c.Module)
		}
		for _, pi := range c.Pins {
			if pi < 0 || pi >= len(d.Pins) {
				return fmt.Errorf("db: cell %q lists pin %d out of range", c.Name, pi)
			}
			if d.Pins[pi].Cell != ci {
				return fmt.Errorf("db: cell %q lists pin %d owned by cell %d", c.Name, pi, d.Pins[pi].Cell)
			}
		}
	}
	for ni := range d.Nets {
		for _, pi := range d.Nets[ni].Pins {
			if pi < 0 || pi >= len(d.Pins) {
				return fmt.Errorf("db: net %q lists pin %d out of range", d.Nets[ni].Name, pi)
			}
			if d.Pins[pi].Net != ni {
				return fmt.Errorf("db: net %q lists pin %d owned by net %d", d.Nets[ni].Name, pi, d.Pins[pi].Net)
			}
		}
	}
	if len(d.Modules) > 0 {
		if d.Modules[0].Parent != NoModule {
			return fmt.Errorf("db: module 0 must be the hierarchy root")
		}
		for mi := range d.Modules {
			m := &d.Modules[mi]
			if mi > 0 && (m.Parent < 0 || m.Parent >= len(d.Modules)) {
				return fmt.Errorf("db: module %q has parent %d out of range", m.Name, m.Parent)
			}
			if m.Region != NoRegion && (m.Region < 0 || m.Region >= len(d.Regions)) {
				return fmt.Errorf("db: module %q references region %d out of range", m.Name, m.Region)
			}
			for _, ch := range m.Children {
				if ch <= 0 || ch >= len(d.Modules) {
					return fmt.Errorf("db: module %q child %d out of range", m.Name, ch)
				}
				if d.Modules[ch].Parent != mi {
					return fmt.Errorf("db: module %q child %d disagrees about parent", m.Name, ch)
				}
			}
			for _, ci := range m.Cells {
				if ci < 0 || ci >= len(d.Cells) {
					return fmt.Errorf("db: module %q cell %d out of range", m.Name, ci)
				}
				if d.Cells[ci].Module != mi {
					return fmt.Errorf("db: module %q lists cell %d with module %d", m.Name, ci, d.Cells[ci].Module)
				}
			}
		}
		// Cycle check: walking parents from any module must reach the root.
		for mi := range d.Modules {
			seen := 0
			for m := mi; m != NoModule; m = d.Modules[m].Parent {
				seen++
				if seen > len(d.Modules) {
					return fmt.Errorf("db: module parent cycle involving module %d", mi)
				}
			}
		}
	}
	if d.Route != nil {
		r := d.Route
		if r.GridX <= 0 || r.GridY <= 0 || r.Layers <= 0 {
			return fmt.Errorf("db: route grid %dx%dx%d invalid", r.GridX, r.GridY, r.Layers)
		}
		if len(r.VertCap) != r.Layers || len(r.HorizCap) != r.Layers {
			return fmt.Errorf("db: route capacity arrays must have %d layers", r.Layers)
		}
		for _, b := range r.Blockages {
			if b.Cell < 0 || b.Cell >= len(d.Cells) {
				return fmt.Errorf("db: route blockage references cell %d out of range", b.Cell)
			}
			for _, l := range b.Layers {
				if l < 0 || l >= r.Layers {
					return fmt.Errorf("db: route blockage layer %d out of range", l)
				}
			}
		}
	}
	return nil
}

// OverlapViolations counts pairs of space-occupying placed objects that
// overlap, considering movable cells against each other and against fixed
// macros. It sweeps over x with closes ordered before opens at equal
// coordinates, so touching cells never count. The active set is a slice of
// cached footprints; a pair whose y extents do not overlap is skipped
// before the area test, which is exact because Rect.Overlaps is
// OverlapArea > 0 and that product is never positive with a zero y
// factor. Intended for tests and final quality checks, not inner loops.
func (d *Design) OverlapViolations() int {
	type ev struct {
		x    float64
		ci   int32
		open bool
	}
	evs := make([]ev, 0, 2*len(d.Cells))
	for i := range d.Cells {
		c := &d.Cells[i]
		if c.Kind == Terminal || c.Area() == 0 {
			continue
		}
		r := c.Rect()
		evs = append(evs, ev{r.Lo.X, int32(i), true}, ev{r.Hi.X, int32(i), false})
	}
	slices.SortFunc(evs, func(a, b ev) int {
		if c := cmp.Compare(a.x, b.x); c != 0 {
			return c
		}
		if a.open != b.open {
			if a.open {
				return 1 // closes first
			}
			return -1
		}
		return cmp.Compare(a.ci, b.ci)
	})
	// active holds the open footprints; slot[ci] is ci's position in it
	// (-1 when not open), so a close is an O(1) swap-remove — the count
	// does not depend on the order of the set. A close can precede its
	// own open only when Lo.X + W rounds back to Lo.X; like a set delete
	// of an absent key, it is then a no-op.
	type entry struct {
		r  geom.Rect
		ci int32
	}
	var active []entry
	slot := make([]int32, len(d.Cells))
	for i := range slot {
		slot[i] = -1
	}
	count := 0
	for _, e := range evs {
		if !e.open {
			k := slot[e.ci]
			if k < 0 {
				continue
			}
			slot[e.ci] = -1
			last := len(active) - 1
			if k != int32(last) {
				active[k] = active[last]
				slot[active[k].ci] = k
			}
			active = active[:last]
			continue
		}
		ri := d.Cells[e.ci].Rect()
		for k := range active {
			rj := &active[k].r
			if ri.Hi.Y <= rj.Lo.Y || ri.Lo.Y >= rj.Hi.Y {
				continue
			}
			if ri.Overlaps(*rj) {
				count++
			}
		}
		slot[e.ci] = int32(len(active))
		active = append(active, entry{ri, e.ci})
	}
	return count
}

// FenceViolations counts movable cells whose footprint is not inside their
// assigned fence region.
func (d *Design) FenceViolations() int {
	count := 0
	for ci := range d.Cells {
		c := &d.Cells[ci]
		if !c.Movable() {
			continue
		}
		rg := d.CellRegion(ci)
		if rg == NoRegion {
			continue
		}
		if !d.Regions[rg].Contains(c.Rect()) {
			count++
		}
	}
	return count
}

// OutOfDie counts movable cells that stick out of the die area.
func (d *Design) OutOfDie() int {
	count := 0
	for ci := range d.Cells {
		c := &d.Cells[ci]
		if !c.Movable() {
			continue
		}
		if !d.Die.ContainsRect(c.Rect()) {
			count++
		}
	}
	return count
}
