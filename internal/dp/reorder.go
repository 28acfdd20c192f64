package dp

import (
	"math"
	"sort"

	"repro/internal/geom"
	"repro/internal/incr"
)

// reorderProposal is one improving window packing from the propose phase:
// pack the named cells left-to-right starting at the window's left bound.
type reorderProposal struct {
	s     int   // window start within the row
	order []int // cell indices in desired left-to-right order
}

// shiftProposal is one improving row shift from the propose phase.
type shiftProposal struct {
	i     int     // cell's index within its row
	wantX float64 // net-optimal center x (clamped live at commit)
}

// localReorder permutes windows of consecutive row cells. Propose: rows
// fan out across workers, each scanning its windows against the frozen
// state. Commit: proposals apply serially in (row, window) order; each is
// re-validated against the live row (membership, bounds, fences, gain)
// since earlier overlapping windows may already have moved its cells.
func (o *optimizer) localReorder() int {
	d := o.d
	o.buildRows()
	o.buildAnchors()
	w := windowSize
	props := make([][]reorderProposal, len(o.rowList))
	o.forItems(len(o.rowList), func(ws *workerState, ri int) {
		row := o.rowList[ri]
		y := o.rowYs[ri]
		for s := 0; s+w <= len(row); s++ {
			left, right, ok := o.windowBounds(row, s, w, y)
			if !ok {
				continue
			}
			if order := o.bestOrder(ws, row[s:s+w], left, right, y); order != nil {
				props[ri] = append(props[ri],
					reorderProposal{s: s, order: append([]int(nil), order...)})
			}
		}
	})
	count := 0
	ws := o.state(0)
	for ri := range props {
		row := o.rowList[ri]
		y := o.rowYs[ri]
		for _, pr := range props[ri] {
			win := row[pr.s : pr.s+w]
			if !sameCells(win, pr.order) {
				continue
			}
			left, right, ok := o.windowBounds(row, pr.s, w, y)
			if !ok {
				continue
			}
			o.trials++
			gain, ok := o.orderGain(ws.eval, pr.order, left, right, y)
			if !ok || gain <= eps {
				continue
			}
			x := left
			o.cache.Begin()
			for _, ci := range pr.order {
				o.cache.Move(ci, geom.Point{X: x, Y: y})
				x += o.cellW[ci]
			}
			o.cache.Commit()
			count++
			// Re-sort the window slice by new x to keep the row ordered.
			sort.Slice(win, func(a, b int) bool {
				if d.Cells[win[a]].Pos.X != d.Cells[win[b]].Pos.X {
					return d.Cells[win[a]].Pos.X < d.Cells[win[b]].Pos.X
				}
				return win[a] < win[b]
			})
		}
	}
	return count
}

// windowBounds computes the free interval of the w-cell window starting
// at s: from the first cell's x to the next neighbour (or the die edge),
// narrowed by fixed obstacles. ok is false when the window cannot be
// packed into the interval.
func (o *optimizer) windowBounds(row []int, s, w int, y float64) (left, right float64, ok bool) {
	d := o.d
	left = d.Cells[row[s]].Pos.X
	right = d.Die.Hi.X
	if s+w < len(row) {
		right = d.Cells[row[s+w]].Pos.X
	}
	_, right = o.gapBounds(left, right, y, o.cellH[row[s]], left)
	var widthSum float64
	for _, ci := range row[s : s+w] {
		widthSum += o.cellW[ci]
	}
	if widthSum > right-left+eps {
		return 0, 0, false
	}
	return left, right, true
}

// bestOrder tries every window permutation and returns the best improving
// left-to-right cell order (worker-private storage), or nil. The identity
// permutation can win too: packing collapses gaps. Each permutation is
// priced against the pass anchors, so windows need no per-window setup.
func (o *optimizer) bestOrder(ws *workerState, win []int, left, right, y float64) []int {
	bestGain := eps
	found := false
	for _, perm := range o.perms {
		ws.trials++
		ws.order = ws.order[:0]
		for _, pi := range perm {
			ws.order = append(ws.order, win[pi])
		}
		gain, ok := o.orderGainGroup(ws, win, ws.order, left, right, y)
		if ok && gain > bestGain {
			bestGain = gain
			ws.bestOrder = append(ws.bestOrder[:0], ws.order...)
			found = true
		}
	}
	if !found {
		return nil
	}
	return ws.bestOrder
}

// orderGainGroup is orderGain against the pass anchors — the propose-scan
// variant. The packed positions are gathered in window-slot order and the
// whole placement is priced with one Anchors.GroupDelta call.
func (o *optimizer) orderGainGroup(ws *workerState, win, order []int, left, right, y float64) (float64, bool) {
	if cap(ws.groupPos) < len(win) {
		ws.groupPos = make([]geom.Point, len(win))
	}
	gpos := ws.groupPos[:len(win)]
	x := left
	var cong float64
	for _, ci := range order {
		pos := geom.Point{X: x, Y: y}
		x += o.cellW[ci]
		if !o.fenceOKAt(ci, pos) {
			return 0, false
		}
		cong += o.congDelta(ci, pos)
		for s, cw := range win {
			if cw == ci {
				gpos[s] = pos
				break
			}
		}
	}
	if x > right+eps {
		return 0, false
	}
	return -(o.anchors.GroupDelta(win, gpos) + cong), true
}

// orderGain evaluates packing the cells, in the given left-to-right
// order, from left. ok is false when the packing overflows right or
// violates a fence. Used by both the propose scan and the commit-phase
// re-validation.
func (o *optimizer) orderGain(e *incr.DeltaEval, order []int, left, right, y float64) (float64, bool) {
	e.Reset()
	x := left
	var cong float64
	for _, ci := range order {
		pos := geom.Point{X: x, Y: y}
		x += o.cellW[ci]
		if !o.fenceOKAt(ci, pos) {
			return 0, false
		}
		e.Stage(ci, pos)
		cong += o.congDelta(ci, pos)
	}
	if x > right+eps {
		return 0, false
	}
	return -(e.Delta() + cong), true
}

// sameCells reports whether order is a permutation of win (both length w,
// w small).
func sameCells(win, order []int) bool {
	if len(win) != len(order) {
		return false
	}
	for _, ci := range order {
		found := false
		for _, cj := range win {
			if ci == cj {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// rowShift slides every cell to its net-optimal x within its free gap.
// Propose: rows fan out across workers against the frozen state. Commit:
// serial in (row, cell) order, re-clamping against live neighbours.
func (o *optimizer) rowShift() int {
	o.buildRows()
	o.buildAnchors()
	hasCong := o.opt.Routed != nil
	props := make([][]shiftProposal, len(o.rowList))
	o.forItems(len(o.rowList), func(ws *workerState, ri int) {
		row := o.rowList[ri]
		y := o.rowYs[ri]
		for i, ci := range row {
			if !hasCong && o.anchors.MaxGain(ci) <= eps {
				continue // no move of this cell can improve anything
			}
			want, ok := o.optimalPoint(ci)
			if !ok {
				continue
			}
			targetX, ok := o.clampShift(row, i, want.X, y)
			if !ok {
				continue
			}
			ws.trials++
			pos := geom.Point{X: targetX, Y: y}
			if !o.fenceOKAt(ci, pos) {
				continue
			}
			gain := -o.anchors.MoveDelta(ci, pos)
			if hasCong {
				gain -= o.congDelta(ci, pos)
			}
			if gain > eps {
				props[ri] = append(props[ri], shiftProposal{i: i, wantX: want.X})
			}
		}
	})
	count := 0
	ws := o.state(0)
	for ri := range props {
		row := o.rowList[ri]
		y := o.rowYs[ri]
		for _, pr := range props[ri] {
			ci := row[pr.i]
			targetX, ok := o.clampShift(row, pr.i, pr.wantX, y)
			if !ok {
				continue
			}
			o.trials++
			gain, ok := o.shiftGain(ws.eval, ci, targetX, y)
			if !ok || gain <= eps {
				continue
			}
			o.cache.Move(ci, geom.Point{X: targetX, Y: y})
			count++
		}
	}
	return count
}

// clampShift clamps a desired center x for the cell at row position i
// into its free gap between live neighbours and fixed obstacles. ok is
// false when the gap is too small or the clamp lands on the current x.
func (o *optimizer) clampShift(row []int, i int, wantX, y float64) (float64, bool) {
	d := o.d
	ci := row[i]
	c := &d.Cells[ci]
	left := d.Die.Lo.X
	if i > 0 {
		left = d.Cells[row[i-1]].Pos.X + o.cellW[row[i-1]]
	}
	right := d.Die.Hi.X
	if i+1 < len(row) {
		right = d.Cells[row[i+1]].Pos.X
	}
	left, right = o.gapBounds(left, right, y, o.cellH[ci], c.Pos.X)
	if right-left < o.cellW[ci] {
		return 0, false
	}
	targetX := max(left, min(wantX-o.cellW[ci]/2, right-o.cellW[ci]))
	if math.Abs(targetX-c.Pos.X) < eps {
		return 0, false
	}
	return targetX, true
}

// shiftGain is the exact cost reduction of moving the cell to x=targetX
// in its row; ok is false on a fence violation.
func (o *optimizer) shiftGain(e *incr.DeltaEval, ci int, targetX, y float64) (float64, bool) {
	pos := geom.Point{X: targetX, Y: y}
	if !o.fenceOKAt(ci, pos) {
		return 0, false
	}
	e.Reset()
	e.Stage(ci, pos)
	return -(e.Delta() + o.congDelta(ci, pos)), true
}
