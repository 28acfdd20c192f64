package dp

import (
	"slices"

	"repro/internal/db"
	"repro/internal/geom"
	"repro/internal/incr"
)

// bucketIndex is a reusable uniform-grid spatial index over cell
// positions, grouped by swap class: the partner scan of global swap looks
// up the same-class cells of the 3×3 bucket neighbourhood around a cell's
// optimal point, and never visits another class's cells. The indexed
// cells are kept sorted by (class, bucket, input order), so one class's
// cells in the three buckets of a grid row form one contiguous span, in
// the same bucket-then-input order a per-bucket scan would visit them.
// Memory is O(cells + buckets + classes); rebuilt per pass into the same
// backing storage, so steady-state passes allocate nothing.
type bucketIndex struct {
	origin geom.Point
	inv    float64
	nx, ny int
	// cells[classStart[c]:classStart[c+1]] are class c's cells and
	// bucket holds each sorted cell's bucket number (ascending within a
	// class).
	cells      []int
	bucket     []int32
	classStart []int32
	// Counting-sort scratch.
	tmpCells  []int
	tmpBucket []int32
	count     []int32
}

// build re-indexes the given cells (class[ci] in [0, classes)) at their
// current positions on a grid of the given bucket size: a stable counting
// sort by bucket, then a stable counting sort by class.
func (b *bucketIndex) build(d *db.Design, cells []int, class []int32, classes int, size float64) {
	if size <= 0 {
		size = 1
	}
	b.origin = d.Die.Lo
	b.inv = 1 / size
	b.nx = int(d.Die.W()*b.inv) + 1
	b.ny = int(d.Die.H()*b.inv) + 1
	nb := b.nx * b.ny
	n := len(cells)
	b.cells = slices.Grow(b.cells[:0], n)[:n]
	b.bucket = slices.Grow(b.bucket[:0], n)[:n]
	b.tmpCells = slices.Grow(b.tmpCells[:0], n)[:n]
	b.tmpBucket = slices.Grow(b.tmpBucket[:0], n)[:n]
	b.classStart = slices.Grow(b.classStart[:0], classes+1)[:classes+1]

	// By bucket, into tmp.
	count := b.counts(nb)
	for k, ci := range cells {
		bx, by := b.key(d.Cells[ci].Pos)
		bk := int32(by*b.nx + bx)
		b.bucket[k] = bk
		count[bk+1]++
	}
	prefix(count)
	for k, ci := range cells {
		bk := b.bucket[k]
		b.tmpCells[count[bk]] = ci
		b.tmpBucket[count[bk]] = bk
		count[bk]++
	}
	// By class, back into cells; the bucket order survives within a class.
	count = b.counts(classes)
	for _, ci := range b.tmpCells {
		count[class[ci]+1]++
	}
	prefix(count)
	copy(b.classStart, count)
	for k, ci := range b.tmpCells {
		at := count[class[ci]]
		b.cells[at] = ci
		b.bucket[at] = b.tmpBucket[k]
		count[class[ci]]++
	}
}

// counts returns n+1 zeroed counters.
func (b *bucketIndex) counts(n int) []int32 {
	b.count = slices.Grow(b.count[:0], n+1)[:n+1]
	clear(b.count)
	return b.count
}

// prefix turns per-key counts shifted by one into start offsets.
func prefix(count []int32) {
	for i := 1; i < len(count); i++ {
		count[i] += count[i-1]
	}
}

// key maps a point to its bucket coordinates, clamped onto the grid.
func (b *bucketIndex) key(p geom.Point) (int, int) {
	bx := int((p.X - b.origin.X) * b.inv)
	by := int((p.Y - b.origin.Y) * b.inv)
	if bx < 0 {
		bx = 0
	} else if bx >= b.nx {
		bx = b.nx - 1
	}
	if by < 0 {
		by = 0
	} else if by >= b.ny {
		by = b.ny - 1
	}
	return bx, by
}

// row returns the class's cells in buckets bx-1..bx+1 of grid row by (the
// off-grid ones dropped), in bucket-then-input order; nil when the row is
// off-grid.
func (b *bucketIndex) row(class int32, bx, by int) []int {
	if by < 0 || by >= b.ny {
		return nil
	}
	lo := int32(by*b.nx + max(bx-1, 0))
	hi := int32(by*b.nx + min(bx+1, b.nx-1))
	s, e := b.classStart[class], b.classStart[class+1]
	keys := b.bucket[s:e]
	i, _ := slices.BinarySearch(keys, lo)
	j, _ := slices.BinarySearch(keys[i:], hi+1)
	return b.cells[int(s)+i : int(s)+i+j]
}

// swapProposal is one cell's chosen partner from the propose phase; a
// negative partner means no improving swap was found.
type swapProposal struct {
	partner int
}

// globalSwap exchanges same-footprint cells when that reduces cost.
// Propose: every cell independently scans the bucket neighbourhood of its
// optimal point against the frozen pre-pass state. Commit: proposals are
// re-validated and applied serially in cell order.
func (o *optimizer) globalSwap() int {
	d := o.d
	rowH := d.RowHeight()
	if rowH <= 0 {
		rowH = 1
	}
	o.idx.build(d, o.cells, o.cellClass, o.classes, rowH*swapRadius)
	o.buildAnchors()
	if cap(o.swapProps) < len(o.cells) {
		o.swapProps = make([]swapProposal, len(o.cells))
	}
	props := o.swapProps[:len(o.cells)]
	hasCong := o.opt.Congestion != nil
	o.forItems(len(o.cells), func(ws *workerState, i int) {
		props[i] = swapProposal{partner: -1}
		ci := o.cells[i]
		c := &d.Cells[ci]
		class := o.cellClass[ci]
		want, ok := o.optimalPoint(ci)
		if !ok {
			return
		}
		dx := want.X - (c.Pos.X + o.cellW[ci]/2)
		dy := want.Y - (c.Pos.Y + o.cellH[ci]/2)
		if dx*dx+dy*dy < rowH*rowH {
			return // already near optimal
		}
		bx, by := o.idx.key(want)
		best, bestGain := -1, eps
		mrCi := o.anchors.MaxGain(ci)
		for dy := -1; dy <= 1; dy++ {
			for _, cj := range o.idx.row(class, bx, by+dy) {
				if cj == ci {
					continue
				}
				ws.trials++
				// Admissible prune: no single-cell move beats its
				// MaxGain bound, so a net-disjoint pair whose combined
				// bounds cannot top the best gain so far cannot win.
				// (Shared-net pairs can beat the sum — e.g. a two-pin
				// net between them collapses — so they are exempt.)
				if !hasCong && mrCi+o.anchors.MaxGain(cj) <= bestGain &&
					!o.anchors.SharesNet(ci, cj) {
					continue
				}
				gain := -o.anchors.SwapDelta(ci, cj)
				if hasCong {
					gain -= o.congDelta(ci, d.Cells[cj].Pos) + o.congDelta(cj, c.Pos)
				}
				if gain > bestGain {
					bestGain, best = gain, cj
				}
			}
		}
		props[i].partner = best
	})
	// Serial commit in cell order, re-validated against the live state.
	swaps := 0
	ws := o.state(0)
	for i := range props {
		cj := props[i].partner
		if cj < 0 {
			continue
		}
		ci := o.cells[i]
		if !o.fenceOKAt(ci, d.Cells[cj].Pos) || !o.fenceOKAt(cj, d.Cells[ci].Pos) {
			continue
		}
		o.trials++
		if o.swapGain(ws.eval, ci, cj) <= eps {
			continue
		}
		pi, pj := d.Cells[ci].Pos, d.Cells[cj].Pos
		o.cache.Move(ci, pj)
		o.cache.Move(cj, pi)
		swaps++
	}
	return swaps
}

// swapGain is the exact cost reduction (weighted HPWL plus congestion) of
// exchanging the two cells' current positions; positive means the swap
// helps. Shared nets between the pair are handled exactly by the staged
// evaluation.
func (o *optimizer) swapGain(e *incr.DeltaEval, ci, cj int) float64 {
	d := o.d
	pi, pj := d.Cells[ci].Pos, d.Cells[cj].Pos
	e.Reset()
	e.Stage(ci, pj)
	e.Stage(cj, pi)
	delta := e.Delta()
	delta += o.congDelta(ci, pj)
	delta += o.congDelta(cj, pi)
	return -delta
}
