package estimate

import (
	"repro/internal/geom"
	"repro/internal/incr"
)

// savedNet is one incident net's pre-move bounding box, captured by
// PreMove so PostMove can diff it against the post-move box.
type savedNet struct {
	ni int32
	bb geom.Rect
}

// savedPin is one of the moving cell's pins with its pre-move tile.
type savedPin struct {
	pi  int32
	idx int32
}

// demandDelta is one raw accumulator mutation, journaled while the cache
// transaction is open so Reverted can replay the exact inverse.
type demandDelta struct {
	idx  int32
	vert int32 // 0 = hDem, 1 = vDem
	d    int64
}

// Incremental keeps an Estimator's demand map exact while cells move
// through an incr.BBoxCache. It implements incr.Observer: PreMove records
// the incident nets' boxes and the cell's pin tiles, PostMove diffs them
// against the post-move state and applies remove-old/add-new demand —
// O(pins-on-cell) incident nets, each touching only its box's tiles.
// Because every contribution is the same pure fixed-point function the
// full Recompute uses, the maintained grid is bitwise-equal to a fresh
// recompute at every quiescent point (pinned by the differential tests),
// and the warm path performs no allocations.
//
// While the cache is inside a Begin transaction, raw accumulator deltas
// are journaled; Reverted replays the journal in reverse with negated
// deltas, Committed discards it.
type Incremental struct {
	e *Estimator
	c *incr.BBoxCache

	// Per-PreMove scratch, epoch-stamped to dedup nets across the moving
	// cell's pins without a map.
	netEpoch uint32
	netSeen  []uint32
	nets     []savedNet
	pins     []savedPin

	journal []demandDelta
}

// Attach builds an Incremental over the estimator and cache, installs it
// as the cache's observer, and recomputes the demand map from the cache's
// design so the two start in sync. The returned Incremental stays valid
// until the cache is rebuilt behind it (call Resync after a Rebuild).
func Attach(e *Estimator, c *incr.BBoxCache) *Incremental {
	inc := &Incremental{
		e:       e,
		c:       c,
		netSeen: make([]uint32, len(c.Design().Nets)),
	}
	c.SetObserver(inc)
	inc.Resync()
	return inc
}

// Estimator returns the estimator being maintained.
func (in *Incremental) Estimator() *Estimator { return in.e }

// Resync rebuilds the demand map from the design's current state. Cheap
// insurance after any out-of-band position change plus cache Rebuild.
func (in *Incremental) Resync() {
	in.journal = in.journal[:0]
	in.e.Recompute(in.c.Design())
}

// apply mutates one accumulator entry and journals the mutation when the
// cache transaction is open.
func (in *Incremental) apply(idx int, vert int32, d int64) {
	if d == 0 {
		return
	}
	if vert == 0 {
		in.e.hDem[idx] += d
	} else {
		in.e.vDem[idx] += d
	}
	if in.c.InTxn() {
		in.journal = append(in.journal, demandDelta{idx: int32(idx), vert: vert, d: d})
	}
}

// applyBox adds (sign = +1) or removes (sign = −1) one net box's demand.
func (in *Incremental) applyBox(bb geom.Rect, w float64, sign int64) {
	in.e.netDemand(bb, w, func(idx int, hu, vu int64) {
		in.apply(idx, 0, sign*hu)
		in.apply(idx, 1, sign*vu)
	})
}

// PreMove implements incr.Observer: snapshot the incident nets' boxes and
// the moving cell's pin tiles before the cache mutates them.
func (in *Incremental) PreMove(ci int) {
	d := in.c.Design()
	bumpEpoch(&in.netEpoch, in.netSeen)
	in.nets = in.nets[:0]
	in.pins = in.pins[:0]
	for _, pi := range d.Cells[ci].Pins {
		ni := d.Pins[pi].Net
		if d.Nets[ni].Degree() >= 2 && in.netSeen[ni] != in.netEpoch {
			in.netSeen[ni] = in.netEpoch
			in.nets = append(in.nets, savedNet{ni: int32(ni), bb: in.c.NetBox(ni)})
		}
		in.pins = append(in.pins, savedPin{
			pi:  int32(pi),
			idx: in.e.tileIdx(in.c.PinPos(pi)),
		})
	}
}

// PostMove implements incr.Observer: diff the snapshots against the
// post-move cache state and apply the demand difference. Nets whose box
// did not change (the moved pin was interior) and pins that stayed in
// their tile cost nothing.
func (in *Incremental) PostMove(ci int) {
	for i := range in.nets {
		s := &in.nets[i]
		ni := int(s.ni)
		now := in.c.NetBox(ni)
		if now == s.bb {
			continue
		}
		w := in.c.NetWeight(ni)
		in.applyBox(s.bb, w, -1)
		in.applyBox(now, w, +1)
	}
	for i := range in.pins {
		s := &in.pins[i]
		now := in.e.tileIdx(in.c.PinPos(int(s.pi)))
		if now == s.idx {
			continue
		}
		in.apply(int(s.idx), 0, -pinHalf)
		in.apply(int(s.idx), 1, -pinHalf)
		in.apply(int(now), 0, pinHalf)
		in.apply(int(now), 1, pinHalf)
	}
}

// Reverted implements incr.Observer: undo every journaled delta in
// reverse order. Integer adds are exact, so the accumulators return to
// their pre-transaction bits.
func (in *Incremental) Reverted() {
	for i := len(in.journal) - 1; i >= 0; i-- {
		j := &in.journal[i]
		if j.vert == 0 {
			in.e.hDem[j.idx] -= j.d
		} else {
			in.e.vDem[j.idx] -= j.d
		}
	}
	in.journal = in.journal[:0]
}

// Committed implements incr.Observer: the moves stand, drop the journal.
func (in *Incremental) Committed() {
	in.journal = in.journal[:0]
}

// bumpEpoch mirrors incr's epoch trick: advance, and on wrap clear the
// stamp slice so stale stamps can never alias a live epoch.
func bumpEpoch(e *uint32, stamps []uint32) {
	*e++
	if *e == 0 {
		for i := range stamps {
			stamps[i] = 0
		}
		*e = 1
	}
}
