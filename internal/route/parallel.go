package route

// Batch-parallel rip-up-and-reroute. Each RRR round collects the
// overflowed segments in deterministic (index) order, rips them all up,
// and partitions them into spatially disjoint batches: two segments share
// a batch only if their expanded search windows do not overlap (tested on
// a coarse occupancy bitmap, so false positives cost parallelism, never
// correctness). Segments within a batch are routed concurrently against a
// frozen cost snapshot — no worker observes another's route — and their
// demand is committed in segment-index order between batches. The routed
// Result is therefore byte-identical for any worker count: worker
// scheduling decides only who computes each (pure) search, never what is
// searched or in which order effects land.

import "repro/internal/par"

// coarseDim is the side of the occupancy bitmap used for window-overlap
// tests during batch partitioning: the grid is collapsed onto a
// coarseDim×coarseDim bit grid (coarseWords 64-bit words per batch).
const coarseDim = 32

const coarseWords = coarseDim * coarseDim / 64

// maxBatchScan bounds how many existing batches a segment probes before
// opening a new one, keeping partitioning near-linear under adversarial
// overlap patterns.
const maxBatchScan = 32

type occMask [coarseWords]uint64

func (m *occMask) overlaps(o *occMask) bool {
	for i := range m {
		if m[i]&o[i] != 0 {
			return true
		}
	}
	return false
}

func (m *occMask) or(o *occMask) {
	for i := range m {
		m[i] |= o[i]
	}
}

// windowMask rasterizes a window onto the coarse occupancy grid.
func (r *Router) windowMask(w window) occMask {
	g := r.G
	cw := (g.NX + coarseDim - 1) / coarseDim
	ch := (g.NY + coarseDim - 1) / coarseDim
	var m occMask
	for cy := w.y0 / ch; cy <= w.y1/ch; cy++ {
		for cx := w.x0 / cw; cx <= w.x1/cw; cx++ {
			bit := cy*coarseDim + cx
			m[bit/64] |= 1 << (bit % 64)
		}
	}
	return m
}

// collectOverflowed appends to buf the indices of segments whose current
// path crosses an over-capacity edge, in segment order.
func (r *Router) collectOverflowed(buf []int) []int {
	buf = buf[:0]
	for si := range r.segs {
		if r.pathOverflows(r.segs[si].path) {
			buf = append(buf, si)
		}
	}
	return buf
}

// partition splits the overflowed segment indices into batches of
// segments with pairwise-disjoint base search windows. Iteration order
// and the greedy first-fit rule are fixed, so the partition depends only
// on the segment set — not on worker count or scheduling.
func (r *Router) partition(idxs []int) [][]int {
	r.batchSegs = r.batchSegs[:0]
	r.batchOcc = r.batchOcc[:0]
	for _, si := range idxs {
		s := &r.segs[si]
		m := r.windowMask(segWindow(r.G, s.a, s.b, baseMargin(s.a, s.b)))
		placed := false
		scan := len(r.batchSegs)
		if scan > maxBatchScan {
			scan = maxBatchScan
		}
		for bi := 0; bi < scan; bi++ {
			if !r.batchOcc[bi].overlaps(&m) {
				r.batchOcc[bi].or(&m)
				r.batchSegs[bi] = append(r.batchSegs[bi], si)
				placed = true
				break
			}
		}
		if !placed {
			r.batchSegs = append(r.batchSegs, append(r.scratchBatch(), si))
			r.batchOcc = append(r.batchOcc, m)
		}
	}
	return r.batchSegs
}

// scratchBatch recycles batch index slices across rounds and RouteDesign
// calls.
func (r *Router) scratchBatch() []int {
	if n := len(r.batchPool); n > 0 {
		b := r.batchPool[n-1][:0]
		r.batchPool = r.batchPool[:n-1]
		return b
	}
	return make([]int, 0, 8)
}

// reclaimBatches returns all batch slices to the pool.
func (r *Router) reclaimBatches() {
	r.batchPool = append(r.batchPool, r.batchSegs...)
	r.batchSegs = r.batchSegs[:0]
	r.batchOcc = r.batchOcc[:0]
}

// state returns worker k's reusable searchState, growing the pool on
// demand. It appends to r.states, so call it before any worker starts.
func (r *Router) state(k int) *searchState {
	for len(r.states) <= k {
		r.states = append(r.states, &searchState{})
	}
	return r.states[k]
}

// routeBatch reroutes every segment in idxs against the frozen grid and
// cost snapshot, the segments pulled off par.ForWorker's shared cursor.
// Every search is a pure function of the frozen state, so the work
// assignment cannot influence any path.
func (r *Router) routeBatch(idxs []int) {
	// Grow the state pool before the workers start: they only index it.
	r.state(max(1, min(r.workers, len(idxs))) - 1)
	r.batch = idxs
	par.ForWorker(len(idxs), r.workers, r.rerouteTasks)
	r.batch = nil
}

// rerouteTask reroutes segment r.batch[i] on worker k's search state.
func (r *Router) rerouteTask(k, i int) {
	s := &r.segs[r.batch[i]]
	s.path = r.rerouteSegment(r.states[k], s)
}

// rrrRound runs one negotiated rip-up-and-reroute round. It returns false
// when no segment overflowed (nothing to do). Rip-up is per batch, so a
// segment negotiates against the still-committed demand of every
// overflowed segment in later batches — the same visibility the serial
// one-at-a-time loop had, except among batch members, whose disjoint
// windows keep them from competing for the same edges anyway.
func (r *Router) rrrRound() bool {
	r.bumpHistory()
	r.overflowed = r.collectOverflowed(r.overflowed)
	if len(r.overflowed) == 0 {
		return false
	}
	r.snapshotCosts()
	batches := r.partition(r.overflowed)
	r.roundRerouted = len(r.overflowed)
	r.roundBatches = len(batches)
	for _, batch := range batches {
		// Cancellation is observed only here, between batches: every path
		// is either fully committed or untouched, so a canceled routing
		// call still leaves the grid demand consistent.
		if r.ctx != nil && r.ctx.Err() != nil {
			break
		}
		for _, si := range batch {
			r.commit(r.segs[si].path, -1)
			r.updatePathCosts(r.segs[si].path)
		}
		r.routeBatch(batch)
		// Deterministic commit: demand (and the incremental snapshot
		// refresh) lands in segment-index order regardless of which worker
		// routed what.
		for _, si := range batch {
			r.commit(r.segs[si].path, +1)
			r.updatePathCosts(r.segs[si].path)
		}
	}
	r.reclaimBatches()
	return true
}

// Workers reports the resolved worker count the router routes with.
func (r *Router) Workers() int { return r.workers }

// resolveWorkers applies the shared policy (internal/par) to the option.
func resolveWorkers(n int) int { return par.Workers(n) }
