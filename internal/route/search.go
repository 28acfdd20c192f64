package route

// Allocation-free maze search. Each worker owns one searchState whose
// dist/prev arrays are invalidated by epoch stamping instead of O(n)
// clears, and whose binary heap is a pooled slice of plain structs (no
// container/heap interface boxing). The search itself is A* under an
// admissible Manhattan × min-edge-cost heuristic, restricted to a
// bounding-box window around the segment so reroutes stop paying
// full-grid Dijkstra.

// window is an inclusive tile rectangle bounding a maze search.
type window struct{ x0, y0, x1, y1 int }

func (w window) isFull(g *Grid) bool {
	return w.x0 == 0 && w.y0 == 0 && w.x1 == g.NX-1 && w.y1 == g.NY-1
}

// segWindow is the bounding box of a and b expanded by margin tiles,
// clamped to the grid.
func segWindow(g *Grid, a, b tile, margin int) window {
	w := window{
		x0: min(a.x, b.x) - margin, y0: min(a.y, b.y) - margin,
		x1: max(a.x, b.x) + margin, y1: max(a.y, b.y) + margin,
	}
	if w.x0 < 0 {
		w.x0 = 0
	}
	if w.y0 < 0 {
		w.y0 = 0
	}
	if w.x1 > g.NX-1 {
		w.x1 = g.NX - 1
	}
	if w.y1 > g.NY-1 {
		w.y1 = g.NY - 1
	}
	return w
}

// baseMargin is the initial search-window margin for a segment: a quarter
// of its Manhattan span plus a small constant, so short reroutes stay
// local while long ones get room to detour. The same margin defines the
// disjointness windows used for batch partitioning.
func baseMargin(a, b tile) int {
	return (abs(a.x-b.x)+abs(a.y-b.y))/4 + 4
}

// costSnapshot caches the negotiated cost of every grid edge so the inner
// relax loop is two array reads instead of re-deriving the PathFinder
// cost formula. minEdge is the smallest cached cost, the admissible unit
// of the A* heuristic; within an RRR round demand only increases after
// the snapshot is built, so minEdge never over-estimates.
type costSnapshot struct {
	h, v    []float64
	minEdge float64
}

// snapshotCosts (re)builds the cost cache from the grid's current demand,
// capacity and history state.
func (r *Router) snapshotCosts() {
	cs := &r.costs
	g := r.G
	if len(cs.h) != len(g.HCap) {
		cs.h = make([]float64, len(g.HCap))
	}
	if len(cs.v) != len(g.VCap) {
		cs.v = make([]float64, len(g.VCap))
	}
	cs.minEdge = 1
	first := true
	for i := range cs.h {
		c := r.edgeCost(g.HDem[i], g.HCap[i], g.HHist[i])
		cs.h[i] = c
		if first || c < cs.minEdge {
			cs.minEdge = c
			first = false
		}
	}
	for i := range cs.v {
		c := r.edgeCost(g.VDem[i], g.VCap[i], g.VHist[i])
		cs.v[i] = c
		if c < cs.minEdge {
			cs.minEdge = c
		}
	}
	if cs.minEdge <= 0 || first {
		cs.minEdge = 1
	}
}

// updatePathCosts refreshes the snapshot entries of every edge on path
// after its demand changed (O(len(path)), keeping per-batch snapshot
// maintenance off the O(edges) rebuild path). Rip-ups can lower an edge
// below the round's initial minimum, so minEdge follows decreases — it
// must never exceed the true minimum or the heuristic turns inadmissible.
func (r *Router) updatePathCosts(path []tile) {
	g := r.G
	cs := &r.costs
	for i := 0; i+1 < len(path); i++ {
		a, b := path[i], path[i+1]
		var c float64
		if a.y == b.y {
			e := g.HIdx(min(a.x, b.x), a.y)
			c = r.edgeCost(g.HDem[e], g.HCap[e], g.HHist[e])
			cs.h[e] = c
		} else {
			e := g.VIdx(a.x, min(a.y, b.y))
			c = r.edgeCost(g.VDem[e], g.VCap[e], g.VHist[e])
			cs.v[e] = c
		}
		if c < cs.minEdge {
			cs.minEdge = c
		}
	}
}

// heapEntry is one open-list node: prio = g + heuristic, g the exact
// distance from the source (kept so stale entries are skipped lazily).
type heapEntry struct {
	prio float64
	g    float64
	idx  int32
}

// searchHeap is a hand-rolled binary min-heap over heapEntry slices; push
// and pop never allocate once the backing array has grown.
type searchHeap []heapEntry

func (h *searchHeap) push(e heapEntry) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if s[p].prio <= s[i].prio {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
}

func (h *searchHeap) pop() heapEntry {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	*h = s[:n]
	s = s[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if rc := l + 1; rc < n && s[rc].prio < s[l].prio {
			m = rc
		}
		if s[i].prio <= s[m].prio {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	return top
}

// searchState is the reusable per-worker scratch of the maze search.
// dist/prev entries are valid only where stamp matches the current epoch,
// so starting a new search is one integer increment instead of an O(n)
// memset.
type searchState struct {
	dist  []float64
	prev  []int32
	stamp []uint32
	epoch uint32
	heap  searchHeap
}

func (ss *searchState) ensure(n int) {
	if len(ss.dist) < n {
		ss.dist = make([]float64, n)
		ss.prev = make([]int32, n)
		ss.stamp = make([]uint32, n)
		ss.epoch = 0
	}
	if ss.heap == nil {
		ss.heap = make(searchHeap, 0, 256)
	}
}

// begin opens a new search epoch, clearing stamps only on the (rare)
// 32-bit wraparound.
func (ss *searchState) begin() {
	ss.epoch++
	if ss.epoch == 0 {
		for i := range ss.stamp {
			ss.stamp[i] = 0
		}
		ss.epoch = 1
	}
	ss.heap = ss.heap[:0]
}

// aStar finds the minimum-cost path a→b inside win under the router's
// frozen cost snapshot, appending the result to dst (reusing its
// capacity). The caller must hold the grid and snapshot constant for the
// duration. Returns nil only if the goal is unreachable, which cannot
// happen on a rectangular window (every edge has finite cost) and is
// handled by the caller as a defensive fallback.
func (ss *searchState) aStar(r *Router, a, b tile, win window, dst []tile) []tile {
	g := r.G
	nx := g.NX
	ss.ensure(nx * g.NY)
	ss.begin()
	cs := &r.costs
	hUnit := cs.minEdge
	start := int32(a.y*nx + a.x)
	goal := int32(b.y*nx + b.x)
	ss.dist[start] = 0
	ss.prev[start] = -1
	ss.stamp[start] = ss.epoch
	ss.heap.push(heapEntry{float64(abs(a.x-b.x)+abs(a.y-b.y)) * hUnit, 0, start})
	for len(ss.heap) > 0 {
		e := ss.heap.pop()
		u := e.idx
		if e.g > ss.dist[u] {
			continue // stale open-list entry
		}
		if u == goal {
			break
		}
		ux, uy := int(u)%nx, int(u)/nx
		relax := func(v int32, vx, vy int, c float64) {
			nd := e.g + c
			if ss.stamp[v] == ss.epoch && nd >= ss.dist[v] {
				return
			}
			ss.stamp[v] = ss.epoch
			ss.dist[v] = nd
			ss.prev[v] = u
			h := float64(abs(vx-b.x)+abs(vy-b.y)) * hUnit
			ss.heap.push(heapEntry{nd + h, nd, v})
		}
		if ux+1 <= win.x1 {
			relax(u+1, ux+1, uy, cs.h[g.HIdx(ux, uy)])
		}
		if ux-1 >= win.x0 {
			relax(u-1, ux-1, uy, cs.h[g.HIdx(ux-1, uy)])
		}
		if uy+1 <= win.y1 {
			relax(u+int32(nx), ux, uy+1, cs.v[g.VIdx(ux, uy)])
		}
		if uy-1 >= win.y0 {
			relax(u-int32(nx), ux, uy-1, cs.v[g.VIdx(ux, uy-1)])
		}
	}
	if ss.stamp[goal] != ss.epoch && goal != start {
		return nil
	}
	// Reconstruct goal→start into dst, then reverse in place.
	dst = dst[:0]
	for u := goal; ; u = ss.prev[u] {
		dst = append(dst, tile{int(u) % nx, int(u) / nx})
		if u == start {
			break
		}
	}
	for i, j := 0, len(dst)-1; i < j; i, j = i+1, j-1 {
		dst[i], dst[j] = dst[j], dst[i]
	}
	return dst
}

// pathWouldOverflow reports whether routing one more track along path
// would push any of its edges over capacity (dem+1 > cap), under the
// grid's current (frozen-during-batch) demand.
func (r *Router) pathWouldOverflow(path []tile) bool {
	g := r.G
	for i := 0; i+1 < len(path); i++ {
		a, b := path[i], path[i+1]
		if a.y == b.y {
			e := g.HIdx(min(a.x, b.x), a.y)
			if g.HDem[e]+1 > g.HCap[e] {
				return true
			}
		} else {
			e := g.VIdx(a.x, min(a.y, b.y))
			if g.VDem[e]+1 > g.VCap[e] {
				return true
			}
		}
	}
	return false
}

// rerouteSegment computes a fresh path for s into s.path's storage. The
// search starts in the segment's base window and expands (×4 margin per
// attempt, then the full grid) while the best in-window path would still
// overflow — congestion that a wider detour could avoid.
func (r *Router) rerouteSegment(ss *searchState, s *segment) []tile {
	if s.a == s.b {
		return append(s.path[:0], s.a)
	}
	margin := baseMargin(s.a, s.b)
	for {
		win := segWindow(r.G, s.a, s.b, margin)
		path := ss.aStar(r, s.a, s.b, win, s.path[:0])
		if path == nil {
			// Defensive: cannot happen on a rectangular window. Fall back
			// to a straight L so the segment stays routed.
			return lPath(s.path[:0], s.a, s.b)
		}
		s.path = path
		if win.isFull(r.G) || !r.pathWouldOverflow(path) {
			return path
		}
		margin *= 4
	}
}

// lPath appends the horizontal-first L route a→b to dst (race-free
// fallback: no shared scratch, no cost evaluation).
func lPath(dst []tile, a, b tile) []tile {
	dst = append(dst, a)
	if b.x != a.x {
		dst = hSpan(dst, a.x, b.x, a.y)
	}
	if b.y != a.y {
		dst = vSpanSimple(dst, a.y, b.y, b.x)
	}
	return dst
}
