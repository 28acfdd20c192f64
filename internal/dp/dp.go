// Package dp implements detailed placement on a legalized design: global
// swap (exchange same-size cells across the die toward their optimal
// regions), local reordering (permute small windows of row neighbours),
// and single-row shifting (slide each cell to its net-optimal x within the
// free gap). All moves are HPWL-greedy and fence-guarded: a move that
// would take a cell out of its fence, or an outsider into one, is
// rejected, so the legality invariants from the legalizer are preserved.
//
// Cost evaluation runs on an incremental engine (incr.BBoxCache): every
// trial move asks a DeltaEval for the exact change in weighted HPWL in
// O(pins-on-cell), instead of rescanning every pin of every touched net,
// and commits flow through the cache so the boxes stay exact. The warm
// trial path is allocation-free.
//
// Each pass is parallelized with the same recipe as the router: a
// *propose* phase fans the candidate moves out over par worker
// goroutines, each evaluating against the frozen pre-pass state and
// writing only its own per-item slot; then a serial *commit* phase walks
// the slots in fixed index order, re-validates every proposal against the
// live state (bounds, fences, and gain), and applies the survivors
// through the cache. Worker count decides only who evaluates, never what
// commits, so the result is byte-identical for any worker count.
package dp

import (
	"sort"

	"repro/internal/db"
	"repro/internal/estimate"
	"repro/internal/geom"
	"repro/internal/incr"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/route"
)

// eps is the strict-improvement threshold shared by every move kind: a
// proposal commits only when it lowers cost by more than this.
const eps = 1e-9

// windowSize is the local-reorder window; its cost grows factorially.
const windowSize = 3

// swapRadius is the neighbourhood, in row heights, searched for swap
// partners around a cell's optimal position.
const swapRadius = 10

// Options tunes detailed placement.
type Options struct {
	// Passes is the number of full optimization sweeps (default 2).
	Passes int

	// Workers is the propose-phase worker count, resolved through
	// par.Workers (≤ 0 selects the automatic default). Placement output
	// is byte-identical for every worker count.
	Workers int

	// Routed, when non-nil, makes detailed placement routability-aware:
	// moves into tiles whose routed utilization exceeds 1 pay a penalty
	// proportional to the overload, so HPWL-greedy moves stop piling
	// cells into routed hot spots. The map is a snapshot over its own
	// tile geometry.
	Routed      *route.CongestionMap
	CongPenalty float64 // cost per unit overload per unit cell area (default 0.5)

	// Estimate, when non-nil, supplies a *live* probabilistic congestion
	// map (internal/estimate) as the routability guard instead of the
	// static Routed snapshot. The optimizer attaches it to its
	// incremental engine, so every committed move updates the map in
	// O(pins-on-cell) and later moves see the relief (or new pressure)
	// earlier moves created. Takes precedence over Routed. The propose
	// phase reads the frozen map and commits apply serially in fixed
	// order, so output stays byte-identical for any worker count.
	Estimate *estimate.Estimator

	// Obs, when non-nil, records a "dp" span with per-pass move counters
	// and debug logging (telemetry only — moves are unaffected).
	Obs *obs.Recorder
}

func (o Options) withDefaults() Options {
	if o.Passes <= 0 {
		o.Passes = 2
	}
	if o.CongPenalty <= 0 {
		o.CongPenalty = 0.5
	}
	return o
}

// Result reports what detailed placement achieved.
type Result struct {
	Before, After float64
	Swaps         int
	Reorders      int
	Shifts        int
	// Trials counts evaluated candidate moves (propose and commit phases
	// combined); it is scheduling-independent.
	Trials int
	// Workers is the resolved propose-phase worker count.
	Workers int
}

// Optimize runs the detailed-placement passes over the design in place.
func Optimize(d *db.Design, opt Options) Result {
	opt = opt.withDefaults()
	o := newOptimizer(d, opt)
	sp := opt.Obs.StartSpan("dp")
	res := Result{Before: d.HPWL(), Workers: o.workers}
	for p := 0; p < opt.Passes; p++ {
		psp := sp.StartSpanf("pass-%d", p)
		sw, re, sh := o.globalSwap(), o.localReorder(), o.rowShift()
		res.Swaps += sw
		res.Reorders += re
		res.Shifts += sh
		if psp != nil {
			psp.Add("swaps", int64(sw))
			psp.Add("reorders", int64(re))
			psp.Add("shifts", int64(sh))
			psp.End()
		}
	}
	res.Trials = int(o.trials)
	res.After = d.HPWL()
	if sp != nil {
		sp.Add("swaps", int64(res.Swaps))
		sp.Add("reorders", int64(res.Reorders))
		sp.Add("shifts", int64(res.Shifts))
		sp.Add("trials", int64(res.Trials))
		sp.Add("workers", int64(res.Workers))
		sp.End()
		opt.Obs.Log().Debug("detailed placement done",
			"passes", opt.Passes, "workers", res.Workers, "trials", res.Trials,
			"swaps", res.Swaps, "reorders", res.Reorders, "shifts", res.Shifts,
			"hpwl_before", res.Before, "hpwl_after", res.After)
	}
	return res
}

type optimizer struct {
	d         *db.Design
	opt       Options
	workers   int
	obstacles []geom.Rect
	// congTiles is the geometry of the congestion guard's map (the
	// estimator's, else the routed snapshot's); nil without a guard.
	congTiles *route.Tiles

	cache   *incr.BBoxCache
	anchors *incr.Anchors
	states  []*workerState

	cells      []int       // movable std cells, ascending index
	cellRegion []int       // CellRegion per design cell, precomputed
	cellW      []float64   // oriented cell dims, precomputed (orientation is
	cellH      []float64   // fixed during detailed placement)
	cellClass  []int32     // swap-compatibility class: same (W, H, region)
	classes    int         // number of swap classes
	fenceRects []geom.Rect // every fence rectangle, flattened
	perms      [][]int

	trials int64

	// Row scratch, reused across passes: cells grouped by row y, each row
	// sorted by x.
	rows    map[float64][]int
	rowYs   []float64
	rowList [][]int

	idx       bucketIndex
	swapProps []swapProposal
}

// workerState is the per-worker scratch of the propose phase: an
// evaluator over the shared cache plus a trial counter that is folded
// into the optimizer total after the parallel section.
type workerState struct {
	eval      *incr.DeltaEval
	order     []int // permutation scratch for the reorder scan
	bestOrder []int
	groupPos  []geom.Point // window-slot positions for the group pricing
	trials    int64
}

func newOptimizer(d *db.Design, opt Options) *optimizer {
	o := &optimizer{d: d, opt: opt, workers: par.Workers(opt.Workers)}
	o.cellRegion = make([]int, len(d.Cells))
	o.cellW = make([]float64, len(d.Cells))
	o.cellH = make([]float64, len(d.Cells))
	for ci := range d.Cells {
		c := &d.Cells[ci]
		if !c.Movable() && c.Kind != db.Terminal && c.Area() > 0 {
			o.obstacles = append(o.obstacles, c.Rect())
		}
		if c.Movable() && c.Kind == db.StdCell {
			o.cells = append(o.cells, ci)
		}
		o.cellRegion[ci] = d.CellRegion(ci)
		o.cellW[ci] = c.W()
		o.cellH[ci] = c.H()
	}
	// Two cells may swap iff they have the same footprint and the same
	// region (same footprint + legal placement means each lands exactly on
	// the other's rect, so same-region is the whole fence condition; the
	// commit phase still re-checks exactly). One int compare per candidate
	// replaces the W/H/region triple.
	o.cellClass = make([]int32, len(d.Cells))
	type classKey struct {
		w, h float64
		rg   int
	}
	classes := make(map[classKey]int32)
	for _, ci := range o.cells {
		key := classKey{o.cellW[ci], o.cellH[ci], o.cellRegion[ci]}
		id, ok := classes[key]
		if !ok {
			id = int32(len(classes))
			classes[key] = id
		}
		o.cellClass[ci] = id
	}
	o.classes = len(classes)
	for gi := range d.Regions {
		o.fenceRects = append(o.fenceRects, d.Regions[gi].Rects...)
	}
	o.perms = permutations(windowSize)
	o.cache = incr.New(d)
	o.anchors = o.cache.NewAnchors()
	if opt.Estimate != nil {
		// Live routability guard: the estimator rides the cache's observer
		// hooks, so Move/Revert/Commit keep its demand map exact without
		// any polling in the move loops.
		estimate.Attach(opt.Estimate, o.cache)
		o.congTiles = &opt.Estimate.Tiles
	} else if opt.Routed != nil {
		o.congTiles = &opt.Routed.Tiles
	}
	return o
}

// buildAnchors refreshes every movable cell's anchor boxes against the
// frozen pre-pass state (cells are independent, so the build fans out).
func (o *optimizer) buildAnchors() {
	par.For(len(o.cells), o.workers, func(i int) { o.anchors.BuildCell(o.cells[i]) })
}

// state returns worker k's scratch, growing the pool on demand.
func (o *optimizer) state(k int) *workerState {
	for len(o.states) <= k {
		o.states = append(o.states, &workerState{eval: o.cache.NewEval()})
	}
	return o.states[k]
}

// forItems runs the propose phase: fn(ws, i) for every i in [0, n) across
// the optimizer's workers. fn must only read the frozen design/cache and
// write worker-private state or its own per-item slot. Worker trial
// counts are folded into the optimizer total before returning, so the
// aggregate is scheduling-independent.
func (o *optimizer) forItems(n int, fn func(ws *workerState, i int)) {
	w := o.workers
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	for k := 0; k < w; k++ {
		o.state(k)
	}
	par.ForWorker(n, w, func(k, i int) { fn(o.states[k], i) })
	for k := 0; k < w; k++ {
		o.trials += o.states[k].trials
		o.states[k].trials = 0
	}
}

// gapBounds narrows the free interval [left, right] for a cell occupying
// the vertical band [y, y+h) so it cannot slide into a fixed obstacle.
// The cell currently sits at x (legally, outside every obstacle).
func (o *optimizer) gapBounds(left, right, y, h, x float64) (float64, float64) {
	for _, ob := range o.obstacles {
		if ob.Hi.Y <= y || ob.Lo.Y >= y+h {
			continue
		}
		if ob.Hi.X <= x && ob.Hi.X > left {
			left = ob.Hi.X
		}
		if ob.Lo.X >= x && ob.Lo.X < right {
			right = ob.Lo.X
		}
	}
	return left, right
}

// congCostAt is the congestion penalty of the cell centered over pos:
// overload beyond 100% utilization costs CongPenalty per unit of cell
// width (the width proxy keeps the penalty commensurate with HPWL units).
// With a live estimator the overload is read from the continuously
// maintained probabilistic map; otherwise from the routed snapshot.
// Either way the tile is the centre's offset over the tile size truncated
// toward zero, and a tile outside the grid costs nothing.
func (o *optimizer) congCostAt(ci int, pos geom.Point) float64 {
	t := o.congTiles
	if t == nil {
		return 0
	}
	tx := int((pos.X + o.cellW[ci]/2 - t.Origin.X) / t.TileW)
	ty := int((pos.Y + o.cellH[ci]/2 - t.Origin.Y) / t.TileH)
	if tx < 0 || ty < 0 || tx >= t.NX || ty >= t.NY {
		return 0
	}
	var over float64
	if e := o.opt.Estimate; e != nil {
		over = e.CongestionAt(tx, ty) - 1
	} else {
		over = o.opt.Routed.Cong[ty*t.NX+tx] - 1
	}
	if over <= 0 {
		return 0
	}
	return o.opt.CongPenalty * over * o.cellW[ci] * 10
}

// congDelta is the change in congestion penalty of moving cell ci from
// its current position to pos.
func (o *optimizer) congDelta(ci int, pos geom.Point) float64 {
	if o.congTiles == nil {
		return 0
	}
	return o.congCostAt(ci, pos) - o.congCostAt(ci, o.d.Cells[ci].Pos)
}

// optimalPoint returns the center of the cell's nets' bounding boxes,
// excluding the cell's own pins — a cheap optimal-region proxy. Reads
// the anchor base boxes, so it is only valid inside a propose phase
// that called buildAnchors against the current frozen state.
func (o *optimizer) optimalPoint(ci int) (geom.Point, bool) {
	return o.anchors.OptimalPoint(ci)
}

// fenceOKAt verifies the cell footprint at pos against its fence (both
// directions: members must be inside, outsiders outside every fence).
// An outsider is tested against the flattened fence rectangles, and one
// with no y overlap is skipped before the area test — exact, since
// Rect.Overlaps is OverlapArea > 0 and a zero y factor never gives a
// positive product.
func (o *optimizer) fenceOKAt(ci int, pos geom.Point) bool {
	r := geom.Rect{Lo: pos, Hi: geom.Point{X: pos.X + o.cellW[ci], Y: pos.Y + o.cellH[ci]}}
	if rg := o.cellRegion[ci]; rg != db.NoRegion {
		return o.d.Regions[rg].Contains(r)
	}
	for _, fr := range o.fenceRects {
		if fr.Hi.Y <= r.Lo.Y || fr.Lo.Y >= r.Hi.Y {
			continue
		}
		if fr.Overlaps(r) {
			return false
		}
	}
	return true
}

// buildRows groups the movable std cells by row y, each row sorted by x
// (cell index breaks ties). The map and slices are scratch reused across
// calls; only the grouping is recomputed.
func (o *optimizer) buildRows() {
	d := o.d
	if o.rows == nil {
		o.rows = make(map[float64][]int, 64)
	}
	for y, r := range o.rows {
		o.rows[y] = r[:0]
	}
	for _, ci := range o.cells {
		y := d.Cells[ci].Pos.Y
		o.rows[y] = append(o.rows[y], ci)
	}
	o.rowYs = o.rowYs[:0]
	for y, r := range o.rows {
		if len(r) > 0 {
			o.rowYs = append(o.rowYs, y)
		}
	}
	sort.Float64s(o.rowYs)
	o.rowList = o.rowList[:0]
	for _, y := range o.rowYs {
		row := o.rows[y]
		sort.Slice(row, func(a, b int) bool {
			if d.Cells[row[a]].Pos.X != d.Cells[row[b]].Pos.X {
				return d.Cells[row[a]].Pos.X < d.Cells[row[b]].Pos.X
			}
			return row[a] < row[b]
		})
		o.rowList = append(o.rowList, row)
	}
}

// permutations returns all permutations of [0, n).
func permutations(n int) [][]int {
	if n == 0 {
		return [][]int{{}}
	}
	sub := permutations(n - 1)
	var out [][]int
	for _, p := range sub {
		for pos := 0; pos <= len(p); pos++ {
			np := make([]int, 0, n)
			np = append(np, p[:pos]...)
			np = append(np, n-1)
			np = append(np, p[pos:]...)
			out = append(out, np)
		}
	}
	return out
}
