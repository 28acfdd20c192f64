package route

import (
	"context"
	"math"
	"sort"
	"time"

	"repro/internal/db"
	"repro/internal/obs"
	"repro/internal/steiner"
)

// RouterOptions tunes the negotiated global router.
type RouterOptions struct {
	// MaxRRRIters is the number of rip-up-and-reroute rounds after the
	// initial pattern-routing pass (default 4).
	MaxRRRIters int
	// Workers is the rip-up-and-reroute worker count; ≤ 0 selects the
	// shared automatic policy (par.Workers: REPRO_WORKERS env override,
	// else GOMAXPROCS capped). The routed Result is byte-identical for
	// every worker count — see parallel.go for the batching contract.
	Workers int
	// Obs, when non-nil, records a span and per-round overflow trace for
	// every RouteDesign call. Nil keeps the warm reroute path free of
	// telemetry overhead (0 allocs/op, pinned by TestWarmRerouteNoAllocs)
	// and recording never changes routing results.
	Obs *obs.Recorder
	// TraceLabel names this router's trace records ("route" when empty);
	// SetTraceContext overrides it per RouteDesign call.
	TraceLabel string
}

func (o RouterOptions) withDefaults() RouterOptions {
	if o.MaxRRRIters <= 0 {
		o.MaxRRRIters = 4
	}
	return o
}

// Fixed tuning of the router: every run uses these values.
const (
	// historyInc is added to every overflowed edge's history cost per
	// round.
	historyInc = 0.5
	// overflowPenalty is the cost slope per unit of overflow.
	overflowPenalty = 8
	// zSamples is the number of intermediate bend positions tried per
	// Z-shape direction in pattern routing.
	zSamples = 8
)

// tile is a grid coordinate.
type tile struct{ x, y int }

// segment is one two-pin connection produced by net decomposition, with
// its current route as a tile path.
type segment struct {
	net  int
	a, b tile
	path []tile
}

// Router routes a design over a Grid and accumulates demand on it. All
// scratch state (segment paths, cost snapshot, per-worker search states,
// batch partitions) is retained between RouteDesign calls, so repeated
// routing of the same design — the placer's routability loop — runs
// nearly allocation-free after the first call.
type Router struct {
	G       *Grid
	opt     RouterOptions
	workers int
	segs    []segment

	// ctx is the cancellation context of the RouteDesignCtx call in
	// flight; it is polled only at batch boundaries so the committed
	// demand stays consistent (see rrrRound). Nil between calls.
	ctx context.Context

	// Telemetry (see RouterOptions.Obs and SetTraceContext). roundRerouted
	// and roundBatches are written by rrrRound for RouteDesign to record.
	obs           *obs.Recorder
	obsParent     *obs.Span
	obsLabel      string
	roundRerouted int
	roundBatches  int

	// Reusable scratch (see search.go and parallel.go). batch is the
	// reroute batch in flight; rerouteTasks is rerouteTask bound once, so
	// handing it to par.ForWorker allocates nothing.
	costs             costSnapshot
	states            []*searchState
	batch             []int
	rerouteTasks      func(k, i int)
	order             []int
	overflowed        []int
	batchSegs         [][]int
	batchOcc          []occMask
	batchPool         [][]int
	patBest, patTrial []tile
	seenTiles         map[tile]bool
	pts               []steiner.Point
	samples           []int
}

// NewRouter wraps a grid (whose demand it owns during routing).
func NewRouter(g *Grid, opt RouterOptions) *Router {
	r := &Router{G: g, opt: opt.withDefaults(), workers: resolveWorkers(opt.Workers), obs: opt.Obs, obsLabel: opt.TraceLabel}
	r.rerouteTasks = r.rerouteTask
	return r
}

// SetTraceContext parents subsequent RouteDesign spans under sp (nil =
// recorder root) and labels their per-round trace records with label.
// The placer's routability loop uses it to attribute each routing call
// to its loop iteration.
func (r *Router) SetTraceContext(sp *obs.Span, label string) {
	r.obsParent = sp
	r.obsLabel = label
}

// traceLabel is the context label for trace records ("route" default).
func (r *Router) traceLabel() string {
	if r.obsLabel == "" {
		return "route"
	}
	return r.obsLabel
}

// Result summarizes one routing run.
type Result struct {
	// Segments is the number of routed two-pin segments.
	Segments int
	// WirelengthTiles is the total routed length in tile crossings.
	WirelengthTiles int
	// InitialOverflow is the overflow after the pattern-routing pass,
	// before any rip-up rounds.
	InitialOverflow float64
	// Overflow is the total demand above capacity, in tracks.
	Overflow float64
	// MaxCongestion is the worst edge utilization.
	MaxCongestion float64
	// RRRIters is the number of rip-up rounds actually run.
	RRRIters int
}

// RouteDesign decomposes every net into Steiner-tree segments over pin tiles,
// pattern-routes them, then rips up and reroutes through congestion until
// overflow clears or the round budget is exhausted. Demand is left on the
// grid for metric extraction. Reroute rounds run batch-parallel (see
// parallel.go); the result is identical for every worker count.
func (r *Router) RouteDesign(d *db.Design) Result {
	res, _ := r.RouteDesignCtx(context.Background(), d)
	return res
}

// RouteDesignCtx is RouteDesign honoring ctx: cancellation is observed
// between reroute batches (never inside one), so the grid demand the
// router leaves behind is always the consistent image of every committed
// path. On cancellation the partial Result and ctx's error are returned.
// A ctx that never cancels yields byte-identical results to RouteDesign.
func (r *Router) RouteDesignCtx(ctx context.Context, d *db.Design) (Result, error) {
	r.ctx = ctx
	defer func() { r.ctx = nil }()
	var sp *obs.Span
	var t0 time.Time
	if r.obs.Enabled() {
		sp = obs.ChildSpan(r.obsParent, r.obs, "route")
		t0 = r.obs.Now()
	}
	r.G.ResetDemand()
	r.G.ResetHistory()
	r.segs = r.segs[:0]
	for ni := range d.Nets {
		r.decompose(d, ni)
	}
	// Initial pass: short segments first so long nets negotiate around
	// the fabric the short ones already claimed.
	r.order = r.order[:0]
	for i := range r.segs {
		r.order = append(r.order, i)
	}
	order := r.order
	sort.Slice(order, func(i, j int) bool {
		si, sj := &r.segs[order[i]], &r.segs[order[j]]
		di := abs(si.a.x-si.b.x) + abs(si.a.y-si.b.y)
		dj := abs(sj.a.x-sj.b.x) + abs(sj.a.y-sj.b.y)
		if di != dj {
			return di < dj
		}
		return order[i] < order[j]
	})
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	for _, si := range order {
		s := &r.segs[si]
		s.path = r.patternRouteInto(s.path[:0], s.a, s.b)
		r.commit(s.path, +1)
	}

	res := Result{Segments: len(r.segs), InitialOverflow: r.G.TotalOverflow()}
	if r.obs.Enabled() {
		now := r.obs.Now()
		r.obs.RecordRouteRound(obs.RouteRound{
			Context: r.traceLabel(), Round: 0,
			Overflow: res.InitialOverflow, Rerouted: len(r.segs),
			WallMS: wallMS(now.Sub(t0)),
		})
		t0 = now
	}
	for iter := 0; iter < r.opt.MaxRRRIters; iter++ {
		if ctx.Err() != nil || r.G.TotalOverflow() <= 0 {
			break
		}
		res.RRRIters = iter + 1
		if !r.rrrRound() {
			break
		}
		if r.obs.Enabled() {
			now := r.obs.Now()
			r.obs.RecordRouteRound(obs.RouteRound{
				Context: r.traceLabel(), Round: iter + 1,
				Overflow: r.G.TotalOverflow(), Rerouted: r.roundRerouted,
				Batches: r.roundBatches, WallMS: wallMS(now.Sub(t0)),
			})
			t0 = now
		}
	}
	for si := range r.segs {
		res.WirelengthTiles += len(r.segs[si].path) - 1
	}
	res.Overflow = r.G.TotalOverflow()
	res.MaxCongestion = r.G.MaxCongestion()
	if sp != nil {
		sp.Add("segments", int64(res.Segments))
		sp.Add("rrr_iters", int64(res.RRRIters))
		sp.Add("wirelength_tiles", int64(res.WirelengthTiles))
		sp.End()
		r.obs.Log().Debug("route design",
			"context", r.traceLabel(), "segments", res.Segments,
			"initial_overflow", res.InitialOverflow, "overflow", res.Overflow,
			"max_congestion", res.MaxCongestion, "rrr_iters", res.RRRIters)
	}
	return res, ctx.Err()
}

// wallMS converts a duration to fractional milliseconds.
func wallMS(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}

func abs(a int) int {
	if a < 0 {
		return -a
	}
	return a
}

// decompose maps a net's pins to distinct tiles and adds the edges of a
// rectilinear Steiner tree over them as two-pin segments. Steiner points
// become ordinary route endpoints, so shared trunks are routed (and their
// demand counted) once instead of per pin pair.
func (r *Router) decompose(d *db.Design, ni int) {
	net := &d.Nets[ni]
	if net.Degree() < 2 {
		return
	}
	if r.seenTiles == nil {
		r.seenTiles = make(map[tile]bool, 16)
	}
	seen := r.seenTiles
	clear(seen)
	pts := r.pts[:0]
	for _, pi := range net.Pins {
		tx, ty := r.G.TileOf(d.PinPos(pi))
		tl := tile{tx, ty}
		if !seen[tl] {
			seen[tl] = true
			pts = append(pts, steiner.Point{X: tx, Y: ty})
		}
	}
	r.pts = pts
	if len(pts) < 2 {
		return
	}
	tree := steiner.Build(pts)
	for _, e := range tree.Edges {
		a := tree.Points[e.A]
		b := tree.Points[e.B]
		if a == b {
			continue
		}
		r.segs = appendSeg(r.segs, ni, tile{a.X, a.Y}, tile{b.X, b.Y})
	}
}

// appendSeg grows segs by one entry, recycling the path buffer of the
// slot it lands in when the backing array is reused across RouteDesign
// calls.
func appendSeg(segs []segment, net int, a, b tile) []segment {
	if len(segs) < cap(segs) {
		segs = segs[:len(segs)+1]
		s := &segs[len(segs)-1]
		s.net, s.a, s.b = net, a, b
		s.path = s.path[:0]
		return segs
	}
	return append(segs, segment{net: net, a: a, b: b})
}

// edgeCost is the negotiated cost of pushing one more track through an
// edge with the given demand, capacity and history.
func (r *Router) edgeCost(dem, cap, hist float64) float64 {
	c := 1 + hist
	if cap <= 0 {
		return c * (1 + overflowPenalty*(dem+1))
	}
	if over := dem + 1 - cap; over > 0 {
		c *= 1 + overflowPenalty*over/cap
	}
	return c
}

func (r *Router) hCost(x, y int) float64 {
	i := r.G.HIdx(x, y)
	return r.edgeCost(r.G.HDem[i], r.G.HCap[i], r.G.HHist[i])
}

func (r *Router) vCost(x, y int) float64 {
	i := r.G.VIdx(x, y)
	return r.edgeCost(r.G.VDem[i], r.G.VCap[i], r.G.VHist[i])
}

// pathCost sums the negotiated costs along a tile path.
func (r *Router) pathCost(path []tile) float64 {
	var c float64
	for i := 0; i+1 < len(path); i++ {
		a, b := path[i], path[i+1]
		if a.y == b.y {
			c += r.hCost(min(a.x, b.x), a.y)
		} else {
			c += r.vCost(a.x, min(a.y, b.y))
		}
	}
	return c
}

// pathOverflows reports whether any edge on the path is over capacity.
func (r *Router) pathOverflows(path []tile) bool {
	for i := 0; i+1 < len(path); i++ {
		a, b := path[i], path[i+1]
		if a.y == b.y {
			e := r.G.HIdx(min(a.x, b.x), a.y)
			if r.G.HDem[e] > r.G.HCap[e] {
				return true
			}
		} else {
			e := r.G.VIdx(a.x, min(a.y, b.y))
			if r.G.VDem[e] > r.G.VCap[e] {
				return true
			}
		}
	}
	return false
}

// commit adds (dir=+1) or removes (dir=−1) one track of demand along path.
func (r *Router) commit(path []tile, dir float64) {
	for i := 0; i+1 < len(path); i++ {
		a, b := path[i], path[i+1]
		if a.y == b.y {
			r.G.HDem[r.G.HIdx(min(a.x, b.x), a.y)] += dir
		} else {
			r.G.VDem[r.G.VIdx(a.x, min(a.y, b.y))] += dir
		}
	}
}

// bumpHistory raises history cost on every overflowed edge.
func (r *Router) bumpHistory() {
	for i := range r.G.HDem {
		if r.G.HDem[i] > r.G.HCap[i] {
			r.G.HHist[i] += historyInc
		}
	}
	for i := range r.G.VDem {
		if r.G.VDem[i] > r.G.VCap[i] {
			r.G.VHist[i] += historyInc
		}
	}
}

// hSpan appends the tiles of a horizontal run from (x0,y) to (x1,y)
// exclusive of the first tile.
func hSpan(path []tile, x0, x1, y int) []tile {
	step := 1
	if x1 < x0 {
		step = -1
	}
	for x := x0 + step; ; x += step {
		path = append(path, tile{x, y})
		if x == x1 {
			break
		}
	}
	return path
}

// patternRouteInto writes into dst (reusing its capacity) the cheapest of
// the L- and sampled Z-shaped routes between a and b under current
// negotiated costs. Candidate paths are built in two router-owned scratch
// buffers, so the pattern pass allocates nothing after warm-up. Not safe
// for concurrent use.
func (r *Router) patternRouteInto(dst []tile, a, b tile) []tile {
	if a == b {
		return append(dst[:0], a)
	}
	best, trial := r.patBest[:0], r.patTrial[:0]
	bestCost := math.Inf(1)
	try := func(c int, vertical bool) {
		trial = buildZPath(trial[:0], a, b, c, vertical)
		if cost := r.pathCost(trial); cost < bestCost {
			bestCost = cost
			best, trial = trial, best
		}
	}
	switch {
	case a.x == b.x:
		try(a.x, true)
		// Also consider small detours one column away when congested.
		if a.x+1 < r.G.NX {
			try(a.x+1, true)
		}
		if a.x-1 >= 0 {
			try(a.x-1, true)
		}
	case a.y == b.y:
		try(a.y, false)
		if a.y+1 < r.G.NY {
			try(a.y+1, false)
		}
		if a.y-1 >= 0 {
			try(a.y-1, false)
		}
	default:
		// L shapes are the z-shape extremes, covered by the sweeps at the
		// endpoint columns/rows.
		r.samples = sampleInto(r.samples[:0], a.x, b.x, zSamples)
		for _, c := range r.samples {
			try(c, true)
		}
		r.samples = sampleInto(r.samples[:0], a.y, b.y, zSamples)
		for _, c := range r.samples {
			try(c, false)
		}
	}
	r.patBest, r.patTrial = best, trial
	return append(dst[:0], best...)
}

// sampleInto appends to out up to n+2 evenly spaced integers covering
// [a, b] inclusive (order-normalized, endpoints always included).
func sampleInto(out []int, a, b, n int) []int {
	if a > b {
		a, b = b, a
	}
	span := b - a
	if span <= n {
		for v := a; v <= b; v++ {
			out = append(out, v)
		}
		return out
	}
	for i := 0; i <= n+1; i++ {
		out = append(out, a+span*i/(n+1))
	}
	return out
}

// buildZPath appends to dst the Z-shaped path from a to b bending at
// column c (vertical=true: run horizontally to c, vertically to b.y,
// horizontally to b.x) or at row c (vertical=false, transposed).
func buildZPath(dst []tile, a, b tile, c int, vertical bool) []tile {
	path := append(dst, a)
	if vertical {
		if c != a.x {
			path = hSpan(path, a.x, c, a.y)
		}
		if b.y != a.y {
			path = vSpanSimple(path, a.y, b.y, c)
		}
		if b.x != c {
			path = hSpan(path, c, b.x, b.y)
		}
	} else {
		if c != a.y {
			path = vSpanSimple(path, a.y, c, a.x)
		}
		if b.x != a.x {
			path = hSpan(path, a.x, b.x, c)
		}
		if b.y != c {
			path = vSpanSimple(path, c, b.y, b.x)
		}
	}
	return path
}

// vSpanSimple appends tiles from (x, y0) to (x, y1), excluding the first.
func vSpanSimple(path []tile, y0, y1, x int) []tile {
	step := 1
	if y1 < y0 {
		step = -1
	}
	for y := y0 + step; ; y += step {
		path = append(path, tile{x, y})
		if y == y1 {
			break
		}
	}
	return path
}
