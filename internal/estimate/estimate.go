// Package estimate is the fast probabilistic congestion-estimation
// subsystem: a RUDY + pin-density model over the routing-grid geometry
// that stands in for the global router inside hot loops. Where the
// router's congestion map costs a full negotiated maze-route, the
// estimator costs one pass over net bounding boxes — O(#nets · box tiles)
// with tiny constants — and an *incremental* mode (see Incremental)
// updates it in O(pins-on-cell) touched tiles per cell move, which is what
// detailed placement and other move-loop consumers need.
//
// Demand is accumulated in fixed-point int64 "track units" rather than
// floats. Each net's per-tile contribution is a pure function of its
// bounding box, rounded once to fixed point; integer addition is exact,
// commutative and associative, so incremental add/remove replay and
// parallel sharded recomputes are all bitwise-equal to a serial full
// recompute — the differential tests and the cross-worker determinism
// tests pin exactly that.
//
// The estimator is calibrated against the real router by the correlation
// harness (Correlate): per-tile Pearson and Spearman correlation plus
// hotspot overlap@k between the estimated and the routed congestion maps.
// Floors on those scores are pinned in tests and in BENCH_estimate.json,
// so estimator drift is a test failure rather than a silent quality loss.
package estimate

import (
	"math"

	"repro/internal/db"
	"repro/internal/geom"
	"repro/internal/par"
	"repro/internal/route"
)

// fpScale is the fixed-point scale of the demand accumulators: one track
// of demand is 1<<20 units. At typical capacities (tens of tracks per
// tile) the headroom to int64 overflow exceeds 2^40 nets per tile.
const fpScale = 1 << 20

// fp rounds a track quantity to fixed point. All demand enters the
// accumulators through this single rounding, which is what makes
// add/remove pairs cancel exactly.
func fp(tracks float64) int64 { return int64(math.Round(tracks * fpScale)) }

// perPin is the local pin-escape demand in tracks per pin, split evenly
// between the horizontal and vertical accumulators of the pin's tile.
// Pin density is what separates two placements with identical net boxes
// but different cell crowding.
const perPin = 0.05

// pinHalf is one pin's demand on each accumulator, in fixed point.
var pinHalf = fp(perPin) / 2

// Options tunes an Estimator.
type Options struct {
	// Workers is the full-recompute worker count, resolved through
	// par.Workers (≤ 0 selects the automatic policy). Demand grids are
	// byte-identical for every worker count.
	Workers int
}

// Estimator holds a probabilistic per-tile congestion map over a routing
// grid's tiles. Capacities are copied from the grid (blockage derating
// included) at construction; demand is owned by the estimator and filled
// by Recompute or maintained by an attached Incremental.
type Estimator struct {
	// Tiles is the geometry of the route.Grid the estimator was built
	// over.
	route.Tiles

	workers int

	// hCap and vCap are per-tile capacities in tracks: the mean of the
	// tile's incident horizontal (resp. vertical) grid edges. capTot is
	// their sum, the denominator of TileCongestion.
	hCap, vCap []float64
	capTot     []float64

	// hDem and vDem are fixed-point per-tile demand, indexed ty*NX+tx.
	hDem, vDem []int64

	// chunks holds per-shard recompute accumulators (2·NX·NY int64 each),
	// grown on demand and reused across Recompute calls.
	chunks [][]int64
}

// New builds an estimator over the grid's geometry and capacities. The
// grid is only read during construction; routing demand on it is ignored.
func New(g *route.Grid, opt Options) *Estimator {
	e := &Estimator{Tiles: g.Tiles, workers: par.Workers(opt.Workers)}
	n := e.NX * e.NY
	e.hCap = make([]float64, n)
	e.vCap = make([]float64, n)
	e.capTot = make([]float64, n)
	e.hDem = make([]int64, n)
	e.vDem = make([]int64, n)
	for ty := 0; ty < e.NY; ty++ {
		for tx := 0; tx < e.NX; tx++ {
			i := ty*e.NX + tx
			var hc, hn, vc, vn float64
			if tx > 0 {
				hc += g.HCap[g.HIdx(tx-1, ty)]
				hn++
			}
			if tx < e.NX-1 {
				hc += g.HCap[g.HIdx(tx, ty)]
				hn++
			}
			if ty > 0 {
				vc += g.VCap[g.VIdx(tx, ty-1)]
				vn++
			}
			if ty < e.NY-1 {
				vc += g.VCap[g.VIdx(tx, ty)]
				vn++
			}
			if hn > 0 {
				e.hCap[i] = hc / hn
			}
			if vn > 0 {
				e.vCap[i] = vc / vn
			}
			e.capTot[i] = e.hCap[i] + e.vCap[i]
		}
	}
	return e
}

// Reset zeroes the demand accumulators.
func (e *Estimator) Reset() {
	clear(e.hDem)
	clear(e.vDem)
}

// tileIdx is TileOf flattened to the demand index.
func (e *Estimator) tileIdx(p geom.Point) int32 {
	tx, ty := e.TileOf(p)
	return int32(ty*e.NX + tx)
}

// netDemand walks the tiles covered by one net bounding box and calls
// emit(idx, hUnits, vUnits) with the box's fixed-point contribution to
// each. The contribution is the tile form of the classic RUDY smear: a
// net is expected to use one horizontal track somewhere in its box per
// unit of box height (so hTracks = w / boxHeightInTiles), scaled by the
// tile's fractional x/y coverage; vertical demand is symmetric. Degenerate
// boxes are widened to one tile so short nets still register pin-access
// demand in the cross direction.
//
// The walk and the per-tile rounding are pure functions of (bb, w), which
// is the contract the incremental add/remove replay relies on: removing a
// box emits exactly the integers adding it emitted.
func (e *Estimator) netDemand(bb geom.Rect, w float64, emit func(idx int, h, v int64)) {
	if bb.W() < e.TileW {
		c := (bb.Lo.X + bb.Hi.X) / 2
		bb.Lo.X, bb.Hi.X = c-e.TileW/2, c+e.TileW/2
	}
	if bb.H() < e.TileH {
		c := (bb.Lo.Y + bb.Hi.Y) / 2
		bb.Lo.Y, bb.Hi.Y = c-e.TileH/2, c+e.TileH/2
	}
	hTracks := w / math.Max(1, bb.H()/e.TileH)
	vTracks := w / math.Max(1, bb.W()/e.TileW)
	tx0, ty0 := e.TileOf(bb.Lo)
	tx1, ty1 := e.TileOf(geom.Point{X: bb.Hi.X - 1e-9, Y: bb.Hi.Y - 1e-9})
	for ty := ty0; ty <= ty1; ty++ {
		rowLo := e.Origin.Y + float64(ty)*e.TileH
		fy := (math.Min(rowLo+e.TileH, bb.Hi.Y) - math.Max(rowLo, bb.Lo.Y)) / e.TileH
		if fy <= 0 {
			continue
		}
		for tx := tx0; tx <= tx1; tx++ {
			colLo := e.Origin.X + float64(tx)*e.TileW
			fx := (math.Min(colLo+e.TileW, bb.Hi.X) - math.Max(colLo, bb.Lo.X)) / e.TileW
			if fx <= 0 {
				continue
			}
			cover := fx * fy
			emit(ty*e.NX+tx, fp(hTracks*cover), fp(vTracks*cover))
		}
	}
}

// addBox accumulates (sign = +1) or removes (sign = −1) one net box's
// demand into the given accumulators.
func addBoxInto(h, v []int64, e *Estimator, bb geom.Rect, w float64, sign int64) {
	e.netDemand(bb, w, func(idx int, hu, vu int64) {
		h[idx] += sign * hu
		v[idx] += sign * vu
	})
}

// recomputeMinNets is the fewest nets per chunk a sharded Recompute
// runs with.
const recomputeMinNets = 128

// Recompute rebuilds the demand map from the design's current positions:
// one RUDY box per net of degree ≥ 2 (net weight honored, 0 → 1) plus
// per-pin escape demand. With more than one worker the nets and pins are
// sharded over per-chunk integer accumulators and merged, which is
// bitwise-identical to the serial pass; each chunk gets at least
// recomputeMinNets nets, so the chunks allocated follow the design, not
// the worker count alone.
func (e *Estimator) Recompute(d *db.Design) {
	e.Reset()
	w := min(e.workers, len(d.Nets)/recomputeMinNets)
	if w <= 1 {
		e.recomputeChunk(d, e.hDem, e.vDem, 0, 1)
		return
	}
	for len(e.chunks) < w {
		e.chunks = append(e.chunks, make([]int64, 2*e.NX*e.NY))
	}
	par.ForWorker(w, w, func(_, i int) {
		buf := e.chunks[i]
		clear(buf)
		e.recomputeChunk(d, buf[:e.NX*e.NY], buf[e.NX*e.NY:], i, w)
	})
	n := e.NX * e.NY
	for i := 0; i < w; i++ {
		buf := e.chunks[i]
		for t := 0; t < n; t++ {
			e.hDem[t] += buf[t]
			e.vDem[t] += buf[n+t]
		}
	}
}

// recomputeChunk accumulates shard `shard` of `shards` (nets and pins
// strided) into the given accumulators.
func (e *Estimator) recomputeChunk(d *db.Design, h, v []int64, shard, shards int) {
	for ni := shard; ni < len(d.Nets); ni += shards {
		net := &d.Nets[ni]
		if net.Degree() < 2 {
			continue
		}
		w := net.Weight
		if w == 0 {
			w = 1
		}
		addBoxInto(h, v, e, d.NetBBox(ni), w, +1)
	}
	for pi := shard; pi < len(d.Pins); pi += shards {
		idx := e.tileIdx(d.PinPos(pi))
		h[idx] += pinHalf
		v[idx] += pinHalf
	}
}

// CongestionInto writes the per-tile congestion — total demand over total
// incident capacity, the same sum-not-max convention as
// route.Grid.TileCongestion — into out (grown if needed) and returns it.
// Tiles with zero capacity but positive demand are +Inf.
func (e *Estimator) CongestionInto(out []float64) []float64 {
	n := e.NX * e.NY
	if cap(out) < n {
		out = make([]float64, n)
	}
	out = out[:n]
	for i := 0; i < n; i++ {
		dem := float64(e.hDem[i]+e.vDem[i]) / fpScale
		switch {
		case e.capTot[i] > 0:
			out[i] = dem / e.capTot[i]
		case dem > 0:
			out[i] = math.Inf(1)
		default:
			out[i] = 0
		}
	}
	return out
}

// TileCongestion returns a freshly allocated congestion map (see
// CongestionInto).
func (e *Estimator) TileCongestion() []float64 {
	return e.CongestionInto(nil)
}

// CongestionAt returns the congestion of tile (tx, ty), or 0 outside the
// grid. Allocation-free — the per-move lookup of the detailed-placement
// routability guard.
func (e *Estimator) CongestionAt(tx, ty int) float64 {
	if tx < 0 || ty < 0 || tx >= e.NX || ty >= e.NY {
		return 0
	}
	i := ty*e.NX + tx
	dem := float64(e.hDem[i]+e.vDem[i]) / fpScale
	if e.capTot[i] > 0 {
		return dem / e.capTot[i]
	}
	if dem > 0 {
		return math.Inf(1)
	}
	return 0
}

// ACEProfile returns the estimated Average Congestion of the top-x% most
// loaded tile directions at route.ACEPercentiles — the estimator's stand-in
// for route.Grid.ACEProfile, computed over per-tile directional ratios
// (hDem/hCap and vDem/vCap) instead of per-edge ratios.
func (e *Estimator) ACEProfile() []float64 {
	ratios := make([]float64, 0, 2*e.NX*e.NY)
	for i := range e.hCap {
		if e.hCap[i] > 0 {
			ratios = append(ratios, float64(e.hDem[i])/fpScale/e.hCap[i])
		}
		if e.vCap[i] > 0 {
			ratios = append(ratios, float64(e.vDem[i])/fpScale/e.vCap[i])
		}
	}
	return route.ACE(ratios)
}

// SnapshotDemand returns copies of the fixed-point demand accumulators,
// for differential and determinism tests that compare grids bitwise.
func (e *Estimator) SnapshotDemand() (h, v []int64) {
	return append([]int64(nil), e.hDem...), append([]int64(nil), e.vDem...)
}
