package wl

import (
	"math"
	"sync/atomic"

	"repro/internal/par"
)

// Evaluator evaluates one smooth model over one netlist, split into the
// value and gradient passes nonlinear CG asks for (nlopt.Objective). The
// netlist is flattened once into struct-of-arrays pin storage. Value
// stores every pin's two exponentials and every net's sums per axis;
// Gradient forms the gradient from them, so a gradient taken after a
// value evaluation at the same point computes no exponential.
//
// Both exponentials of a pin are shifted by the net's max/min coordinate
// so their arguments are ≤ 0 (the max-shift stabilization; the value is
// mathematically unchanged), which keeps them finite for any coordinate
// magnitude. The shift makes the extreme pins' exponentials known
// exactly, so Value computes only e^{(lo−hi)/γ} once per net and axis
// plus both exponentials of each interior pin: a pin at the max has
// a = e^0 = 1 and b = e^{(lo−hi)/γ}, a pin at the min the reverse, and a
// two-pin net takes one exponential in all. Every stored value and every
// sum is bit-identical to computing all 2·degree exponentials (γ > 0,
// finite coordinates).
//
// With more than one worker, nets are partitioned into contiguous equal
// ranges, each worker accumulates a private gradient buffer, and the
// buffers are reduced in worker order over disjoint object slabs. Results
// are deterministic for a fixed worker count; across worker counts they
// differ only by floating-point reassociation.
//
// Value takes a limit and stops summing once the partial sum proves the
// total exceeds it (see Value and Slack).
//
// The evaluator snapshots the netlist (weights included): build a new one
// when the netlist changes.
type Evaluator struct {
	model   Model
	gamma   float64
	workers int
	numObjs int
	// slack bounds how far the terms not yet summed, and the additions
	// still to come, can pull any partial sum down (see Slack).
	slack float64
	cuts  int

	// Net k owns pins start[k]:start[k+1].
	start  []int32
	weight []float64 // net weight, 0 read as 1
	obj    []int32   // owning object per pin, or Fixed
	ax, ay axis

	shards []float64   // per-worker partial values
	bufs   [][]float64 // per-worker [2n] gradient buffers
}

// axis is one coordinate axis of the flattened pins plus the cache the
// last Value call left for it.
type axis struct {
	// off is the pin offset from its object's center, or the absolute
	// coordinate of a fixed pin.
	off []float64
	// v is each pin's coordinate; a and b are e^{(v−max)/γ} and
	// e^{(min−v)/γ} with max/min over the pin's net.
	v, a, b []float64
	net     []netSums
}

// netSums holds one net's sums on one axis: Σa and Σb, and for WA the
// weighted averages Σv·a/Σa and Σv·b/Σb.
type netSums struct {
	sPos, sNeg       float64
	maxTerm, minTerm float64
}

// NewEvaluator flattens nl for model m with smoothing parameter gamma.
// workers ≤ 0 selects the shared automatic policy (par.Workers); netlists
// with fewer than 4 nets per worker evaluate serially. reach bounds
// |x[i]| and |y[i]| at every point Value is given a finite limit for;
// +Inf turns the early stop off.
func NewEvaluator(nl *Netlist, m Model, gamma float64, workers int, reach float64) *Evaluator {
	pins := 0
	for i := range nl.Nets {
		pins += len(nl.Nets[i].Pins)
	}
	e := &Evaluator{
		model: m, gamma: gamma, numObjs: nl.NumObjs,
		workers: par.Workers(workers),
		start:   make([]int32, 0, len(nl.Nets)+1),
		weight:  make([]float64, len(nl.Nets)),
		obj:     make([]int32, 0, pins),
		ax:      newAxis(pins, len(nl.Nets)),
		ay:      newAxis(pins, len(nl.Nets)),
	}
	for k := range nl.Nets {
		net := &nl.Nets[k]
		e.start = append(e.start, int32(len(e.obj)))
		e.weight[k] = net.Weight
		if e.weight[k] == 0 {
			e.weight[k] = 1
		}
		for _, p := range net.Pins {
			e.obj = append(e.obj, int32(p.Obj))
			e.ax.off = append(e.ax.off, p.OffX)
			e.ay.off = append(e.ay.off, p.OffY)
		}
	}
	e.start = append(e.start, int32(len(e.obj)))
	if len(nl.Nets) < 4*e.workers {
		e.workers = 1
	}
	e.slack = e.deriveSlack(reach)
	if e.workers > 1 {
		e.shards = make([]float64, e.workers)
		e.bufs = make([][]float64, e.workers)
		for k := range e.bufs {
			e.bufs[k] = make([]float64, 2*nl.NumObjs)
		}
	}
	return e
}

func newAxis(pins, nets int) axis {
	return axis{
		off: make([]float64, 0, pins),
		v:   make([]float64, pins),
		a:   make([]float64, pins),
		b:   make([]float64, pins),
		net: make([]netSums, nets),
	}
}

// netRange returns worker k's contiguous net range.
func (e *Evaluator) netRange(k int) (int, int) {
	nets := len(e.weight)
	return nets * k / e.workers, nets * (k + 1) / e.workers
}

// Value returns the total weighted wirelength WL at object centers
// (x, y) and caches what Gradient needs at that point. When WL ≤ limit
// the result is WL bit for bit. Otherwise Value may stop summing as soon
// as a partial sum exceeds limit + Slack() and return +Inf; the cache is
// then incomplete, so Gradient needs a Value call that was not cut.
// +Inf and NaN limits never cut.
//
// With several workers each checks its own shard's partial sum against
// the same bar: Slack covers the other shards' terms and the shard
// reduction too. The first to cross it stops all, and a value that is
// not cut is the sum the uncut call returns.
func (e *Evaluator) Value(x, y []float64, limit float64) float64 {
	bar := math.Inf(1)
	if limit < bar {
		// Round up, so a partial sum above bar is above limit + slack.
		bar = math.Nextafter(limit+e.slack, math.Inf(1))
	}
	if e.workers == 1 {
		total, done := e.valueRange(0, len(e.weight), x, y, bar, nil)
		if !done {
			e.cuts++
			return math.Inf(1)
		}
		return total
	}
	var stop atomic.Bool
	par.For(e.workers, e.workers, func(k int) {
		lo, hi := e.netRange(k)
		e.shards[k], _ = e.valueRange(lo, hi, x, y, bar, &stop)
	})
	if stop.Load() {
		e.cuts++
		return math.Inf(1)
	}
	var total float64
	for _, s := range e.shards {
		total += s
	}
	return total
}

// Cuts returns how many Value calls so far stopped early.
func (e *Evaluator) Cuts() int { return e.cuts }

// Slack returns the bound on how far the terms not yet summed, and the
// additions still to come, can pull any partial sum of Value down: every
// value Value returns for a point within reach is ≥ −Slack(). The
// weighted-average terms are ≥ 0 only in exact arithmetic.
func (e *Evaluator) Slack() float64 { return e.slack }

// valueRange sums nets [lo, hi). It reports false, with the sum so far,
// once the sum exceeds bar or stop is set; crossing bar sets stop.
func (e *Evaluator) valueRange(lo, hi int, x, y []float64, bar float64, stop *atomic.Bool) (float64, bool) {
	var total float64
	for k := lo; k < hi; k++ {
		p0, p1 := e.start[k], e.start[k+1]
		if p1-p0 < 2 {
			continue
		}
		w := e.weight[k]
		total += w * e.axisValue(k, p0, p1, x, &e.ax)
		total += w * e.axisValue(k, p0, p1, y, &e.ay)
		if total > bar {
			if stop != nil {
				stop.Store(true)
			}
			return total, false
		}
		if stop != nil && stop.Load() {
			return total, false
		}
	}
	return total, true
}

// axisValue evaluates net k on one axis and caches its pins'
// coordinates and exponentials and the net's sums. The returned value is
// unweighted.
func (e *Evaluator) axisValue(k int, p0, p1 int32, coord []float64, ax *axis) float64 {
	if p1-p0 == 2 {
		return e.twoPinValue(k, p0, coord, ax)
	}
	obj := e.obj[p0:p1]
	off := ax.off[p0:p1]
	vs := ax.v[p0:p1]
	as := ax.a[p0:p1]
	bs := ax.b[p0:p1]
	lo, hi := math.Inf(1), math.Inf(-1)
	for i, o := range obj {
		v := off[i]
		if o != Fixed {
			v = coord[o] + off[i]
		}
		vs[i] = v
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	gamma := e.gamma
	// a at the min and b at the max share this argument; a at the max
	// and b at the min are e^0 = 1.
	span := math.Exp((lo - hi) / gamma)
	var sPos, nPos, sNeg, nNeg float64
	for i, v := range vs {
		var a, b float64
		switch v {
		case hi:
			a, b = 1, span
		case lo:
			a, b = span, 1
		default:
			a = math.Exp((v - hi) / gamma)
			b = math.Exp((lo - v) / gamma)
		}
		as[i] = a
		bs[i] = b
		sPos += a
		nPos += v * a
		sNeg += b
		nNeg += v * b
	}
	return e.netValue(&ax.net[k], lo, hi, sPos, nPos, sNeg, nNeg)
}

// twoPinValue is axisValue for a two-pin net: both pins are extreme, so
// one exponential gives all four. The sums still start from zero and add
// the pins in order, as the loop does: 0 + x is not x when x is −0.
func (e *Evaluator) twoPinValue(k int, p0 int32, coord []float64, ax *axis) float64 {
	v0, v1 := ax.off[p0], ax.off[p0+1]
	if o := e.obj[p0]; o != Fixed {
		v0 = coord[o] + v0
	}
	if o := e.obj[p0+1]; o != Fixed {
		v1 = coord[o] + v1
	}
	lo, hi := v0, v0
	if v1 < v0 {
		lo = v1
	} else if v1 > v0 {
		hi = v1
	}
	span := math.Exp((lo - hi) / e.gamma)
	// Pin 0 is the max unless pin 1 lies above it; on a tie span = 1.
	a0, b0, a1, b1 := 1.0, span, span, 1.0
	if v1 > v0 {
		a0, b0, a1, b1 = span, 1, 1, span
	}
	ax.v[p0], ax.v[p0+1] = v0, v1
	ax.a[p0], ax.a[p0+1] = a0, a1
	ax.b[p0], ax.b[p0+1] = b0, b1
	var sPos, nPos, sNeg, nNeg float64
	sPos += a0
	nPos += v0 * a0
	sNeg += b0
	nNeg += v0 * b0
	sPos += a1
	nPos += v1 * a1
	sNeg += b1
	nNeg += v1 * b1
	return e.netValue(&ax.net[k], lo, hi, sPos, nPos, sNeg, nNeg)
}

// netValue stores one net-axis's sums for Gradient and returns its
// unweighted value.
func (e *Evaluator) netValue(s *netSums, lo, hi, sPos, nPos, sNeg, nNeg float64) float64 {
	s.sPos, s.sNeg = sPos, sNeg
	if e.model == LSE {
		// ln Σ e^{(v-hi)/γ} = ln Σ e^{v/γ} − hi/γ, so add the shifts back.
		return e.gamma*math.Log(sPos) + hi + (e.gamma*math.Log(sNeg) - lo)
	}
	s.maxTerm = nPos / sPos
	s.minTerm = nNeg / sNeg
	return s.maxTerm - s.minTerm
}

// Gradient adds ∂WL/∂x and ∂WL/∂y at the point of the most recent Value
// call into gx and gy. It reads only the cache Value left, so it must
// follow a Value call.
func (e *Evaluator) Gradient(gx, gy []float64) {
	if e.workers == 1 {
		e.gradientRange(0, len(e.weight), gx, gy)
		return
	}
	n := e.numObjs
	par.For(e.workers, e.workers, func(k int) {
		buf := e.bufs[k]
		clear(buf)
		lo, hi := e.netRange(k)
		e.gradientRange(lo, hi, buf[:n], buf[n:])
	})
	// Reduce over object slabs: each worker owns a disjoint index range,
	// so there is no write contention, and every slot adds the buffers in
	// worker order.
	par.For(e.workers, e.workers, func(k int) {
		lo, hi := n*k/e.workers, n*(k+1)/e.workers
		for _, buf := range e.bufs {
			for i := lo; i < hi; i++ {
				gx[i] += buf[i]
			}
			for i := lo; i < hi; i++ {
				gy[i] += buf[n+i]
			}
		}
	})
}

func (e *Evaluator) gradientRange(lo, hi int, gx, gy []float64) {
	for k := lo; k < hi; k++ {
		p0, p1 := e.start[k], e.start[k+1]
		if p1-p0 < 2 {
			continue
		}
		w := e.weight[k]
		e.axisGradient(k, p0, p1, w, &e.ax, gx)
		e.axisGradient(k, p0, p1, w, &e.ay, gy)
	}
}

// axisGradient adds w·∂WL/∂ of net k on one axis into grad.
func (e *Evaluator) axisGradient(k int, p0, p1 int32, w float64, ax *axis, grad []float64) {
	obj := e.obj[p0:p1]
	as := ax.a[p0:p1]
	bs := ax.b[p0:p1]
	s := &ax.net[k]
	if e.model == LSE {
		for i, o := range obj {
			if o == Fixed {
				continue
			}
			grad[o] += w * (as[i]/s.sPos - bs[i]/s.sNeg)
		}
		return
	}
	vs := ax.v[p0:p1]
	gamma := e.gamma
	for i, o := range obj {
		if o == Fixed {
			continue
		}
		v := vs[i]
		dMax := as[i] / s.sPos * (1 + (v-s.maxTerm)/gamma)
		dMin := bs[i] / s.sNeg * (1 - (v-s.minTerm)/gamma)
		grad[o] += w * (dMax - dMin)
	}
}
