package wl

import (
	"math"

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
// magnitude.
//
// With more than one worker, nets are partitioned into contiguous equal
// ranges, each worker accumulates a private gradient buffer, and the
// buffers are reduced in worker order over disjoint object slabs. Results
// are deterministic for a fixed worker count; across worker counts they
// differ only by floating-point reassociation.
//
// The evaluator snapshots the netlist (weights included): build a new one
// when the netlist changes.
type Evaluator struct {
	model   Model
	gamma   float64
	workers int
	numObjs int

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
// with fewer than 4 nets per worker evaluate serially.
func NewEvaluator(nl *Netlist, m Model, gamma float64, workers int) *Evaluator {
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

// Value returns the total weighted wirelength at object centers (x, y)
// and caches what Gradient needs at that point.
func (e *Evaluator) Value(x, y []float64) float64 {
	if e.workers == 1 {
		return e.valueRange(0, len(e.weight), x, y)
	}
	par.For(e.workers, e.workers, func(k int) {
		lo, hi := e.netRange(k)
		e.shards[k] = e.valueRange(lo, hi, x, y)
	})
	var total float64
	for _, s := range e.shards {
		total += s
	}
	return total
}

func (e *Evaluator) valueRange(lo, hi int, x, y []float64) float64 {
	var total float64
	for k := lo; k < hi; k++ {
		p0, p1 := e.start[k], e.start[k+1]
		if p1-p0 < 2 {
			continue
		}
		w := e.weight[k]
		total += w * e.axisValue(k, p0, p1, x, &e.ax)
		total += w * e.axisValue(k, p0, p1, y, &e.ay)
	}
	return total
}

// axisValue evaluates net k on one axis and caches its pins'
// coordinates and exponentials and the net's sums. The returned value is
// unweighted.
func (e *Evaluator) axisValue(k int, p0, p1 int32, coord []float64, ax *axis) float64 {
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
	var sPos, nPos, sNeg, nNeg float64
	for i, v := range vs {
		a := math.Exp((v - hi) / gamma)
		b := math.Exp((lo - v) / gamma)
		as[i] = a
		bs[i] = b
		sPos += a
		nPos += v * a
		sNeg += b
		nNeg += v * b
	}
	s := &ax.net[k]
	s.sPos, s.sNeg = sPos, sNeg
	if e.model == LSE {
		// ln Σ e^{(v-hi)/γ} = ln Σ e^{v/γ} − hi/γ, so add the shifts back.
		return gamma*math.Log(sPos) + hi + (gamma*math.Log(sNeg) - lo)
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
