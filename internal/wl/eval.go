package wl

import (
	"math"
	"sort"
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
// Two counts shape the parallel kernels, and only one of them the bits:
//   - shards fixes the reduction order. Nets are split into that many
//     contiguous equal ranges; the value sums each range from zero and
//     adds the range sums in order, and each object's gradient adds the
//     terms of each range, summed from zero in pin order, in range order.
//     One shard is the plain running sum.
//   - threads is how many goroutines run a kernel (SetThreads). It never
//     changes a bit. The value runs on every thread: each values chunks
//     of nets into per-net slots, and one goroutine sums the slots in
//     shard order. The gradient scatters each shard's terms into the
//     shard's own buffer, on as many goroutines as there are shards and
//     threads, and adds the buffers in shard order; over one shard it is
//     the plain scatter, on one goroutine.
//
// So results are deterministic for a fixed shard count at any thread
// count; across shard counts they differ only by floating-point
// reassociation. One thread over one shard runs the plain loops.
//
// The value is also a task list (StartValue), so a caller can run it in
// one parallel section next to other work; Value runs the same list on
// the evaluator's own threads.
//
// Value takes a limit and stops summing once the partial sums prove the
// total exceeds it (see Value and Slack).
//
// The evaluator snapshots the netlist (weights included): build a new one
// when the netlist changes.
type Evaluator struct {
	model   Model
	gamma   float64
	numObjs int
	shards  int
	threads int
	// reach bounds the coordinates Value is given a finite limit for;
	// slack bounds how far the terms not yet summed, and the additions
	// still to come, can pull any partial sum down (see Slack).
	reach float64
	slack float64
	cuts  int

	// Net k owns pins start[k]:start[k+1].
	start  []int32
	weight []float64 // net weight, 0 read as 1
	obj    []int32   // owning object per pin, or Fixed
	ax, ay axis

	// The slot value's state, built when a thread or shard count above
	// one first asks for it. slot holds net k's weighted x and y values
	// at 2k and 2k+1; nets of degree < 2 keep +0 there. The threads take
	// chunks as they come free, chunksPerThread per thread: chunk c values
	// nets netCut[c]:netCut[c+1], and the cuts balance pin counts. pub
	// holds each chunk's published partial sum.
	slot   []float64
	netCut []int
	pub    []published

	// bufs holds one [2n] gradient buffer per shard when there is more
	// than one.
	bufs [][]float64

	// The value in progress (StartValue): its point, the bar its partial
	// sums are checked against (float64 bits, lowered by Tighten),
	// whether it stopped, and the one-task list's running sum.
	vx, vy []float64
	bar    atomic.Uint64
	stop   atomic.Bool
	sum    float64
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

// published is one chunk's partial sum, alone on its cache line.
type published struct {
	bits atomic.Uint64
	_    [56]byte
}

// publishEvery is how many nets a chunk values between publishing its
// partial sum and checking the sum of all published partials.
const publishEvery = 64

// chunksPerThread is how many chunks each thread's share of the value is
// cut into. Threads take chunks as they come free, so a thread that
// starts late — waking an idle processor can take longer than a small
// kernel runs — leaves its share to the others.
const chunksPerThread = 4

// NewEvaluator flattens nl for model m with smoothing parameter gamma.
// workers sets the shard count, and so the bits of every result, and
// the initial thread count (see SetThreads); ≤ 0 selects the shared
// automatic policy (par.Workers). Netlists with fewer than 4 nets per
// shard reduce as one shard. reach bounds |x[i]| and |y[i]| at every
// point Value is given a finite limit for; +Inf turns the early stop off.
func NewEvaluator(nl *Netlist, m Model, gamma float64, workers int, reach float64) *Evaluator {
	pins := 0
	for i := range nl.Nets {
		pins += len(nl.Nets[i].Pins)
	}
	e := &Evaluator{
		model: m, gamma: gamma, numObjs: nl.NumObjs,
		shards: par.Workers(workers),
		reach:  reach,
		start:  make([]int32, 0, len(nl.Nets)+1),
		weight: make([]float64, len(nl.Nets)),
		obj:    make([]int32, 0, pins),
		ax:     newAxis(pins, len(nl.Nets)),
		ay:     newAxis(pins, len(nl.Nets)),
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
	if len(nl.Nets) < 4*e.shards {
		e.shards = 1
	}
	if e.shards > 1 {
		e.bufs = make([][]float64, e.shards)
		for k := range e.bufs {
			e.bufs[k] = make([]float64, 2*nl.NumObjs)
		}
	}
	e.SetThreads(e.shards)
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

// SetThreads sets how many goroutines run Value, at most one per net, and
// Gradient, at most one per shard; n ≤ 0 selects the shared automatic
// policy (par.Workers). No value, cut-free or not, and no gradient changes
// a bit: the shard count fixed at construction sets every reduction
// order. Slack grows with the thread count, and which rejected values
// stop early depends on thread scheduling.
func (e *Evaluator) SetThreads(n int) {
	e.threads = max(1, min(par.Workers(n), len(e.weight)))
	if !e.plain() {
		if e.slot == nil {
			e.slot = make([]float64, 2*len(e.weight))
		}
		e.cutChunks()
	}
	e.slack = e.deriveSlack(e.reach)
}

// Threads returns the thread count SetThreads settled on.
func (e *Evaluator) Threads() int { return e.threads }

// Shards returns how many net ranges Value and Gradient reduce in.
func (e *Evaluator) Shards() int { return e.shards }

// chunks returns how many chunks the slot value runs in.
func (e *Evaluator) chunks() int {
	if e.threads == 1 {
		return 1
	}
	return min(e.threads*chunksPerThread, len(e.weight))
}

// plain reports whether the kernels run the plain loops: one thread over
// one shard.
func (e *Evaluator) plain() bool { return e.threads == 1 && e.shards == 1 }

// shardRange returns shard k's contiguous net range.
func (e *Evaluator) shardRange(k int) (int, int) {
	nets := len(e.weight)
	return nets * k / e.shards, nets * (k + 1) / e.shards
}

// cutChunks splits the nets into the slot value's chunks, of about equal
// pin counts.
func (e *Evaluator) cutChunks() {
	c, nets, pins := e.chunks(), len(e.weight), len(e.obj)
	e.netCut = make([]int, c+1)
	e.pub = make([]published, c)
	for k := 1; k < c; k++ {
		e.netCut[k] = sort.Search(nets, func(i int) bool { return int(e.start[i]) >= pins*k/c })
	}
	e.netCut[c] = nets
}

// Value returns the total weighted wirelength WL at object centers
// (x, y) and caches what Gradient needs at that point. When WL ≤ limit
// the result is WL bit for bit. Otherwise Value may stop summing as soon
// as a partial sum exceeds limit + Slack() and return +Inf; the cache is
// then incomplete, so Gradient needs a Value call that was not cut.
// +Inf and NaN limits never cut.
//
// On one thread over one shard that partial sum is the running total.
// Otherwise every chunk publishes its own running partial every
// publishEvery nets, and any thread stops all once the sum of the
// published partials crosses the bar: Slack covers the other terms, the
// additions inside the published sum and the shard-order reduction too.
// A value that is not cut is the sum the uncut call returns.
func (e *Evaluator) Value(x, y []float64, limit float64) float64 {
	if n := e.StartValue(x, y, limit); n == 1 {
		e.ValueTask(0)
	} else {
		par.For(n, e.threads, e.ValueTask)
	}
	total, ok := e.ValueResult()
	if !ok {
		e.cuts++
	}
	return total
}

// StartValue readies Value(x, y, limit) as a task list and returns its
// length: one task, the running sum, on one thread over one shard, and
// otherwise one per chunk of nets. Run every task with ValueTask, on any
// goroutines and in any order, then read the result from ValueResult.
// While the tasks run, other goroutines may lower the limit (Tighten) or
// stop them (StopValue).
func (e *Evaluator) StartValue(x, y []float64, limit float64) int {
	e.vx, e.vy = x, y
	e.bar.Store(math.Float64bits(e.barFor(limit)))
	e.stop.Store(false)
	if e.plain() {
		return 1
	}
	for c := range e.pub {
		e.pub[c].bits.Store(0)
	}
	return len(e.pub)
}

// ValueTask runs task c of the value StartValue readied.
func (e *Evaluator) ValueTask(c int) {
	if e.stop.Load() {
		return
	}
	if e.plain() {
		var ok bool
		if e.sum, ok = e.runningValue(e.vx, e.vy, e.loadBar()); !ok {
			e.stop.Store(true)
		}
		return
	}
	e.slotChunk(c)
}

// Tighten lowers the limit of the value in progress to limit. One
// goroutine at a time may call it while the tasks run: the chunks check
// their partial sums against the lower bar from their next check on,
// and ValueResult checks the whole sum against it, so a value whose sum
// exceeds the lower bar is cut even when the limit dropped after the
// chunks finished. A limit above the current one changes nothing.
func (e *Evaluator) Tighten(limit float64) {
	if b := e.barFor(limit); b < e.loadBar() {
		e.bar.Store(math.Float64bits(b))
	}
}

// StopValue stops the value in progress, from any goroutine: its tasks
// return at their next check, and ValueResult reports it cut.
func (e *Evaluator) StopValue() { e.stop.Store(true) }

// ValueResult returns the value the tasks computed and true, or +Inf
// and false when it was cut: stopped, or over its bar. It does not count
// the cut (see Cuts).
func (e *Evaluator) ValueResult() (float64, bool) {
	if e.stop.Load() {
		return math.Inf(1), false
	}
	total := e.sum
	if !e.plain() {
		total = e.slotSum()
	}
	if total > e.loadBar() {
		return math.Inf(1), false
	}
	return total, true
}

// barFor returns the bar partial sums are checked against for limit:
// +Inf, which never cuts, for a +Inf or NaN limit.
func (e *Evaluator) barFor(limit float64) float64 {
	if limit < math.Inf(1) {
		// Round up, so a partial sum above bar is above limit + slack.
		return math.Nextafter(limit+e.slack, math.Inf(1))
	}
	return math.Inf(1)
}

func (e *Evaluator) loadBar() float64 { return math.Float64frombits(e.bar.Load()) }

// Cuts returns how many Value calls so far stopped early. On more than
// one thread it counts work saved, not a result: which rejected values
// stop early then depends on thread scheduling.
func (e *Evaluator) Cuts() int { return e.cuts }

// Slack returns the bound on how far the terms not yet summed, and the
// additions still to come, can pull any partial sum of Value down: every
// value Value returns for a point within reach is ≥ −Slack(). The
// weighted-average terms are ≥ 0 only in exact arithmetic.
func (e *Evaluator) Slack() float64 { return e.slack }

// runningValue sums every net in order. It reports false, with the sum
// so far, once the sum exceeds bar. The conversions round each weighted
// value before it is added, as storing it in a slot does, so no platform
// fuses the product into the sum and both paths keep the same bits.
func (e *Evaluator) runningValue(x, y []float64, bar float64) (float64, bool) {
	var total float64
	for k := range e.weight {
		p0, p1 := e.start[k], e.start[k+1]
		if p1-p0 < 2 {
			continue
		}
		w := e.weight[k]
		total += float64(w * e.axisValue(k, p0, p1, x, &e.ax))
		total += float64(w * e.axisValue(k, p0, p1, y, &e.ay))
		if total > bar {
			return total, false
		}
	}
	return total, true
}

// slotChunk values chunk c's nets into their slots, publishing the
// chunk's partial sum as it goes, and stops every chunk once the sum of
// the published partials crosses the bar.
func (e *Evaluator) slotChunk(c int) {
	x, y := e.vx, e.vy
	var part float64
	lo, hi := e.netCut[c], e.netCut[c+1]
	for k := lo; k < hi; k++ {
		p0, p1 := e.start[k], e.start[k+1]
		if p1-p0 >= 2 {
			w := e.weight[k]
			vx := float64(w * e.axisValue(k, p0, p1, x, &e.ax))
			vy := float64(w * e.axisValue(k, p0, p1, y, &e.ay))
			e.slot[2*k], e.slot[2*k+1] = vx, vy
			part += vx
			part += vy
		}
		if (k-lo)%publishEvery == publishEvery-1 || k == hi-1 {
			if e.stop.Load() || e.publish(c, part) {
				e.stop.Store(true)
				return
			}
		}
	}
}

// slotSum sums the slots in shard order. A shard's slots summed from
// zero are the shard's running sum: the +0 slots of nets of degree < 2
// add nothing to a sum that starts at +0.
func (e *Evaluator) slotSum() float64 {
	var total float64
	for s := 0; s < e.shards; s++ {
		lo, hi := e.shardRange(s)
		var sum float64
		for _, v := range e.slot[2*lo : 2*hi] {
			sum += v
		}
		total += sum
	}
	return total
}

// publish stores chunk c's partial sum and reports whether the sum of
// every chunk's published partial, added in chunk order, exceeds the
// bar. Under a +Inf bar nothing is published.
func (e *Evaluator) publish(c int, part float64) bool {
	bar := e.loadBar()
	if !(bar < math.Inf(1)) {
		return false
	}
	e.pub[c].bits.Store(math.Float64bits(part))
	var sum float64
	for i := range e.pub {
		sum += math.Float64frombits(e.pub[i].bits.Load())
	}
	return sum > bar
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
// follow a Value call that was not cut.
func (e *Evaluator) Gradient(gx, gy []float64) {
	if e.shards == 1 {
		e.gradientRange(0, len(e.weight), gx, gy)
		return
	}
	n, g := e.numObjs, min(e.shards, e.threads)
	par.For(e.shards, g, func(k int) {
		buf := e.bufs[k]
		clear(buf)
		lo, hi := e.shardRange(k)
		e.gradientRange(lo, hi, buf[:n], buf[n:])
	})
	// Reduce over object slabs: each goroutine owns a disjoint index
	// range, so there is no write contention, and every slot adds the
	// buffers in shard order.
	par.For(g, g, func(k int) {
		lo, hi := n*k/g, n*(k+1)/g
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
