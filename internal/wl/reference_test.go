package wl

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// This file keeps test-local copies of the combined value-and-gradient
// kernels the Evaluator replaced (one function per model with a func
// pin accessor and stack exponential buffers, plus the worker-pool
// wrapper). The Evaluator must reproduce them bit for bit: global
// placement's .pl output depends on every rounding.

type refModel interface {
	Eval(nl *Netlist, x, y []float64, gx, gy []float64) float64
}

type refWA struct{ Gamma float64 }

func (m refWA) Eval(nl *Netlist, x, y []float64, gx, gy []float64) float64 {
	g := m.Gamma
	var total float64
	for i := range nl.Nets {
		net := &nl.Nets[i]
		if len(net.Pins) < 2 {
			continue
		}
		w := net.Weight
		if w == 0 {
			w = 1
		}
		total += w * refWAAxis(net, x, gx, g, w, pinX)
		total += w * refWAAxis(net, y, gy, g, w, pinY)
	}
	return total
}

func refWAAxis(net *Net, coord []float64, grad []float64, gamma, w float64, at func(PinRef, []float64) float64) float64 {
	deg := len(net.Pins)
	var bufV, bufA, bufB [32]float64
	vs, as, bs := bufV[:0], bufA[:0], bufB[:0]
	if deg > len(bufV) {
		vs = make([]float64, 0, deg)
		as = make([]float64, 0, deg)
		bs = make([]float64, 0, deg)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, p := range net.Pins {
		v := at(p, coord)
		vs = append(vs, v)
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	var sPos, nPos, sNeg, nNeg float64
	for _, v := range vs {
		a := math.Exp((v - hi) / gamma)
		b := math.Exp((lo - v) / gamma)
		as = append(as, a)
		bs = append(bs, b)
		sPos += a
		nPos += v * a
		sNeg += b
		nNeg += v * b
	}
	maxTerm := nPos / sPos
	minTerm := nNeg / sNeg
	if grad != nil {
		for i, p := range net.Pins {
			if p.Obj == Fixed {
				continue
			}
			v := vs[i]
			dMax := as[i] / sPos * (1 + (v-maxTerm)/gamma)
			dMin := bs[i] / sNeg * (1 - (v-minTerm)/gamma)
			grad[p.Obj] += w * (dMax - dMin)
		}
	}
	return maxTerm - minTerm
}

type refLSE struct{ Gamma float64 }

func (m refLSE) Eval(nl *Netlist, x, y []float64, gx, gy []float64) float64 {
	g := m.Gamma
	var total float64
	for i := range nl.Nets {
		net := &nl.Nets[i]
		if len(net.Pins) < 2 {
			continue
		}
		w := net.Weight
		if w == 0 {
			w = 1
		}
		total += w * refLSEAxis(net, x, gx, g, w, pinX)
		total += w * refLSEAxis(net, y, gy, g, w, pinY)
	}
	return total
}

func refLSEAxis(net *Net, coord []float64, grad []float64, gamma, w float64, at func(PinRef, []float64) float64) float64 {
	deg := len(net.Pins)
	var bufA, bufB [32]float64
	as, bs := bufA[:0], bufB[:0]
	if deg > len(bufA) {
		as = make([]float64, 0, deg)
		bs = make([]float64, 0, deg)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, p := range net.Pins {
		v := at(p, coord)
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	var sPos, sNeg float64
	for _, p := range net.Pins {
		v := at(p, coord)
		a := math.Exp((v - hi) / gamma)
		b := math.Exp((lo - v) / gamma)
		as = append(as, a)
		bs = append(bs, b)
		sPos += a
		sNeg += b
	}
	if grad != nil {
		for i, p := range net.Pins {
			if p.Obj == Fixed {
				continue
			}
			grad[p.Obj] += w * (as[i]/sPos - bs[i]/sNeg)
		}
	}
	return gamma*math.Log(sPos) + hi + (gamma*math.Log(sNeg) - lo)
}

// refParallel is the worker-pool wrapper: nets partitioned by worker,
// per-worker gradient buffers reduced in worker order over object slabs.
type refParallel struct {
	model   refModel
	workers int
}

func (p refParallel) Eval(nl *Netlist, x, y []float64, gx, gy []float64) float64 {
	w := p.workers
	if w == 1 || len(nl.Nets) < 4*w {
		return p.model.Eval(nl, x, y, gx, gy)
	}
	n := nl.NumObjs
	bufs := make([][]float64, w)
	for i := range bufs {
		bufs[i] = make([]float64, 2*n)
	}
	shards := make([]float64, w)
	needGrad := gx != nil || gy != nil
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			lo := len(nl.Nets) * k / w
			hi := len(nl.Nets) * (k + 1) / w
			sub := Netlist{Nets: nl.Nets[lo:hi], NumObjs: n}
			var bgx, bgy []float64
			if needGrad {
				bgx, bgy = bufs[k][:n], bufs[k][n:]
			}
			shards[k] = p.model.Eval(&sub, x, y, bgx, bgy)
		}(k)
	}
	wg.Wait()
	var total float64
	for _, s := range shards {
		total += s
	}
	if needGrad {
		for k := 0; k < w; k++ {
			lo := n * k / w
			hi := n * (k + 1) / w
			for _, buf := range bufs {
				for i := lo; i < hi; i++ {
					gx[i] += buf[i]
				}
				for i := lo; i < hi; i++ {
					gy[i] += buf[n+i]
				}
			}
		}
	}
	return total
}

// mixedNetlist covers every kernel path: degrees 2–40 (beyond the old
// 32-pin stack buffers), fixed pins, zero weights (read as 1) and
// degenerate nets that must be skipped. It also builds every case where
// the evaluator knows an exponential without computing it: ties at the
// max and at the min (pins sharing an object and offset, fixed pins at
// one position), fully coincident nets (lo == hi), and two-pin nets with
// zero, one or two fixed pins, coincident or not.
func mixedNetlist(rng *rand.Rand, n int) (*Netlist, []float64, []float64) {
	nl := &Netlist{NumObjs: n}
	movable := func() PinRef {
		return PinRef{Obj: rng.Intn(n), OffX: rng.Float64()*4 - 2, OffY: rng.Float64()*4 - 2}
	}
	fixed := func() PinRef {
		return PinRef{Obj: Fixed, OffX: rng.Float64() * 300, OffY: rng.Float64() * 300}
	}
	weight := func(rep int) float64 {
		if rep%4 == 0 {
			return 0
		}
		return 0.5 + rng.Float64()
	}
	for deg := 2; deg <= 40; deg++ {
		for rep := 0; rep < 12; rep++ {
			net := Net{Weight: weight(rep)}
			for j := 0; j < deg; j++ {
				if rng.Float64() < 0.15 {
					net.Pins = append(net.Pins, fixed())
				} else {
					net.Pins = append(net.Pins, movable())
				}
			}
			nl.Nets = append(nl.Nets, net)
		}
	}
	for rep := 0; rep < 12; rep++ {
		w := weight(rep)
		a, b, f := movable(), movable(), fixed()
		lo := PinRef{Obj: Fixed, OffX: -50 - float64(rep), OffY: -60}
		hi := PinRef{Obj: Fixed, OffX: 400, OffY: 350 + float64(rep)}
		nl.Nets = append(nl.Nets,
			// Two pins: movable, one fixed, both fixed, coincident
			// (same object and offset, or same fixed position).
			Net{Weight: w, Pins: []PinRef{a, b}},
			Net{Weight: w, Pins: []PinRef{a, f}},
			Net{Weight: w, Pins: []PinRef{f, b}},
			Net{Weight: w, Pins: []PinRef{f, fixed()}},
			Net{Weight: w, Pins: []PinRef{a, a}},
			Net{Weight: w, Pins: []PinRef{f, f}},
			// Fully coincident: one object and offset, or one position.
			Net{Weight: w, Pins: []PinRef{b, b, b}},
			Net{Weight: w, Pins: []PinRef{f, f, f, f}},
			// Ties at both extremes around interior pins: fixed pins at
			// one position beyond every object, and pins sharing an
			// object and offset.
			Net{Weight: w, Pins: []PinRef{hi, movable(), lo, hi, movable(), lo, movable()}},
			Net{Weight: w, Pins: []PinRef{lo, lo, movable(), hi, hi}},
			Net{Weight: w, Pins: []PinRef{a, b, a, movable(), b, a}},
			Net{Weight: w, Pins: []PinRef{a, f, a, f, movable()}},
		)
	}
	nl.Nets = append(nl.Nets, Net{Weight: 1, Pins: []PinRef{{Obj: 0}}}, Net{Weight: 1})
	rng.Shuffle(len(nl.Nets), func(i, j int) { nl.Nets[i], nl.Nets[j] = nl.Nets[j], nl.Nets[i] })
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64() * 300
		y[i] = rng.Float64() * 300
	}
	return nl, x, y
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func TestEvaluatorMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	const n = 150
	nl, x, y := mixedNetlist(rng, n)
	// A second point: the gradient must come from the last Value call.
	x2 := append([]float64(nil), x...)
	y2 := append([]float64(nil), y...)
	for i := range x2 {
		x2[i] += rng.Float64()*6 - 3
		y2[i] += rng.Float64()*6 - 3
	}
	var reach float64
	for _, c := range [][]float64{x, y, x2, y2} {
		for _, v := range c {
			reach = math.Max(reach, math.Abs(v))
		}
	}
	for _, tc := range []struct {
		m     Model
		ref   refModel
		gamma float64
	}{{WA, refWA{Gamma: 3}, 3}, {LSE, refLSE{Gamma: 3}, 3}, {WA, refWA{Gamma: 0.25}, 0.25}} {
		for _, workers := range []int{1, 2, 4, 7, 8} {
			t.Run(fmt.Sprintf("%s/gamma=%v/w=%d", tc.m, tc.gamma, workers), func(t *testing.T) {
				ref := refParallel{model: tc.ref, workers: workers}
				e := NewEvaluator(nl, tc.m, tc.gamma, workers, reach)
				if e.shards != workers {
					t.Fatalf("evaluator reduces %d shards, want %d", e.shards, workers)
				}
				for _, pt := range [][2][]float64{{x, y}, {x2, y2}} {
					px, py := pt[0], pt[1]
					rgx := make([]float64, n)
					rgy := make([]float64, n)
					rv := ref.Eval(nl, px, py, rgx, rgy)
					if rvOnly := ref.Eval(nl, px, py, nil, nil); !sameBits(rv, rvOnly) {
						t.Fatalf("reference value depends on the gradient request: %v vs %v", rv, rvOnly)
					}
					// A limit at or above the value must not cut: the
					// value and the gradient after it are the reference
					// bits. Before each, Value at another point and a
					// call cut about halfway through every shard must
					// leave nothing behind.
					low := rv / float64(2*workers)
					for _, limit := range []float64{rv, math.Nextafter(rv, math.Inf(1)), 2 * rv, math.Inf(1)} {
						e.Value(y, x, math.Inf(1))
						if cut := e.Value(px, py, low); !(cut > low) {
							t.Fatalf("limit %v below the value %v returned %v", low, rv, cut)
						}
						v := e.Value(px, py, limit)
						gx := make([]float64, n)
						gy := make([]float64, n)
						e.Gradient(gx, gy)
						if !sameBits(v, rv) {
							t.Fatalf("limit %v: value %v, reference %v", limit, v, rv)
						}
						for i := 0; i < n; i++ {
							if !sameBits(gx[i], rgx[i]) || !sameBits(gy[i], rgy[i]) {
								t.Fatalf("limit %v: gradient at obj %d: (%v, %v), reference (%v, %v)", limit, i, gx[i], gy[i], rgx[i], rgy[i])
							}
						}
					}
				}
				if e.Cuts() == 0 {
					t.Error("no call stopped early at a limit far below the value")
				}
			})
		}
	}
}
