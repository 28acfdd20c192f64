package core

import (
	"repro/internal/cluster"
	"repro/internal/geom"
	"repro/internal/nlopt"
	"repro/internal/wl"
)

// quadInit warm-starts the problem with a quadratic star-model solve:
// minimize Σ_nets w · Σ_pins (pin − net centroid)², whose gradient with
// respect to a movable pin is simply 2w·(pin − centroid) (the centroid
// terms cancel). Fixed pins anchor the system, pulling each connected
// component toward its I/O; without the warm start, a poorly seeded
// design (all cells at the origin, or a generator clump) costs the
// nonlinear solver many rounds to untangle. Positions are projected into
// the die afterwards.
func quadInit(p *cluster.Problem, die geom.Rect) {
	n := p.NumObjs()
	if n == 0 {
		return
	}
	v := make([]float64, 2*n)
	copy(v[:n], p.X)
	copy(v[n:], p.Y)
	nlopt.CG(&starObjective{p: p}, v, nlopt.Options{
		MaxIter:  150,
		RelTol:   1e-6,
		StepInit: (die.W() + die.H()) / 8,
	})
	for i := 0; i < n; i++ {
		p.X[i] = geom.Interval{Lo: die.Lo.X, Hi: die.Hi.X}.Clamp(v[i])
		p.Y[i] = geom.Interval{Lo: die.Lo.Y, Hi: die.Hi.Y}.Clamp(v[n+i])
	}
}

// starObjective is the quadratic star model as an nlopt.Objective. The
// model is cheap, so Gradient re-evaluates at the point Value kept.
type starObjective struct {
	p  *cluster.Problem
	at []float64
}

func (o *starObjective) Value(v []float64) float64 {
	o.at = v
	return o.eval(v, nil)
}

func (o *starObjective) Gradient(grad []float64) { o.eval(o.at, grad) }

// eval returns the star-model cost at v and, when grad is non-nil, adds
// its gradient into grad.
func (o *starObjective) eval(v []float64, grad []float64) float64 {
	p := o.p
	n := p.NumObjs()
	x, y := v[:n], v[n:]
	var gx, gy []float64
	if grad != nil {
		gx, gy = grad[:n], grad[n:]
	}
	var total float64
	for ni := range p.Nets {
		net := &p.Nets[ni]
		deg := len(net.Pins)
		if deg < 2 {
			continue
		}
		w := net.Weight
		if w == 0 {
			w = 1
		}
		var cx, cy float64
		for _, pin := range net.Pins {
			if pin.Obj == wl.Fixed {
				cx += pin.OffX
				cy += pin.OffY
			} else {
				cx += x[pin.Obj] + pin.OffX
				cy += y[pin.Obj] + pin.OffY
			}
		}
		cx /= float64(deg)
		cy /= float64(deg)
		for _, pin := range net.Pins {
			var px, py float64
			if pin.Obj == wl.Fixed {
				px, py = pin.OffX, pin.OffY
			} else {
				px, py = x[pin.Obj]+pin.OffX, y[pin.Obj]+pin.OffY
			}
			dx, dy := px-cx, py-cy
			total += w * (dx*dx + dy*dy)
			if grad != nil && pin.Obj != wl.Fixed {
				gx[pin.Obj] += 2 * w * dx
				gy[pin.Obj] += 2 * w * dy
			}
		}
	}
	return total
}
