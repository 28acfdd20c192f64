// Package wl implements the wirelength models used by analytical global
// placement: the exact half-perimeter wirelength (HPWL), the classical
// log-sum-exp (LSE) smooth approximation, and the weighted-average (WA)
// model this paper family introduced. Both smooth models come with
// analytic gradients and a max-shift scheme that keeps the exponentials
// numerically stable for any coordinate magnitude.
//
// The models operate on a lightweight view of the netlist: movable objects
// are identified by index into flat coordinate arrays (their centers), and
// each net pin is either an offset from a movable object or an absolute
// fixed location. The global placer lowers the db.Design (or a clustered
// version of it) into this view once per level, flattens it into an
// Evaluator, and then evaluates values and gradients thousands of times
// without touching the database.
//
// Model bracketing: for every net, WA ≤ HPWL ≤ LSE, and both smooth models
// converge to HPWL as the smoothing parameter γ → 0. The property tests
// pin these inequalities down; the WA model's tighter error bound is the
// theoretical selling point reproduced by experiment T3.
package wl

import (
	"math"
)

// PinRef locates one pin of a net. For movable pins, Obj is the index of
// the owning object and Off* the pin offset from the object's center. For
// fixed pins, Obj is Fixed and Off* hold the absolute pin position.
type PinRef struct {
	Obj        int
	OffX, OffY float64
}

// Fixed marks a PinRef that does not move with any object.
const Fixed = -1

// Net is one hyperedge over the flat object view.
type Net struct {
	Weight float64
	Pins   []PinRef
}

// Netlist is the flattened connectivity a Model evaluates.
type Netlist struct {
	Nets []Net
	// NumObjs is the length of the coordinate arrays the nets refer to.
	NumObjs int
}

// Model selects a smooth wirelength approximation; an Evaluator
// evaluates it (see eval.go).
type Model int

const (
	// WA is the weighted-average model. Per net and axis
	//
	//	WL = Σ xᵢ·e^{xᵢ/γ} / Σ e^{xᵢ/γ} − Σ xᵢ·e^{−xᵢ/γ} / Σ e^{−xᵢ/γ}
	//
	// Smaller γ tracks HPWL more closely but yields stiffer gradients;
	// global placement anneals γ from coarse to fine.
	WA Model = iota
	// LSE is the log-sum-exp model:
	//
	//	WL = γ·ln Σ e^{xᵢ/γ} + γ·ln Σ e^{−xᵢ/γ}
	//
	// It upper-bounds HPWL by at most γ·ln(degree) per axis.
	LSE
)

func (m Model) String() string {
	if m == LSE {
		return "LSE"
	}
	return "WA"
}

// pinX returns the x coordinate of pin p given object positions.
func pinX(p PinRef, x []float64) float64 {
	if p.Obj == Fixed {
		return p.OffX
	}
	return x[p.Obj] + p.OffX
}

// pinY returns the y coordinate of pin p given object positions.
func pinY(p PinRef, y []float64) float64 {
	if p.Obj == Fixed {
		return p.OffY
	}
	return y[p.Obj] + p.OffY
}

// HPWL returns the exact weighted half-perimeter wirelength of the view.
func HPWL(nl *Netlist, x, y []float64) float64 {
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
		minX, maxX := math.Inf(1), math.Inf(-1)
		minY, maxY := math.Inf(1), math.Inf(-1)
		for _, p := range net.Pins {
			px, py := pinX(p, x), pinY(p, y)
			minX = math.Min(minX, px)
			maxX = math.Max(maxX, px)
			minY = math.Min(minY, py)
			maxY = math.Max(maxY, py)
		}
		total += w * ((maxX - minX) + (maxY - minY))
	}
	return total
}

// NetHPWL returns the exact half-perimeter of a single net.
func NetHPWL(net *Net, x, y []float64) float64 {
	if len(net.Pins) < 2 {
		return 0
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, p := range net.Pins {
		px, py := pinX(p, x), pinY(p, y)
		minX = math.Min(minX, px)
		maxX = math.Max(maxX, px)
		minY = math.Min(minY, py)
		maxY = math.Max(maxY, py)
	}
	return (maxX - minX) + (maxY - minY)
}
