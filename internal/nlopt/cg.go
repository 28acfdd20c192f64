// Package nlopt provides the nonlinear conjugate-gradient solver that
// drives analytical global placement: Polak–Ribière+ directions with
// automatic restarts, an Armijo backtracking line search with adaptive
// initial step, and an optional projection hook that the placer uses to
// keep object centers inside the die after every step.
package nlopt

import (
	"math"
)

// Objective is the function CG minimizes, split into a value pass and a
// gradient pass.
//
// Contract: CG requests a gradient only for the point of its most recent
// Value call — the first gradient included — and leaves that slice
// unmodified until the Gradient call returns. Every accepted line-search
// trial is the next iterate, so the gradient at it costs no extra value
// evaluation, and an objective may keep a reference to v and cache
// whatever its value pass computed (exponentials, density maps) to form
// the gradient from. No vector-equality cache key is needed.
//
// Value's limit is the most CG can accept: +Inf for a run's start point,
// and the Armijo bound f(vₖ) + c·α·∇f(vₖ)·d for a line-search trial,
// which CG accepts exactly when the value is ≤ the bound. An objective
// may stop valuing a trial once it has proven f(v) > limit. CG asks for
// a gradient only after a Value call whose result was ≤ its limit, so
// an objective that stops early only on such proof always has its
// caches complete when Gradient comes.
type Objective interface {
	// Value returns f(v) bit for bit when f(v) ≤ limit. Otherwise it
	// may return any value that is not ≤ limit: f(v) itself, or +Inf
	// when it stopped early.
	Value(v []float64, limit float64) float64
	// Gradient writes ∇f at the point of the most recent Value call into
	// grad, which arrives zeroed.
	Gradient(grad []float64)
}

// The Armijo line search: at most maxBacktrack halvings per iteration,
// and armijoC is the sufficient-decrease constant.
const (
	maxBacktrack = 30
	armijoC      = 1e-4
)

// Options tunes the CG run. Zero values select reasonable defaults.
type Options struct {
	// MaxIter bounds the number of CG iterations (default 300).
	MaxIter int
	// GradTol stops the run when the gradient ∞-norm falls below it
	// (default 1e-6).
	GradTol float64
	// RelTol, when positive, stops the run once the per-iteration relative
	// objective decrease falls below it — the cheap plateau detector the
	// placer uses to avoid burning iterations at a converged λ round.
	RelTol float64
	// StepInit is the first trial step length (default 1): the first
	// Armijo trial of an iteration moves the largest coordinate by the
	// current step budget. The budget starts at StepInit, doubles after
	// every accepted iteration up to 16×StepInit — whatever step the
	// backtracking actually accepted — and is quartered when a line
	// search stalls.
	StepInit float64
	// Project, when non-nil, is applied to the iterate after every
	// accepted step (e.g. clamping into the die). Projection composes
	// with the line search: the Armijo test is evaluated at the projected
	// point.
	Project func(v []float64)
	// OnIter, when non-nil, is called after every iteration with the
	// iteration index and current objective value; placement experiments
	// use it to record convergence traces.
	OnIter func(iter int, f float64)
	// Stop, when non-nil, is polled once per iteration before any work;
	// returning true aborts the run with the current iterate intact. The
	// placer wires context cancellation through it so a canceled job
	// returns at CG-iteration granularity. A Stop that never fires does
	// not perturb the trajectory, so results are unchanged when unused.
	Stop func() bool
}

func (o Options) withDefaults() Options {
	if o.MaxIter <= 0 {
		o.MaxIter = 300
	}
	if o.GradTol <= 0 {
		o.GradTol = 1e-6
	}
	if o.StepInit <= 0 {
		o.StepInit = 1
	}
	return o
}

// Result reports the outcome of a CG run.
type Result struct {
	Value float64
	Iters int
	// ValueEvals counts Value calls: the initial point plus every
	// line-search trial. Gradients are one per accepted iteration plus
	// the initial one, so ValueEvals/Iters is the line search's cost.
	ValueEvals int
	// Converged is true when the gradient tolerance was met (as opposed
	// to stopping on MaxIter or a stalled line search).
	Converged bool
}

// infNorm returns max |v[i]|, or NaN when any v[i] is NaN.
func infNorm(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		} else if a != a {
			return a
		}
	}
	return m
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// CG minimizes f starting from v (modified in place) and returns the run
// summary. The method is Polak–Ribière+ nonlinear CG: the direction is
// reset to steepest descent whenever β < 0 or the direction loses descent,
// which makes it globally convergent on the nonconvex placement
// objectives it is used for.
func CG(f Objective, v []float64, opt Options) Result {
	opt = opt.withDefaults()
	n := len(v)
	res := Result{}
	if n == 0 {
		res.Converged = true
		return res
	}

	grad := make([]float64, n)
	prevGrad := make([]float64, n)
	dir := make([]float64, n)
	trial := make([]float64, n)

	fv := f.Value(v, math.Inf(1))
	res.ValueEvals++
	f.Gradient(grad)
	for i := range dir {
		dir[i] = -grad[i]
	}
	step := opt.StepInit

	for iter := 0; iter < opt.MaxIter; iter++ {
		if opt.Stop != nil && opt.Stop() {
			break
		}
		res.Iters = iter + 1
		gnorm := infNorm(grad)
		if !finite(fv) || !finite(gnorm) {
			// An overflowed objective (a huge multiplier, a poisoned
			// iterate) has no descent direction worth following; stepping
			// along it would only spread NaN into the iterate.
			break
		}
		if gnorm <= opt.GradTol {
			res.Converged = true
			break
		}
		// Ensure a descent direction; restart on failure.
		dd := dot(dir, grad)
		if dd >= 0 {
			for i := range dir {
				dir[i] = -grad[i]
			}
			dd = -dot(grad, grad)
		}
		// Scale the trial step so the largest coordinate move is about
		// `step` units; this keeps the search robust to gradient
		// magnitude swings as the density weight grows.
		dmax := infNorm(dir)
		if dmax == 0 {
			res.Converged = true
			break
		}
		alpha := step / dmax
		accepted := false
		var fNew float64
		for bt := 0; bt < maxBacktrack; bt++ {
			for i := range trial {
				trial[i] = v[i] + alpha*dir[i]
			}
			if opt.Project != nil {
				opt.Project(trial)
			}
			limit := fv + armijoC*alpha*dd
			fNew = f.Value(trial, limit)
			res.ValueEvals++
			if fNew <= limit {
				accepted = true
				break
			}
			alpha /= 2
		}
		if !accepted {
			// Line search stalled: tighten the step budget and retry from
			// steepest descent next round; if the step is already tiny,
			// declare convergence to the achievable precision.
			step /= 4
			for i := range dir {
				dir[i] = -grad[i]
			}
			if step < 1e-12 {
				break
			}
			continue
		}
		// The accepted trial was the last point valued, so its value is
		// the new fv and its gradient is the one the contract allows.
		copy(v, trial)
		copy(prevGrad, grad)
		for i := range grad {
			grad[i] = 0
		}
		fPrev := fv
		fv = fNew
		f.Gradient(grad)
		if opt.RelTol > 0 && fPrev-fv < opt.RelTol*(math.Abs(fPrev)+1e-30) {
			if opt.OnIter != nil {
				opt.OnIter(iter, fv)
			}
			res.Converged = true
			break
		}
		if opt.OnIter != nil {
			opt.OnIter(iter, fv)
		}
		// Polak–Ribière+ β with automatic restart.
		var num, den float64
		for i := range grad {
			num += grad[i] * (grad[i] - prevGrad[i])
			den += prevGrad[i] * prevGrad[i]
		}
		beta := 0.0
		if den > 0 {
			beta = num / den
		}
		if beta < 0 {
			beta = 0
		}
		for i := range dir {
			dir[i] = -grad[i] + beta*dir[i]
		}
		// Grow the step budget after a clean acceptance. The budget
		// doubles from its own previous value, not from the step the
		// backtracking accepted (see Options.StepInit).
		step = math.Min(step*2, opt.StepInit*16)
	}
	res.Value = fv
	return res
}
