package nlopt

import (
	"math"
	"testing"
)

// fn adapts a combined value-and-gradient function to Objective: Value
// remembers the point, Gradient re-evaluates the function there.
type fn struct {
	f  func(v, grad []float64) float64
	at []float64
}

func (o *fn) Value(v []float64, _ float64) float64 { o.at = v; return o.f(v, nil) }
func (o *fn) Gradient(grad []float64)              { o.f(o.at, grad) }

func objective(f func(v, grad []float64) float64) *fn { return &fn{f: f} }

// quadratic builds a separable quadratic Σ cᵢ(vᵢ − tᵢ)².
func quadratic(c, target []float64) *fn {
	return objective(func(v []float64, grad []float64) float64 {
		var f float64
		for i := range v {
			d := v[i] - target[i]
			f += c[i] * d * d
			if grad != nil {
				grad[i] += 2 * c[i] * d
			}
		}
		return f
	})
}

func TestQuadraticBowl(t *testing.T) {
	c := []float64{1, 1, 1}
	target := []float64{3, -2, 7}
	v := []float64{0, 0, 0}
	res := CG(quadratic(c, target), v, Options{MaxIter: 200, GradTol: 1e-8})
	if !res.Converged {
		t.Errorf("did not converge: %+v", res)
	}
	for i := range v {
		if math.Abs(v[i]-target[i]) > 1e-5 {
			t.Errorf("v[%d] = %v, want %v", i, v[i], target[i])
		}
	}
}

func TestIllConditionedQuadratic(t *testing.T) {
	// Condition number 1e4: CG must still reach the optimum.
	c := []float64{1, 100, 10000}
	target := []float64{1, 2, 3}
	v := []float64{-5, 5, -5}
	res := CG(quadratic(c, target), v, Options{MaxIter: 2000, GradTol: 1e-8, StepInit: 1})
	if res.Value > 1e-6 {
		t.Errorf("residual %v too large after %d iters", res.Value, res.Iters)
	}
}

func TestRosenbrock(t *testing.T) {
	f := func(v []float64, grad []float64) float64 {
		x, y := v[0], v[1]
		a := 1 - x
		b := y - x*x
		fv := a*a + 100*b*b
		if grad != nil {
			grad[0] += -2*a - 400*x*b
			grad[1] += 200 * b
		}
		return fv
	}
	v := []float64{-1.2, 1}
	res := CG(objective(f), v, Options{MaxIter: 5000, GradTol: 1e-6, StepInit: 0.5})
	if res.Value > 1e-5 {
		t.Errorf("Rosenbrock residual %v at %v after %d iters", res.Value, v, res.Iters)
	}
}

func TestMonotoneDecrease(t *testing.T) {
	c := []float64{2, 1}
	target := []float64{4, -4}
	v := []float64{10, 10}
	prev := math.Inf(1)
	CG(quadratic(c, target), v, Options{
		MaxIter: 100,
		OnIter: func(iter int, f float64) {
			if f > prev+1e-9 {
				t.Errorf("objective rose at iter %d: %v -> %v", iter, prev, f)
			}
			prev = f
		},
	})
}

func TestProjectionRespected(t *testing.T) {
	// Minimize (v-10)² with v clamped to [0, 4]: solution sticks at 4.
	f := func(v []float64, grad []float64) float64 {
		d := v[0] - 10
		if grad != nil {
			grad[0] += 2 * d
		}
		return d * d
	}
	v := []float64{0}
	res := CG(objective(f), v, Options{
		MaxIter: 100,
		Project: func(v []float64) {
			if v[0] > 4 {
				v[0] = 4
			}
			if v[0] < 0 {
				v[0] = 0
			}
		},
	})
	if v[0] != 4 {
		t.Errorf("projected solution = %v, want 4 (result %+v)", v[0], res)
	}
}

func TestEmptyProblem(t *testing.T) {
	res := CG(objective(func(v, g []float64) float64 { return 0 }), nil, Options{})
	if !res.Converged {
		t.Error("empty problem must converge trivially")
	}
}

func TestAlreadyOptimal(t *testing.T) {
	c := []float64{1}
	target := []float64{5}
	v := []float64{5}
	res := CG(quadratic(c, target), v, Options{GradTol: 1e-9})
	if !res.Converged || res.Iters > 1 {
		t.Errorf("optimal start should converge immediately: %+v", res)
	}
}

func TestFuncEvalsCounted(t *testing.T) {
	c := []float64{1, 1}
	target := []float64{1, 1}
	v := []float64{0, 0}
	res := CG(quadratic(c, target), v, Options{MaxIter: 50})
	if res.ValueEvals < res.Iters {
		t.Errorf("ValueEvals %d < Iters %d", res.ValueEvals, res.Iters)
	}
}

func BenchmarkCGQuadratic1000(b *testing.B) {
	n := 1000
	c := make([]float64, n)
	target := make([]float64, n)
	for i := range c {
		c[i] = 1 + float64(i%7)
		target[i] = float64(i % 13)
	}
	f := quadratic(c, target)
	for i := 0; i < b.N; i++ {
		v := make([]float64, n)
		CG(f, v, Options{MaxIter: 100, GradTol: 1e-6})
	}
}

func TestRelTolStopsOnPlateau(t *testing.T) {
	// A flat valley: f decreases negligibly after the first step, so the
	// plateau detector must stop the run early.
	f := func(v, grad []float64) float64 {
		x := v[0]
		fv := 1 + 1e-9*x*x
		if grad != nil {
			grad[0] += 2e-9 * x
		}
		return fv
	}
	v := []float64{1}
	res := CG(objective(f), v, Options{MaxIter: 500, RelTol: 1e-4, GradTol: 1e-30})
	if res.Iters > 5 {
		t.Errorf("plateau run used %d iterations", res.Iters)
	}
	if !res.Converged {
		t.Error("plateau stop should report convergence")
	}
}

func TestRelTolZeroDisablesPlateauStop(t *testing.T) {
	c := []float64{1, 100}
	target := []float64{1, 2}
	v := []float64{-3, 4}
	res := CG(quadratic(c, target), v, Options{MaxIter: 300, GradTol: 1e-10})
	if res.Value > 1e-8 {
		t.Errorf("without RelTol the run should fully converge, residual %v", res.Value)
	}
}

// recorder wraps an objective and checks the Objective contract: every
// Gradient call is for the point of the most recent Value call, and that
// slice is still bitwise what was valued.
type recorder struct {
	t        *testing.T
	inner    Objective
	at       []float64 // slice passed to the last Value call
	valued   []float64 // copy of it taken at Value time
	fresh    bool      // a Value call happened since the last Gradient
	lastGrad []float64 // copy of the point of the last Gradient call
	values   int
	grads    int
}

func (r *recorder) Value(v []float64, limit float64) float64 {
	r.values++
	r.at = v
	r.valued = append(r.valued[:0], v...)
	r.fresh = true
	return r.inner.Value(v, limit)
}

func (r *recorder) Gradient(grad []float64) {
	r.grads++
	if !r.fresh {
		r.t.Fatalf("gradient %d requested without a value evaluation since the last one", r.grads)
	}
	for i := range r.valued {
		if math.Float64bits(r.at[i]) != math.Float64bits(r.valued[i]) {
			r.t.Fatalf("gradient %d: point changed since its Value call at coordinate %d: %v -> %v",
				r.grads, i, r.valued[i], r.at[i])
		}
	}
	for i, g := range grad {
		if g != 0 {
			r.t.Fatalf("gradient %d: grad[%d] = %v did not arrive zeroed", r.grads, i, g)
		}
	}
	r.fresh = false
	r.lastGrad = append(r.lastGrad[:0], r.valued...)
	r.inner.Gradient(grad)
}

func TestGradientFollowsValueAtSamePoint(t *testing.T) {
	rosen := objective(func(v []float64, grad []float64) float64 {
		x, y := v[0], v[1]
		a := 1 - x
		b := y - x*x
		if grad != nil {
			grad[0] += -2*a - 400*x*b
			grad[1] += 200 * b
		}
		return a*a + 100*b*b
	})
	r := &recorder{t: t, inner: rosen}
	v := []float64{-1.2, 1}
	res := CG(r, v, Options{
		MaxIter:  300,
		StepInit: 0.5,
		// A projection makes the valued point differ from the raw trial.
		Project: func(v []float64) {
			if v[1] > 1.5 {
				v[1] = 1.5
			}
		},
		// After each accepted iteration the iterate must be the point the
		// gradient was taken at.
		OnIter: func(iter int, f float64) {
			for i := range v {
				if math.Float64bits(v[i]) != math.Float64bits(r.lastGrad[i]) {
					t.Fatalf("iter %d: iterate %v is not the gradient point %v", iter, v, r.lastGrad)
				}
			}
		},
	})
	if r.values != res.ValueEvals {
		t.Errorf("ValueEvals = %d, objective saw %d Value calls", res.ValueEvals, r.values)
	}
	if r.grads < 2 || r.grads > res.Iters+1 {
		t.Errorf("%d gradients for %d iterations", r.grads, res.Iters)
	}
	if r.values <= r.grads {
		t.Errorf("line search made %d value evaluations for %d gradients; the value pass must not be repeated per gradient", r.values, r.grads)
	}
}

// cutter honors Value's limit as aggressively as the contract allows:
// every value above the limit comes back as +Inf.
type cutter struct {
	inner Objective
	cuts  int
}

func (c *cutter) Value(v []float64, limit float64) float64 {
	f := c.inner.Value(v, math.Inf(1))
	if f > limit {
		c.cuts++
		return math.Inf(1)
	}
	return f
}
func (c *cutter) Gradient(grad []float64) { c.inner.Gradient(grad) }

// TestLimitDoesNotSteer runs CG on objectives that honor Value's limit
// and on the same objectives ignoring it: every iterate, the Result and
// the value count must be bitwise equal. The line search may only use a
// trial's value to accept or reject it.
func TestLimitDoesNotSteer(t *testing.T) {
	rosen := func(v []float64, grad []float64) float64 {
		x, y := v[0], v[1]
		a := 1 - x
		b := y - x*x
		if grad != nil {
			grad[0] += -2*a - 400*x*b
			grad[1] += 200 * b
		}
		return a*a + 100*b*b
	}
	clampY := func(v []float64) {
		if v[1] > 1.5 {
			v[1] = 1.5
		}
	}
	cases := []struct {
		name  string
		f     func() Objective
		start []float64
		opt   Options
	}{
		{"rosenbrock", func() Objective { return objective(rosen) }, []float64{-1.2, 1},
			Options{MaxIter: 400, StepInit: 0.5, Project: clampY}},
		{"ill-conditioned", func() Objective { return quadratic([]float64{1, 100, 10000}, []float64{1, 2, 3}) },
			[]float64{-5, 5, -5}, Options{MaxIter: 300, GradTol: 1e-8, StepInit: 4, RelTol: 1e-9}},
	}
	for _, tc := range cases {
		run := func(f Objective) ([]float64, []uint64, Result) {
			v := append([]float64(nil), tc.start...)
			var trace []uint64
			opt := tc.opt
			opt.OnIter = func(_ int, fv float64) {
				trace = append(trace, math.Float64bits(fv))
				for _, x := range v {
					trace = append(trace, math.Float64bits(x))
				}
			}
			return v, trace, CG(f, v, opt)
		}
		c := &cutter{inner: tc.f()}
		vCut, traceCut, resCut := run(c)
		vFull, traceFull, resFull := run(tc.f())
		if c.cuts == 0 {
			t.Fatalf("%s: no trial was rejected; the case does not exercise the limit", tc.name)
		}
		if len(traceCut) != len(traceFull) {
			t.Fatalf("%s: %d iterate words with the limit honored, %d ignored", tc.name, len(traceCut), len(traceFull))
		}
		for i := range traceCut {
			if traceCut[i] != traceFull[i] {
				t.Fatalf("%s: iterate word %d differs: %x vs %x", tc.name, i, traceCut[i], traceFull[i])
			}
		}
		for i := range vCut {
			if math.Float64bits(vCut[i]) != math.Float64bits(vFull[i]) {
				t.Errorf("%s: final v[%d] = %v honored, %v ignored", tc.name, i, vCut[i], vFull[i])
			}
		}
		if math.Float64bits(resCut.Value) != math.Float64bits(resFull.Value) || resCut.Iters != resFull.Iters ||
			resCut.ValueEvals != resFull.ValueEvals || resCut.Converged != resFull.Converged {
			t.Errorf("%s: result %+v honored, %+v ignored", tc.name, resCut, resFull)
		}
	}
}

// TestStepBudgetSchedule pins the line search's step budget: it starts at
// StepInit, doubles after every accepted iteration up to 16×StepInit from
// its own previous value (not from the step the backtracking accepted),
// and is quartered when a line search stalls. The objective is linear,
// f(v) = −v, with an infinite wall past v = 34 that the gradient never
// sees, so every first trial is accepted until the wall forces
// backtracking (v = 31 accepts a 2-unit step, v = 33 a 1-unit step) and
// then stalls (v = 34).
func TestStepBudgetSchedule(t *testing.T) {
	const wall = 34
	f := objective(func(v, grad []float64) float64 {
		if grad != nil {
			grad[0] = -1
		}
		if v[0] > wall {
			return math.Inf(1)
		}
		return -v[0]
	})
	v := []float64{0}
	var budgets []float64
	var base float64
	first := false
	r := &probe{inner: f, onValue: func(x []float64) {
		if first {
			budgets = append(budgets, x[0]-base)
			first = false
		}
	}}
	CG(r, v, Options{
		MaxIter:  10,
		StepInit: 1,
		GradTol:  1e-30,
		Stop: func() bool {
			base = v[0]
			first = true
			return false
		},
	})
	want := []float64{1, 2, 4, 8, 16, 16, 16, 16, 4, 1}
	if len(budgets) != len(want) {
		t.Fatalf("first-trial moves %v, want %v", budgets, want)
	}
	for i := range want {
		if budgets[i] != want[i] {
			t.Fatalf("first-trial moves %v, want %v", budgets, want)
		}
	}
	if v[0] != wall {
		t.Errorf("final iterate %v, want %v", v[0], wall)
	}
}

// probe observes every point an objective is valued at.
type probe struct {
	inner   Objective
	onValue func(v []float64)
}

func (p *probe) Value(v []float64, limit float64) float64 {
	p.onValue(v)
	return p.inner.Value(v, limit)
}
func (p *probe) Gradient(grad []float64) { p.inner.Gradient(grad) }

// An objective that overflows — an infinite value, or a NaN hidden in
// one gradient entry — stops CG at once with the iterate untouched:
// stepping along such a direction would only spread NaN into v.
func TestNonFiniteObjectiveStops(t *testing.T) {
	for name, f := range map[string]func(v, grad []float64) float64{
		"infinite value": func(v, grad []float64) float64 { return math.Inf(1) },
		"nan gradient": func(v, grad []float64) float64 {
			if grad != nil {
				grad[0], grad[1] = 1, math.NaN()
			}
			return v[0]
		},
	} {
		v := []float64{1, 2}
		res := CG(objective(f), v, Options{})
		if res.Converged || res.Iters > 1 || v[0] != 1 || v[1] != 2 {
			t.Errorf("%s: result %+v, v %v; want an immediate stop at the start", name, res, v)
		}
	}
}
