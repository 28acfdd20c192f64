package core

import (
	"math"
	"testing"

	"repro/internal/geom"
)

// TestValueLimit checks the level solver's side of the nlopt.Objective
// limit contract on sb-a's finest and coarsest levels at one and two
// workers, at the start point and at a rejected line-search trial. With
// the limit at or above f(v), Value returns f(v)'s bits and leaves the
// caches the gradient reads complete; below it, Value returns f(v)'s bits
// or a value above the limit. Limits placed inside the fence term, the
// density term and the wirelength make each stage stop early.
func TestValueLimit(t *testing.T) {
	for _, workers := range []int{1, 2} {
		for _, lb := range levelBenches(t, workers) {
			s := lb.s
			n := s.p.NumObjs()
			for _, v := range [][]float64{lb.v, lb.trial} {
				f := s.Value(v, math.Inf(1))
				want := make([]float64, len(v))
				s.Gradient(want)
				x, y := v[:n], v[n:]
				fence := s.mu * s.fencePenalty(x, y, nil, nil)
				dens := s.lambda * s.grid.Penalty(s.objs, x, y)
				limits := []float64{
					math.Inf(-1), -1, fence / 2, fence + dens/2, fence + dens + (f-fence-dens)/2,
					f - math.Abs(f)*1e-9, math.Nextafter(f, math.Inf(-1)),
					f, math.Nextafter(f, math.Inf(1)), 2 * f, math.Inf(1),
				}
				stageCuts, wlCuts := s.cuts, s.wlEval.Cuts()
				for _, limit := range limits {
					got := s.Value(v, limit)
					if limit < f {
						if !sameBits(got, f) && !(got > limit) {
							t.Errorf("%s w=%d: limit %v below f %v returned %v", lb.name, workers, limit, f, got)
						}
						continue
					}
					if !sameBits(got, f) {
						t.Fatalf("%s w=%d: limit %v: got %v, f %v", lb.name, workers, limit, got, f)
					}
					grad := make([]float64, len(v))
					s.Gradient(grad)
					for i := range grad {
						if !sameBits(grad[i], want[i]) {
							t.Fatalf("%s w=%d: limit %v: gradient[%d] %v, uncut %v", lb.name, workers, limit, i, grad[i], want[i])
						}
					}
				}
				if fence > 0 && s.cuts-stageCuts < 3 {
					t.Errorf("%s w=%d: %d stage cuts, want the fence and density stages to stop early", lb.name, workers, s.cuts-stageCuts)
				}
				if workers == 1 && s.wlEval.Cuts() == wlCuts {
					t.Errorf("%s: no limit inside the wirelength stopped it early", lb.name)
				}
			}
		}
	}
}

// TestValueNaNTermNeverCuts makes the fence term NaN — an infinite μ at a
// point where every fenced object is home, so μ·F = ∞·0 — and requires
// Value to return NaN at every limit: a NaN term must not stop the
// evaluation, and no later term may stop it either.
func TestValueNaNTermNeverCuts(t *testing.T) {
	for _, workers := range []int{1, 2} {
		for _, lb := range levelBenches(t, workers) {
			s := lb.s
			n := s.p.NumObjs()
			v := append([]float64(nil), lb.v...)
			for i, rg := range s.p.Region {
				if rg >= 0 && rg < len(s.regions) {
					q := s.regions[rg].Nearest(geom.Point{X: v[i], Y: v[n+i]})
					v[i], v[n+i] = q.X, q.Y
				}
			}
			if f := s.fencePenalty(v[:n], v[n:], nil, nil); f != 0 {
				t.Fatalf("%s: fence term %v after moving every fenced object home", lb.name, f)
			}
			s.mu = math.Inf(1)
			for _, limit := range []float64{math.Inf(-1), -1e300, 0, 1e300, math.Inf(1)} {
				if got := s.Value(v, limit); !math.IsNaN(got) {
					t.Errorf("%s w=%d: limit %v returned %v, want NaN", lb.name, workers, limit, got)
				}
			}
		}
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestLevelThreadsKeepBits overrides the thread count of sb-a's finest
// and coarsest level solvers, at one and two workers, and requires the
// one-thread bits of the objective at the start point, of the gradient
// there, and of a recorded rejected trial valued in full and against its
// Armijo limit.
func TestLevelThreadsKeepBits(t *testing.T) {
	for _, workers := range []int{1, 2} {
		for _, lb := range levelBenches(t, workers) {
			s := lb.s
			eval := func(threads int) []float64 {
				s.wlEval.SetThreads(threads)
				s.grid.SetThreads(threads)
				out := []float64{s.Value(lb.trial, math.Inf(1)), s.Value(lb.trial, lb.limit), s.Value(lb.v, math.Inf(1))}
				grad := make([]float64, len(lb.v))
				s.Gradient(grad)
				return append(out, grad...)
			}
			want := eval(1)
			if !(want[1] > lb.limit) {
				t.Fatalf("%s w=%d: the recorded trial %v is not above its limit %v", lb.name, workers, want[1], lb.limit)
			}
			for _, threads := range []int{2, 3, 8} {
				for i, v := range eval(threads) {
					if !sameBits(v, want[i]) {
						t.Fatalf("%s w=%d threads=%d: output %d is %v, one thread %v", lb.name, workers, threads, i, v, want[i])
					}
				}
			}
		}
	}
}
