package core

import (
	"math"
	"testing"

	"repro/internal/gen"
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
				// stage counts the limits the fence and density terms
				// alone cross, with the wirelength at its lower bound.
				stage := 0
				for _, limit := range limits {
					if s.combine(-s.wlEval.Slack(), dens, fence) > limit {
						stage++
					}
				}
				cuts := s.cuts
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
				if got := s.cuts - cuts; got < stage || (fence > 0 && stage < 3) {
					t.Errorf("%s w=%d: %d values stopped early, want the fence and density stages to stop the %d the two alone cross", lb.name, workers, got, stage)
				}
				if workers == 1 && s.cuts-cuts == stage {
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

// TestOneThreadCallsAllocateNothing requires a value, a value cut
// against its limit and a gradient on one thread to allocate nothing on
// sb-a's finest and coarsest levels: their task lists run in order on
// the caller, through task functions the solver binds once.
func TestOneThreadCallsAllocateNothing(t *testing.T) {
	for _, lb := range levelBenches(t, 1) {
		s := lb.s
		grad := make([]float64, len(lb.v))
		for _, c := range []struct {
			name string
			call func()
		}{
			{"value", func() { s.Value(lb.v, math.Inf(1)) }},
			{"rejected trial", func() { s.Value(lb.trial, lb.limit) }},
			{"gradient", func() { s.Value(lb.v, math.Inf(1)); clear(grad); s.Gradient(grad) }},
		} {
			if a := testing.AllocsPerRun(20, c.call); a != 0 {
				t.Errorf("%s: one-thread %s allocates %v times per call", lb.name, c.name, a)
			}
		}
	}
}

// TestLevelThreadsKeepBits overrides the thread count of sb-a's finest
// and coarsest level solvers, at one and two workers, and of
// Congested(3000, 7)'s level 1 (one shard, no fences) at two, and
// requires the one-thread bits of the objective at the start point, of
// the gradient there, and of a recorded rejected trial valued in full
// and against its Armijo limit. Over one shard the deposit runs as a
// task next to the wirelength's chunks, so three more limits at the
// start point pin how they cut: one that the fence and density terms
// alone cross, at which the deposit stops the chunks (sharded, the
// density stage stops the call before they start); one that only the
// wirelength limit derived from λ·N crosses, so the chunks, started from
// the limit with λ·N at 0, can cut only once it is tightened or after
// they finish; and one a single ulp below the value, which no stage may
// cut. A call that is cut counts one cut.
func TestLevelThreadsKeepBits(t *testing.T) {
	type levelCase struct {
		workers int
		lb      levelBench
	}
	var cases []levelCase
	for _, workers := range []int{1, 2} {
		for _, lb := range levelBenches(t, workers) {
			cases = append(cases, levelCase{workers, lb})
		}
	}
	congested := designLevels(t, gen.MustGenerate(gen.Congested(3000, 7)), 2, levelPick{"congested-level1", 1})
	if lb := congested[0]; lb.s.p.NumObjs() != 1734 || lb.s.wlEval.Shards() != 1 || lb.s.mu != 0 {
		t.Fatalf("congested level 1: %d objects, %d shards, μ %v; want 1734, one shard, no fence term", lb.s.p.NumObjs(), lb.s.wlEval.Shards(), lb.s.mu)
	}
	cases = append(cases, levelCase{2, congested[0]})
	for _, c := range cases {
		lb, s := c.lb, c.lb.s
		n := s.p.NumObjs()
		x, y := lb.v[:n], lb.v[n:]
		s.setThreads(1)
		f := s.Value(lb.v, math.Inf(1))
		fence := s.mu * s.fencePenalty(x, y, nil, nil)
		dens := s.lambda * s.grid.Penalty(s.objs, x, y)
		limits := []float64{fence + dens/2, f - dens/2, math.Nextafter(f, math.Inf(-1))}
		eval := func(threads int) []float64 {
			s.setThreads(threads)
			// Every call that is cut returns +Inf and counts once.
			value := func(v []float64, limit float64) float64 {
				cuts := s.cuts
				f := s.Value(v, limit)
				if d := s.cuts - cuts; d > 1 || (d == 1) != math.IsInf(f, 1) {
					t.Fatalf("%s w=%d threads=%d: a value of %v against %v counted %d cuts", lb.name, c.workers, threads, f, limit, d)
				}
				return f
			}
			out := []float64{value(lb.trial, math.Inf(1)), value(lb.trial, lb.limit)}
			for _, limit := range limits {
				out = append(out, value(lb.v, limit))
			}
			out = append(out, s.Value(lb.v, math.Inf(1)))
			grad := make([]float64, len(lb.v))
			s.Gradient(grad)
			return append(out, grad...)
		}
		want := eval(1)
		if !(want[1] > lb.limit) {
			t.Fatalf("%s w=%d: the recorded trial %v is not above its limit %v", lb.name, c.workers, want[1], lb.limit)
		}
		if !math.IsInf(want[2], 1) || !math.IsInf(want[3], 1) || !sameBits(want[4], f) {
			t.Fatalf("%s w=%d: one thread valued the start point %v against %v: %v, want +Inf, +Inf, %v", lb.name, c.workers, f, limits, want[2:5], f)
		}
		for _, threads := range []int{2, 3, 8} {
			for i, v := range eval(threads) {
				if !sameBits(v, want[i]) {
					t.Fatalf("%s w=%d threads=%d: output %d is %v, one thread %v", lb.name, c.workers, threads, i, v, want[i])
				}
			}
		}
	}
}
