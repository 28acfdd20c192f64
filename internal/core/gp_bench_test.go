package core

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/db"
	"repro/internal/gen"
	"repro/internal/nlopt"
)

// levelBench is a level solver with λ and μ initialized, its start
// point, and a line-search trial CG rejected from there with the Armijo
// limit it was valued against.
type levelBench struct {
	name  string
	s     *levelSolver
	v     []float64
	trial []float64
	limit float64
}

// levelBenches builds sb-a's global-placement problem the way the placer
// does before its first level — lowered, quadratic-initialized and
// clustered — and returns level solvers at the finest and at the coarsest
// level for the given worker count.
func levelBenches(tb testing.TB, workers int) []levelBench {
	return designLevels(tb, gen.MustGenerate(gen.Suite()[0]), workers, levelPick{"level0", 0}, levelPick{"coarsest", -1})
}

// levelPick names one level of a clustering hierarchy; a negative level
// counts from the coarsest, -1 being the coarsest itself.
type levelPick struct {
	name string
	l    int
}

// designLevels is levelBenches for design d and the picked levels.
func designLevels(tb testing.TB, d *db.Design, workers int, picks ...levelPick) []levelBench {
	tb.Helper()
	cfg := Config{Workers: workers}.withDefaults()
	target := math.Min(1, d.Utilization()*1.15+0.05)
	prob, _ := lower(d)
	fixed := fixedRects(d)
	staggerCoincident(prob, d.Die)
	quadInit(prob, d.Die)
	staggerCoincident(prob, d.Die)
	hier := cluster.Build(prob, cluster.Options{MinObjs: clusterMinObjs})
	var out []levelBench
	for _, lv := range picks {
		if lv.l < 0 {
			lv.l += len(hier.Levels)
		}
		p := hier.Levels[lv.l]
		s := newLevelSolver(cfg, p, d.Die, fixed, d.Regions, target, d.RowHeight())
		n := p.NumObjs()
		v := make([]float64, 2*n)
		copy(v[:n], p.X)
		copy(v[n:], p.Y)
		s.project(v)
		s.initWeights(v)
		lb := levelBench{name: lv.name, s: s, v: v}
		lb.recordRejected(tb)
		out = append(out, lb)
	}
	return out
}

// recordRejected runs CG from the start point with the first λ round's
// options and keeps its first rejected trial and that trial's limit.
func (lb *levelBench) recordRejected(tb testing.TB) {
	tb.Helper()
	rec := &trialRecorder{s: lb.s}
	step := (lb.s.grid.BinW + lb.s.grid.BinH) / 2
	nlopt.CG(rec, append([]float64(nil), lb.v...), nlopt.Options{
		MaxIter: gpIterPerRound, GradTol: 1e-9, RelTol: 1e-4,
		StepInit: step, Project: lb.s.project,
		Stop: func() bool { return rec.trial != nil },
	})
	if rec.trial == nil {
		tb.Fatalf("%s: CG rejected no trial", lb.name)
	}
	lb.trial, lb.limit = rec.trial, rec.limit
}

// trialRecorder values every point in full and keeps the first one
// valued above its limit.
type trialRecorder struct {
	s     *levelSolver
	trial []float64
	limit float64
}

func (r *trialRecorder) Value(v []float64, limit float64) float64 {
	f := r.s.Value(v, math.Inf(1))
	if f > limit && r.trial == nil {
		r.trial = append([]float64(nil), v...)
		r.limit = limit
	}
	return f
}

func (r *trialRecorder) Gradient(grad []float64) { r.s.Gradient(grad) }

// benchWorkers are the worker counts the level benchmarks run at; a
// case at two workers carries the suffix "-w2".
var benchWorkers = []struct {
	workers int
	suffix  string
}{{1, ""}, {2, "-w2"}}

// BenchmarkLevelValue times one objective value (WA wirelength, density
// penalty and fence term) on sb-a, the CG line search's unit of work: at
// the start point, and at a recorded rejected trial both in full
// ("-trial") and against its Armijo limit ("-rejected"), at one and two
// workers.
func BenchmarkLevelValue(b *testing.B) {
	for _, bw := range benchWorkers {
		for _, lb := range levelBenches(b, bw.workers) {
			name := lb.name + bw.suffix
			for _, c := range []struct {
				name  string
				v     []float64
				limit float64
			}{
				{name, lb.v, math.Inf(1)},
				{name + "-trial", lb.trial, math.Inf(1)},
				{name + "-rejected", lb.trial, lb.limit},
			} {
				b.Run(c.name, func(b *testing.B) {
					b.ReportAllocs()
					for b.Loop() {
						lb.s.Value(c.v, c.limit)
					}
				})
			}
		}
	}
}

// BenchmarkLevelGradient times one gradient at the point of the last
// value evaluation, the other half of a CG iteration, at one and two
// workers.
func BenchmarkLevelGradient(b *testing.B) {
	for _, bw := range benchWorkers {
		for _, lb := range levelBenches(b, bw.workers) {
			b.Run(lb.name+bw.suffix, func(b *testing.B) {
				grad := make([]float64, len(lb.v))
				lb.s.Value(lb.v, math.Inf(1))
				b.ReportAllocs()
				for b.Loop() {
					clear(grad)
					lb.s.Gradient(grad)
				}
			})
		}
	}
}
