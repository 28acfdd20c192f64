package core

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/gen"
)

// levelBench is a level solver with λ and μ initialized, and its start
// point.
type levelBench struct {
	name string
	s    *levelSolver
	v    []float64
}

// levelBenches builds sb-a's global-placement problem the way the placer
// does before its first level — lowered, quadratic-initialized and
// clustered — and returns serial level solvers at the finest and at the
// coarsest level.
func levelBenches(b *testing.B) []levelBench {
	b.Helper()
	var gcfg gen.Config
	for _, c := range gen.Suite() {
		if c.Name == "sb-a" {
			gcfg = c
		}
	}
	d := gen.MustGenerate(gcfg)
	cfg := Config{Workers: 1}.withDefaults()
	target := math.Min(1, d.Utilization()*1.15+0.05)
	prob, _ := lower(d)
	fixed := fixedRects(d)
	staggerCoincident(prob, d.Die)
	quadInit(prob, d.Die)
	staggerCoincident(prob, d.Die)
	hier := cluster.Build(prob, cluster.Options{MinObjs: cfg.ClusterMinObjs})
	var out []levelBench
	for _, lv := range []struct {
		name string
		l    int
	}{{"level0", 0}, {"coarsest", len(hier.Levels) - 1}} {
		p := hier.Levels[lv.l]
		s := newLevelSolver(cfg, p, d.Die, fixed, d.Regions, target, d.RowHeight())
		n := p.NumObjs()
		v := make([]float64, 2*n)
		copy(v[:n], p.X)
		copy(v[n:], p.Y)
		s.project(v)
		s.initWeights(v)
		out = append(out, levelBench{lv.name, s, v})
	}
	return out
}

// BenchmarkLevelValue times one objective value (WA wirelength, density
// penalty and fence term) on sb-a, the CG line search's unit of work.
func BenchmarkLevelValue(b *testing.B) {
	for _, lb := range levelBenches(b) {
		b.Run(lb.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				lb.s.Value(lb.v)
			}
		})
	}
}

// BenchmarkLevelGradient times one gradient at the point of the last
// value evaluation, the other half of a CG iteration.
func BenchmarkLevelGradient(b *testing.B) {
	for _, lb := range levelBenches(b) {
		b.Run(lb.name, func(b *testing.B) {
			grad := make([]float64, len(lb.v))
			lb.s.Value(lb.v)
			b.ReportAllocs()
			for b.Loop() {
				clear(grad)
				lb.s.Gradient(grad)
			}
		})
	}
}
