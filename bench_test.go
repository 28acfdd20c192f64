// Benchmark harness: every table and figure of the reconstructed
// evaluation (see DESIGN.md §4 and EXPERIMENTS.md) is regenerated by one
// benchmark below. The benchmarks print their table rows and series to
// stdout, so `go test -bench=. -benchmem | tee bench_output.txt` produces
// both timing data and the full reproduction log in one pass.
//
// Table/figure mapping:
//
//	T1  BenchmarkTable1_BenchmarkStats      benchmark statistics
//	T2  BenchmarkTable2_MainFlow            main result: full flow vs WL-driven baseline
//	T3  BenchmarkTable3_WAvsLSE             wirelength-model ablation
//	T4  BenchmarkTable4_FenceVsFlat         hierarchy handling
//	T5  BenchmarkTable5_Multilevel          multilevel ablation
//	F6  BenchmarkFigure6_CongestionProfile  ACE per routability iteration
//	F7  BenchmarkFigure7_Convergence        GP convergence, WA vs LSE
//	F8  BenchmarkFigure8_DensitySweep       sHPWL vs target density
//	F9  BenchmarkFigure9_Scaling            runtime vs design size
//	T10 BenchmarkTable10_Inflation          inflation-cap ablation
package repro

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/gen"
	"repro/internal/metrics"
	"repro/internal/route"
)

// benchSuite is the subset of the suite used by the per-variant tables;
// the largest two members appear in T1 and F9 so the whole suite is still
// exercised without making every table take an hour.
func benchSuite() []gen.Config { return gen.Suite()[:3] }

// placeAndScore runs one variant on one design and returns its row.
func placeAndScore(b *testing.B, cfg gen.Config, variant string, pc core.Config) metrics.Row {
	b.Helper()
	d := gen.MustGenerate(cfg)
	t0 := time.Now()
	res, err := core.MustNew(pc).Place(d)
	if err != nil {
		b.Fatalf("%s/%s: %v", cfg.Name, variant, err)
	}
	total := time.Since(t0)
	row := metrics.Row{
		Design: cfg.Name, Variant: variant,
		HPWL: res.HPWLFinal, Overflow: res.Overflow,
		Overlaps: res.Overlaps, FenceViol: res.FenceViolations,
		GPSeconds: res.GPTime.Seconds(), TotalSeconds: total.Seconds(),
	}
	if d.Route != nil {
		m, err := route.EvaluateDesign(d, route.RouterOptions{})
		if err != nil {
			b.Fatalf("%s/%s evaluate: %v", cfg.Name, variant, err)
		}
		row.ScaledHPWL = m.ScaledHPWL
		row.RC = m.RC
		row.ACE = m.ACE
	}
	return row
}

// BenchmarkTable1_BenchmarkStats regenerates Table 1: the benchmark suite
// statistics (cells, nets, macros, fences, utilization).
func BenchmarkTable1_BenchmarkStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := make([]string, 0, 5)
		for _, cfg := range gen.Suite() {
			d := gen.MustGenerate(cfg)
			rows = append(rows, d.ComputeStats().TableRow())
		}
		if i == 0 {
			fmt.Println("\n=== Table 1: benchmark statistics ===")
			fmt.Println(db.StatsTableHeader())
			for _, r := range rows {
				fmt.Println(r)
			}
		}
	}
}

// BenchmarkTable2_MainFlow regenerates Table 2: the headline comparison of
// the full routability-driven flow against the wirelength-driven baseline
// (tight density, no congestion feedback) on the benchmark suite.
func BenchmarkTable2_MainFlow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb := metrics.Table{Title: "Table 2: full flow vs WL-driven baseline"}
		for _, cfg := range benchSuite() {
			tb.Add(placeAndScore(b, cfg, "ntuplace4h", core.Config{}))
		}
		for _, cfg := range benchSuite() {
			tb.Add(placeAndScore(b, cfg, "wl-driven", core.Config{
				DisableRoutability: true, TargetDensity: 1.0,
			}))
		}
		if i == 0 {
			fmt.Println()
			fmt.Print(tb.String())
		}
	}
}

// BenchmarkTable3_WAvsLSE regenerates Table 3: the weighted-average vs
// log-sum-exp wirelength-model ablation under an otherwise identical flow.
func BenchmarkTable3_WAvsLSE(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb := metrics.Table{Title: "Table 3: WA vs LSE wirelength model"}
		for _, model := range []string{"wa", "lse"} {
			for _, cfg := range benchSuite() {
				tb.Add(placeAndScore(b, cfg, model, core.Config{
					Model: model, DisableRoutability: true,
				}))
			}
		}
		if i == 0 {
			fmt.Println()
			fmt.Print(tb.String())
		}
	}
}

// BenchmarkTable4_FenceVsFlat regenerates Table 4: hierarchy-aware
// placement vs flat placement with fences stripped. The flat rows report,
// in the fence column, how many cells sit outside the regions the
// hierarchy would have required (measured against a reference design).
func BenchmarkTable4_FenceVsFlat(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb := metrics.Table{Title: "Table 4: hierarchy-aware vs flat"}
		for _, cfg := range benchSuite() {
			tb.Add(placeAndScore(b, cfg, "fence-aware", core.Config{DisableRoutability: true}))
		}
		for _, cfg := range benchSuite() {
			ref := gen.MustGenerate(cfg)
			d := gen.MustGenerate(cfg)
			t0 := time.Now()
			res, err := core.MustNew(core.Config{DisableRoutability: true, DisableFences: true}).Place(d)
			if err != nil {
				b.Fatal(err)
			}
			would := 0
			for ci := range d.Cells {
				if !d.Cells[ci].Movable() {
					continue
				}
				rg := ref.CellRegion(ci)
				if rg != db.NoRegion && !ref.Regions[rg].Contains(d.Cells[ci].Rect()) {
					would++
				}
			}
			m, err := route.EvaluateDesign(d, route.RouterOptions{})
			if err != nil {
				b.Fatal(err)
			}
			tb.Add(metrics.Row{
				Design: cfg.Name, Variant: "flat",
				HPWL: res.HPWLFinal, ScaledHPWL: m.ScaledHPWL, RC: m.RC, ACE: m.ACE,
				Overflow: res.Overflow,
				Overlaps: res.Overlaps, FenceViol: would,
				GPSeconds: res.GPTime.Seconds(), TotalSeconds: time.Since(t0).Seconds(),
			})
		}
		if i == 0 {
			fmt.Println()
			fmt.Print(tb.String())
			fmt.Println("(flat rows: fence column counts cells outside their module's region)")
		}
	}
}

// BenchmarkTable5_Multilevel regenerates Table 5: multilevel vs
// single-level global placement.
func BenchmarkTable5_Multilevel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb := metrics.Table{Title: "Table 5: multilevel vs single-level GP"}
		for _, cfg := range benchSuite() {
			tb.Add(placeAndScore(b, cfg, "multilevel", core.Config{DisableRoutability: true}))
		}
		for _, cfg := range benchSuite() {
			tb.Add(placeAndScore(b, cfg, "single-level", core.Config{
				DisableRoutability: true, DisableMultilevel: true,
			}))
		}
		if i == 0 {
			fmt.Println()
			fmt.Print(tb.String())
		}
	}
}

// BenchmarkFigure6_CongestionProfile regenerates Figure 6: the routed ACE
// congestion profile across routability-loop iterations on a
// congestion-prone design (series rows: iteration vs ACE percentile
// values).
func BenchmarkFigure6_CongestionProfile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d := gen.MustGenerate(gen.Congested(1500, 11))
		res, err := core.MustNew(core.Config{RoutabilityIters: 4}).Place(d)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println("\n=== Figure 6: ACE profile per routability iteration ===")
			fmt.Printf("%-5s %10s %10s %10s %10s %9s\n", "iter", "ACE0.5", "ACE1", "ACE2", "ACE5", "inflated")
			for k, c := range res.Cong {
				fmt.Printf("%-5d %10.3f %10.3f %10.3f %10.3f %9d\n",
					k, c.ACE[0], c.ACE[1], c.ACE[2], c.ACE[3], c.Inflated)
			}
		}
	}
}

// BenchmarkFigure7_Convergence regenerates Figure 7: the level-0 global
// placement convergence trace (objective and HPWL vs CG iteration) for the
// WA and LSE models.
func BenchmarkFigure7_Convergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var series []*metrics.Series
		for _, model := range []string{"wa", "lse"} {
			tr := &core.Trace{}
			d := gen.MustGenerate(benchSuite()[0])
			if _, err := core.MustNew(core.Config{
				Model: model, DisableRoutability: true, Trace: tr,
			}).Place(d); err != nil {
				b.Fatal(err)
			}
			s := &metrics.Series{Name: "hpwl-" + model}
			for k := 0; k < len(tr.Iter); k += 10 {
				s.Add(float64(tr.Iter[k]), tr.HPWL[k])
			}
			series = append(series, s)
		}
		if i == 0 {
			fmt.Println("\n=== Figure 7: GP convergence (HPWL vs iteration, sampled every 10) ===")
			for _, s := range series {
				fmt.Print(s.String())
			}
		}
	}
}

// BenchmarkFigure8_DensitySweep regenerates Figure 8: final scaled HPWL,
// HPWL and RC as functions of the target density on congestion-prone
// designs. Each point is the geometric mean over three seeds — individual
// routed-RC values are noisy enough to hide the trend otherwise.
func BenchmarkFigure8_DensitySweep(b *testing.B) {
	targets := []float64{0.75, 0.8, 0.85, 0.9, 0.95, 1.0}
	seeds := []int64{5, 13, 29}
	for i := 0; i < b.N; i++ {
		s := &metrics.Series{Name: "shpwl-vs-density"}
		h := &metrics.Series{Name: "hpwl-vs-density"}
		r := &metrics.Series{Name: "rc-vs-density"}
		for _, t := range targets {
			var sh, hp, rc []float64
			for _, seed := range seeds {
				d := gen.MustGenerate(gen.Congested(1200, seed))
				if _, err := core.MustNew(core.Config{
					TargetDensity: t, DisableRoutability: true,
				}).Place(d); err != nil {
					b.Fatal(err)
				}
				m, err := route.EvaluateDesign(d, route.RouterOptions{})
				if err != nil {
					b.Fatal(err)
				}
				sh = append(sh, m.ScaledHPWL)
				hp = append(hp, m.HPWL)
				rc = append(rc, m.RC)
			}
			s.Add(t, metrics.GeoMean(sh))
			h.Add(t, metrics.GeoMean(hp))
			r.Add(t, metrics.GeoMean(rc))
		}
		if i == 0 {
			fmt.Println("\n=== Figure 8: sHPWL / HPWL / RC vs target density (geomean of 3 seeds) ===")
			fmt.Print(s.String())
			fmt.Print(h.String())
			fmt.Print(r.String())
		}
	}
}

// BenchmarkFigure9_Scaling regenerates Figure 9: total flow runtime versus
// design size (the full suite, including the largest members).
func BenchmarkFigure9_Scaling(b *testing.B) {
	sizes := []int{1000, 2000, 5000, 10000, 20000}
	for i := 0; i < b.N; i++ {
		s := &metrics.Series{Name: "seconds-vs-cells"}
		w := &metrics.Series{Name: "hpwl-vs-cells"}
		for _, n := range sizes {
			cfg := gen.Config{
				Name: fmt.Sprintf("scale-%d", n), Seed: int64(n),
				NumStdCells: n, NumFixedMacros: 4, NumMovableMacros: 2,
				NumModules: 6, NumFences: 3, NumTerminals: 32,
				TargetUtil: 0.7, LocalityWindow: 100 / float64(n), GlobalFrac: 100 / float64(n),
			}
			d := gen.MustGenerate(cfg)
			t0 := time.Now()
			res, err := core.MustNew(core.Config{DisableRoutability: true}).Place(d)
			if err != nil {
				b.Fatal(err)
			}
			s.Add(float64(n), time.Since(t0).Seconds())
			w.Add(float64(n), res.HPWLFinal)
		}
		if i == 0 {
			fmt.Println("\n=== Figure 9: runtime scaling ===")
			fmt.Print(s.String())
			fmt.Print(w.String())
		}
	}
}

// BenchmarkTable10_Inflation regenerates Table 10: the inflation-cap
// ablation — how the maximum per-cell inflation ratio trades HPWL against
// RC on a congested design (1.0 disables inflation entirely).
func BenchmarkTable10_Inflation(b *testing.B) {
	caps := []float64{1.0, 1.5, 2.2, 3.0}
	for i := 0; i < b.N; i++ {
		tb := metrics.Table{Title: "Table 10: inflation cap ablation"}
		for _, c := range caps {
			cfg := core.Config{RoutabilityIters: 3, InflateMax: c}
			if c <= 1.0 {
				cfg = core.Config{DisableRoutability: true}
			}
			d := gen.MustGenerate(gen.Congested(1200, 17))
			t0 := time.Now()
			res, err := core.MustNew(cfg).Place(d)
			if err != nil {
				b.Fatal(err)
			}
			m, err := route.EvaluateDesign(d, route.RouterOptions{})
			if err != nil {
				b.Fatal(err)
			}
			tb.Add(metrics.Row{
				Design: "congested", Variant: fmt.Sprintf("inflate<=%.1f", c),
				HPWL: m.HPWL, ScaledHPWL: m.ScaledHPWL, RC: m.RC, ACE: m.ACE,
				Overflow: res.Overflow, Overlaps: res.Overlaps,
				FenceViol: res.FenceViolations,
				GPSeconds: res.GPTime.Seconds(), TotalSeconds: time.Since(t0).Seconds(),
			})
		}
		if i == 0 {
			fmt.Println()
			fmt.Print(tb.String())
		}
	}
}

// BenchmarkTable11_ChannelDerate regenerates Table 11: the narrow-channel
// derating ablation. Derating is evaluated at a tight target density
// (where it keeps cells out of nearly-unroutable macro channels) and at
// the default generous density (where the dynamic loop subsumes it).
func BenchmarkTable11_ChannelDerate(b *testing.B) {
	type variant struct {
		name string
		cfg  core.Config
	}
	variants := []variant{
		{"tight", core.Config{DisableRoutability: true, TargetDensity: 1.0}},
		{"tight+derate", core.Config{DisableRoutability: true, TargetDensity: 1.0, EnableChannelDerate: true}},
		{"auto", core.Config{DisableRoutability: true}},
		{"auto+derate", core.Config{DisableRoutability: true, EnableChannelDerate: true}},
	}
	for i := 0; i < b.N; i++ {
		tb := metrics.Table{Title: "Table 11: narrow-channel derating ablation"}
		for _, v := range variants {
			d := gen.MustGenerate(gen.Congested(1200, 17))
			t0 := time.Now()
			res, err := core.MustNew(v.cfg).Place(d)
			if err != nil {
				b.Fatal(err)
			}
			m, err := route.EvaluateDesign(d, route.RouterOptions{})
			if err != nil {
				b.Fatal(err)
			}
			tb.Add(metrics.Row{
				Design: "congested", Variant: v.name,
				HPWL: m.HPWL, ScaledHPWL: m.ScaledHPWL, RC: m.RC, ACE: m.ACE,
				Overflow: res.Overflow, Overlaps: res.Overlaps,
				FenceViol: res.FenceViolations,
				GPSeconds: res.GPTime.Seconds(), TotalSeconds: time.Since(t0).Seconds(),
			})
		}
		if i == 0 {
			fmt.Println()
			fmt.Print(tb.String())
		}
	}
}
