package main

import (
	"time"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/estimate"
	"repro/internal/obs"
	"repro/internal/route"
)

// spanLayers reads the per-layer numbers a traced operation's span tree
// and routing trace carry. Resource numbers (allocation, GC cycles) come
// from the spans' runtime/metrics deltas; CPU time never does, because
// the runtime's CPU total counts idle Ps.
func spanLayers(rec *obs.Recorder) map[string]float64 {
	l := map[string]float64{}
	spans := rec.BuildReport().Spans
	for _, s := range spans {
		switch s.Name {
		case "coarsen":
			l["cluster.coarsen_s"] += spanS(s)
			l["cluster.levels"] += float64(s.Counters["levels"])
		case "gp":
			l["core.gp_s"] += spanS(s)
			for _, lv := range s.Children {
				l["core.gp_cg_iters"] += float64(lv.Counters["cg_iters"])
				l["core.gp_lambda_rounds"] += float64(lv.Counters["lambda_rounds"])
				if lv.Name == "level-0" {
					l["core.gp_level0_s"] += spanS(lv)
				}
			}
			if s.Resources != nil {
				l["core.gp_alloc_mb"] += float64(s.Resources.AllocBytes) / (1 << 20)
				l["core.gp_gc_cycles"] += float64(s.Resources.GCCycles)
			}
		case "routability":
			l["estimate.rounds"] += float64(s.Counters["estimate_rounds"])
			for _, it := range s.Children {
				l["core.inflated_cells"] += float64(it.Counters["inflated"])
				for _, c := range it.Children {
					if c.Name != "respread" {
						continue
					}
					l["core.respread_s"] += spanS(c)
					for _, round := range c.Children {
						l["core.respread_cg_iters"] += float64(round.Counters["cg_iters"])
					}
				}
			}
		}
	}
	if it := l["core.gp_cg_iters"]; it > 0 {
		l["core.gp_ms_per_cg_iter"] = l["core.gp_s"] * 1e3 / it
	}
	l["route.s"] = namedSpanS(spans, "route")
	for _, rr := range rec.RouteRounds() {
		l["route.rounds"]++
		if rr.Round > 0 {
			l["route.rerouted_segments"] += float64(rr.Rerouted)
		}
	}
	return l
}

// addFlowLayers adds the legalization and detailed-placement numbers of
// one full-flow result.
func addFlowLayers(l map[string]float64, res core.Result) {
	dp := res.DP
	addLegalDP(l, res.LegalTime.Seconds(), res.Legal.Placed, res.Legal.Fallbacks,
		res.DPTime.Seconds(), dp.Trials, dp.Swaps+dp.Reorders+dp.Shifts)
}

func addLegalDP(l map[string]float64, legalS float64, placed, fallbacks int, dpS float64, trials, moves int) {
	l["legal.s"] = legalS
	l["legal.placed"] = float64(placed)
	l["legal.fallbacks"] = float64(fallbacks)
	l["dp.s"] = dpS
	l["dp.trials"] = float64(trials)
	if trials > 0 {
		l["dp.us_per_trial"] = dpS * 1e6 / float64(trials)
		l["dp.accept_ratio"] = float64(moves) / float64(trials)
	}
}

func spanS(s *obs.SpanRecord) float64 { return s.DurMS / 1e3 }

// namedSpanS sums the durations of every span called name in the forest.
func namedSpanS(spans []*obs.SpanRecord, name string) float64 {
	var total float64
	for _, s := range spans {
		if s.Name == name {
			total += spanS(s)
		}
		total += namedSpanS(s.Children, name)
	}
	return total
}

// recomputeMS times a full congestion-estimate recompute of d from
// outside the flow: the median of setupReps calls on one estimator.
func recomputeMS(d *db.Design, workers int) float64 {
	g, err := route.NewGrid(d)
	if err != nil {
		return 0
	}
	est := estimate.New(g, estimate.Options{Workers: workers})
	ms := make([]float64, 0, setupReps)
	for k := 0; k < setupReps; k++ {
		t0 := time.Now()
		est.Recompute(d)
		ms = append(ms, time.Since(t0).Seconds()*1e3)
	}
	return median(ms)
}
