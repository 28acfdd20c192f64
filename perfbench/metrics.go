package main

import (
	"math"
	"sort"
	"syscall"
)

// metricSpec names one reported metric and its unit; the lists mirror
// BENCHMARK.json's end_to_end and per_layer sections.
type metricSpec struct{ name, unit string }

var endToEnd = []metricSpec{
	{"place_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"hpwl", "dbu"},
	{"shpwl", "dbu"},
	{"rc", "%"},
	{"success_frac", "ratio"},
	{"delta_p50_ms", "ms"},
}

var perLayer = []metricSpec{
	{"run.cpu_s", "s"},
	{"bookshelf.read_s", "s"},
	{"cluster.coarsen_s", "s"},
	{"cluster.levels", "count"},
	{"core.gp_s", "s"},
	{"core.gp_level0_s", "s"},
	{"core.gp_cg_iters", "count"},
	{"core.gp_lambda_rounds", "count"},
	{"core.gp_ms_per_cg_iter", "ms"},
	{"core.gp_alloc_mb", "MB"},
	{"core.gp_gc_cycles", "count"},
	{"core.respread_s", "s"},
	{"core.respread_cg_iters", "count"},
	{"core.inflated_cells", "count"},
	{"route.s", "s"},
	{"route.rounds", "count"},
	{"route.rerouted_segments", "count"},
	{"route.evaluate_s", "s"},
	{"estimate.recompute_ms", "ms"},
	{"estimate.rounds", "count"},
	{"legal.s", "s"},
	{"legal.placed", "count"},
	{"legal.fallbacks", "count"},
	{"dp.s", "s"},
	{"dp.trials", "count"},
	{"dp.us_per_trial", "us"},
	{"dp.accept_ratio", "ratio"},
	{"eco.delta_p90_ms", "ms"},
	{"eco.diff_ms_p50", "ms"},
	{"eco.legal_ms_p50", "ms"},
	{"eco.dp_ms_p50", "ms"},
	{"eco.changed_cells", "count"},
	{"eco.windows", "count"},
	{"eco.repaired_cells", "count"},
	{"eco.reuse_ratio", "ratio"},
	{"eco.base_hpwl", "dbu"},
	{"trace.overhead_s", "s"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *runner) result(m *measurement) *result {
	specs, vals := endToEnd, map[string]float64{}
	if r.trace {
		specs = perLayer
		if m.layers != nil {
			vals = m.layers
		}
		vals["run.cpu_s"] = median(m.cpus)
		vals["bookshelf.read_s"] = m.readS
		vals["route.evaluate_s"] = median(m.evalS)
		vals["trace.overhead_s"] = median(m.tracedWalls) - median(m.walls)
		if r.w.eco != nil {
			vals["eco.delta_p90_ms"] = percentile(m.latMS, 0.9)
		}
	} else {
		vals["place_s"] = median(m.walls)
		vals["setup_s"] = m.setupS
		vals["peak_rss_mb"] = peakRSSMB()
		vals["hpwl"] = m.hpwl
		vals["shpwl"] = m.shpwl
		vals["rc"] = m.rc
		vals["success_frac"] = float64(r.attempted-r.failed) / float64(r.attempted)
		vals["delta_p50_ms"] = median(m.latMS)
	}
	out := &result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricValue, len(specs)),
	}
	for _, s := range specs {
		out.Metrics[s.name] = metricValue{Value: vals[s.name], Unit: s.unit}
	}
	return out
}

// median is the middle value of xs, or the mean of the middle two; 0 when
// xs is empty.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-quantile of xs: at p=0.9 over 100
// samples, 10 lie above it. Empty input yields 0.
func percentile(xs []float64, p float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return 0
	}
	k := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(k, 0)]
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// peakRSSMB is the process's peak resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
