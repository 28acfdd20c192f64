package main

import (
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/gen"
)

// tinyWorkloads mirror the real workloads' shapes on a mixed-size design
// with fences that is small enough to place in about a second.
func tinyWorkloads() []workload {
	small := gen.Config{
		Name: "tiny", Seed: 7, NumStdCells: 500,
		NumFixedMacros: 2, NumMovableMacros: 1, MacroSizeRows: 4,
		NumModules: 3, NumFences: 2, NumTerminals: 24,
		TargetUtil: 0.58, TrackCapacity: 12,
	}
	return []workload{
		{name: "tiny-flow", workers: 1, design: small},
		{
			name: "tiny-estimate", workers: 2, design: small,
			config: core.Config{CongestionSource: "estimate", RoutabilityIters: 4},
		},
		{
			name: "tiny-eco", workers: 1, design: small,
			eco: &ecoSpec{deltas: 4, removeFrac: 0.01, addFrac: 0.01, rewireFrac: 0.005, evalEvery: 2},
		},
	}
}

func runTiny(t *testing.T, w workload, trace bool) *result {
	t.Helper()
	r := &runner{w: w, seed: 1, trace: trace, dir: t.TempDir(), log: io.Discard}
	res, err := r.run()
	if err != nil {
		t.Fatalf("%s trace=%v: %v", w.name, trace, err)
	}
	return res
}

// TestSpecsMatchBenchmarkJSON pins the metric names, units and workload
// names the binary prints to the ones BENCHMARK.json declares.
func TestSpecsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, w := range spec.Workloads {
		declared = append(declared, w.Name)
	}
	if got, want := strings.Join(workloadNames(), ","), strings.Join(declared, ","); got != want {
		t.Errorf("workloads: binary has %s, BENCHMARK.json %s", got, want)
	}
	for _, c := range []struct {
		section  string
		declared []struct{ Name, Unit string }
		specs    []metricSpec
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.declared) != len(c.specs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, binary %d", c.section, len(c.declared), len(c.specs))
			continue
		}
		for i, d := range c.declared {
			if s := c.specs[i]; s.name != d.Name || s.unit != d.Unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), binary %s (%s)", c.section, i, d.Name, d.Unit, s.name, s.unit)
			}
		}
	}
}

// TestEveryMetricPrintsWithUnit runs each tiny workload untraced and
// traced and checks the result carries exactly the declared metrics,
// each with its unit, and no failures.
func TestEveryMetricPrintsWithUnit(t *testing.T) {
	for _, w := range tinyWorkloads() {
		for _, trace := range []bool{false, true} {
			res := runTiny(t, w, trace)
			specs := endToEnd
			if trace {
				specs = perLayer
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(specs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(res.Metrics), len(specs))
			}
			for _, s := range specs {
				m, ok := res.Metrics[s.name]
				if !ok || m.Unit != s.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.name, trace, s.name, m, s.unit)
				}
			}
			if !trace {
				for _, name := range []string{"place_s", "setup_s", "peak_rss_mb", "hpwl", "shpwl", "rc", "success_frac", "delta_p50_ms"} {
					if res.Metrics[name].Value <= 0 {
						t.Errorf("%s: %s = %v, want > 0", w.name, name, res.Metrics[name].Value)
					}
				}
			}
		}
	}
}

// TestECOTracedRunDoesNoGlobalPlacement checks the bypass prediction the
// eco workload exists for: its timed phase never enters GP.
func TestECOTracedRunDoesNoGlobalPlacement(t *testing.T) {
	res := runTiny(t, tinyWorkloads()[2], true)
	for name, m := range res.Metrics {
		if strings.HasPrefix(name, "core.gp_") && m.Value != 0 {
			t.Errorf("%s = %v on the eco stream, want 0", name, m.Value)
		}
	}
	for _, name := range []string{"eco.changed_cells", "eco.windows", "eco.diff_ms_p50", "eco.delta_p90_ms", "dp.trials", "eco.base_hpwl"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, res.Metrics[name].Value)
		}
	}
}

// TestIllegalPlacementCountsAsFailure feeds the runner's checks a placed
// design with two cells stacked, and one whose .pl differs from the first
// result for the same input: both must count against success_frac.
func TestIllegalPlacementCountsAsFailure(t *testing.T) {
	w := tinyWorkloads()[0]
	r := &runner{w: w, log: io.Discard, hashes: map[int]string{}}
	d := gen.MustGenerate(w.design)
	pl, err := r.placer(nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pl.Place(d)
	if err != nil {
		t.Fatal(err)
	}
	r.record("legal", r.check(0, d, res.Legal.Fallbacks))
	if r.failed != 0 {
		t.Fatalf("a legal placement failed the checks")
	}

	a, b := -1, -1
	for i := range d.Cells {
		if c := &d.Cells[i]; c.Movable() && c.Kind == db.StdCell {
			if a < 0 {
				a = i
			} else {
				b = i
				break
			}
		}
	}
	d.Cells[b].Pos = d.Cells[a].Pos
	probs := r.check(0, d, 0)
	r.record("stacked", probs)
	if len(probs) < 2 || !strings.Contains(strings.Join(probs, ";"), "overlap") {
		t.Errorf("stacked cells: problems %q, want an overlap and a .pl hash mismatch", probs)
	}
	r.record("fallback", r.check(1, d, 3))
	out := r.result(&measurement{})
	if out.Correct || out.Failed != 2 || out.Attempted != 3 {
		t.Errorf("result correct=%v failed=%d attempted=%d, want false/2/3", out.Correct, out.Failed, out.Attempted)
	}
	if got := out.Metrics["success_frac"].Value; got != 1.0/3 {
		t.Errorf("success_frac = %v, want 1/3", got)
	}
}

// TestDeterministicMetricsRepeat runs each tiny workload twice: quality
// metrics and work counters must agree exactly.
func TestDeterministicMetricsRepeat(t *testing.T) {
	exact := map[bool][]string{
		false: {"hpwl", "shpwl", "rc", "success_frac"},
		true: {"cluster.levels", "core.gp_cg_iters", "core.gp_lambda_rounds", "core.respread_cg_iters",
			"core.inflated_cells", "route.rounds", "route.rerouted_segments", "estimate.rounds",
			"legal.placed", "legal.fallbacks", "dp.trials", "dp.accept_ratio",
			"eco.changed_cells", "eco.windows", "eco.repaired_cells", "eco.reuse_ratio", "eco.base_hpwl"},
	}
	for _, w := range tinyWorkloads() {
		for trace, names := range exact {
			a, b := runTiny(t, w, trace), runTiny(t, w, trace)
			for _, n := range names {
				if a.Metrics[n] != b.Metrics[n] {
					t.Errorf("%s %s: %v then %v", w.name, n, a.Metrics[n].Value, b.Metrics[n].Value)
				}
			}
		}
	}
}
