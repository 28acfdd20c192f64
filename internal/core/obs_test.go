package core

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/route"
)

// TestTelemetryDoesNotPerturbResults pins the observation-only contract
// of internal/obs: the full flow (placement + routed evaluation) must be
// byte-identical with telemetry off and with the most intrusive telemetry
// configuration (trace + heatmap capture), at any worker count.
func TestTelemetryDoesNotPerturbResults(t *testing.T) {
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			place := func(rec *obs.Recorder) (*resultSnapshot, *obs.Recorder) {
				d := gen.MustGenerate(smallCfg())
				if _, err := MustNew(Config{Workers: workers, Obs: rec}).Place(d); err != nil {
					t.Fatal(err)
				}
				m, err := route.EvaluateDesign(d, route.RouterOptions{Workers: workers, Obs: rec})
				if err != nil {
					t.Fatal(err)
				}
				snap := &resultSnapshot{metrics: m}
				for i := range d.Cells {
					snap.pos = append(snap.pos, [2]float64{d.Cells[i].Pos.X, d.Cells[i].Pos.Y})
					snap.orient = append(snap.orient, int(d.Cells[i].Orient))
				}
				return snap, rec
			}

			off, _ := place(nil)
			on, rec := place(obs.New(obs.Config{CaptureHeatmaps: true}))

			for i := range off.pos {
				if off.pos[i] != on.pos[i] || off.orient[i] != on.orient[i] {
					t.Fatalf("cell %d differs with telemetry on: %v/%d vs %v/%d",
						i, off.pos[i], off.orient[i], on.pos[i], on.orient[i])
				}
			}
			if off.metrics.HPWL != on.metrics.HPWL ||
				off.metrics.RC != on.metrics.RC ||
				off.metrics.ScaledHPWL != on.metrics.ScaledHPWL ||
				off.metrics.Overflow != on.metrics.Overflow ||
				off.metrics.RoutedTiles != on.metrics.RoutedTiles {
				t.Fatalf("routed metrics differ with telemetry on: %+v vs %+v", off.metrics, on.metrics)
			}
			for i := range off.metrics.ACE {
				if off.metrics.ACE[i] != on.metrics.ACE[i] {
					t.Fatalf("ACE[%d] differs with telemetry on: %v vs %v",
						i, off.metrics.ACE[i], on.metrics.ACE[i])
				}
			}
			// The enabled run must actually have recorded something, or the
			// comparison above proves nothing.
			if len(rec.GPRounds()) == 0 || len(rec.RouteRounds()) == 0 || len(rec.Heatmaps()) == 0 {
				t.Fatalf("telemetry run recorded nothing: gp=%d route=%d heat=%d",
					len(rec.GPRounds()), len(rec.RouteRounds()), len(rec.Heatmaps()))
			}
		})
	}
}

type resultSnapshot struct {
	pos     [][2]float64
	orient  []int
	metrics route.Metrics
}

// TestValueEvalsReported checks the line-search cost counters: every GP
// round and level span carries value_evals next to cg_iters, each CG run
// values its start point plus at least one trial per iteration that
// reached the line search (all but possibly the last), and
// Result.ValueEvals sums the main GP levels and the routability
// respreads.
func TestValueEvalsReported(t *testing.T) {
	d := gen.MustGenerate(smallCfg())
	rec := obs.New(obs.Config{})
	res, err := MustNew(Config{Obs: rec}).Place(d)
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	checkRound := func(r *obs.SpanRecord) {
		iters, evals := r.Counters["cg_iters"], r.Counters["value_evals"]
		if evals < 1 || evals < iters {
			t.Errorf("%s: %d value evaluations for %d CG iterations", r.Name, evals, iters)
		}
		sum += evals
	}
	levels := 0
	for _, s := range rec.BuildReport().Spans {
		switch s.Name {
		case "gp":
			for _, lv := range s.Children {
				levels++
				var rounds int64
				for _, r := range lv.Children {
					checkRound(r)
					rounds += r.Counters["value_evals"]
				}
				if lv.Counters["value_evals"] != rounds {
					t.Errorf("%s: value_evals %d, its rounds sum to %d", lv.Name, lv.Counters["value_evals"], rounds)
				}
			}
		case "routability":
			for _, it := range s.Children {
				for _, c := range it.Children {
					if c.Name == "respread" {
						for _, r := range c.Children {
							checkRound(r)
						}
					}
				}
			}
		}
	}
	if levels != res.Levels {
		t.Fatalf("report has %d GP level spans, result %d levels", levels, res.Levels)
	}
	if int64(res.ValueEvals) != sum {
		t.Errorf("Result.ValueEvals = %d, spans sum to %d", res.ValueEvals, sum)
	}
	if res.ValueEvals <= res.CGIters {
		t.Errorf("ValueEvals %d ≤ CGIters %d", res.ValueEvals, res.CGIters)
	}
}
