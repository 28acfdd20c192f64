package core

import (
	"bytes"
	"testing"

	"repro/internal/bookshelf"
	"repro/internal/db"
	"repro/internal/gen"
	"repro/internal/obs"
)

// estimateTestDesign builds the small congested design the estimate-mode
// tests place.
func estimateTestDesign(t *testing.T) *db.Design {
	t.Helper()
	d, err := gen.Generate(gen.Congested(400, 21))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func placePl(t *testing.T, cfg Config) []byte {
	t.Helper()
	d := estimateTestDesign(t)
	if _, err := MustNew(cfg).Place(d); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := bookshelf.WritePl(&buf, d); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestEstimateFallbackIdenticalPl pins the estimate-on/off equivalence
// when the last-rounds router fallback covers every round: "estimate"
// with RouteLastRounds ≥ RoutabilityIters resolves to the plain "route"
// path, so the final .pl must be byte-identical to CongestionSource
// "route".
func TestEstimateFallbackIdenticalPl(t *testing.T) {
	iters := 2
	plRoute := placePl(t, Config{
		CongestionSource: "route", RoutabilityIters: iters,
	})
	plEst := placePl(t, Config{
		CongestionSource: "estimate", RoutabilityIters: iters, RouteLastRounds: iters,
	})
	if !bytes.Equal(plRoute, plEst) {
		t.Fatal("estimate mode with full router fallback produced a different .pl than route mode")
	}
}

// TestEstimateModeRuns exercises the estimate-driven loop end to end:
// the early rounds must be marked Estimated, the trailing rounds and the
// final validation routed, and the placement must come out legal.
func TestEstimateModeRuns(t *testing.T) {
	d := estimateTestDesign(t)
	cfg := Config{
		CongestionSource: "estimate",
		RoutabilityIters: 3,
		RouteLastRounds:  1,
	}
	if src, sw := cfg.ResolvedCongestion(); src != "estimate" || sw != 2 {
		t.Fatalf("ResolvedCongestion = %q/%d, want estimate/2", src, sw)
	}
	res, err := MustNew(cfg).Place(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cong) == 0 {
		t.Fatal("no routability iterations recorded")
	}
	// Early entries estimated; the loop may stop early (inflated == 0),
	// but whatever ran before the switchover must carry the marker, and
	// the final entry (post-loop validation route) must not.
	for i, st := range res.Cong[:len(res.Cong)-1] {
		if i < 2 && !st.Estimated {
			t.Errorf("round %d not marked Estimated", i)
		}
		if i >= 2 && st.Estimated {
			t.Errorf("round %d marked Estimated after switchover", i)
		}
	}
	if res.Cong[len(res.Cong)-1].Estimated {
		t.Error("final congestion entry marked Estimated; want routed validation")
	}
	if res.HPWLFinal <= 0 {
		t.Errorf("bad final HPWL %v", res.HPWLFinal)
	}
	// Legality must be no worse than the same design placed with the
	// router every round (this design config legalizes with one residual
	// overlap in both modes — the estimator must not add more).
	dRoute := estimateTestDesign(t)
	resRoute, err := MustNew(Config{
		CongestionSource: "route", RoutabilityIters: 3,
	}).Place(dRoute)
	if err != nil {
		t.Fatal(err)
	}
	if res.Overlaps > resRoute.Overlaps {
		t.Errorf("estimate mode has %d overlaps, route mode %d", res.Overlaps, resRoute.Overlaps)
	}
	if res.FenceViolations > resRoute.FenceViolations {
		t.Errorf("estimate mode has %d fence violations, route mode %d", res.FenceViolations, resRoute.FenceViolations)
	}
}

// TestEstimateModeDeterministicAcrossWorkers pins that estimate-mode
// placement — including the live-estimator DP guard — stays
// byte-identical across worker counts, like the rest of the flow. The
// design is below the 2000 objects at which global placement shards its
// sums, so its levels reduce in one shard at every worker count; at two
// and eight workers some level must still run its kernels on more than
// one thread, or the test would not cover a threaded GP kernel.
func TestEstimateModeDeterministicAcrossWorkers(t *testing.T) {
	cfg := func(w int) Config {
		return Config{
			CongestionSource: "estimate",
			RoutabilityIters: 2,
			RouteLastRounds:  1,
			Workers:          w,
		}
	}
	ref := placePl(t, cfg(1))
	for _, w := range []int{2, 8} {
		c := cfg(w)
		c.Obs = obs.New(obs.Config{})
		if got := placePl(t, c); !bytes.Equal(ref, got) {
			t.Fatalf("estimate-mode .pl differs between workers 1 and %d", w)
		}
		threaded := false
		for _, s := range c.Obs.BuildReport().Spans {
			if s.Name != "gp" {
				continue
			}
			for _, lv := range s.Children {
				if lv.Counters["threads"] > 1 && lv.Counters["shards"] == 1 {
					threaded = true
				}
			}
		}
		if !threaded {
			t.Errorf("workers=%d: no GP level ran on more than one thread over one shard", w)
		}
	}
}
