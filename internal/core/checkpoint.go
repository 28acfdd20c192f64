package core

import (
	"fmt"
	"strings"

	"repro/internal/cluster"
	"repro/internal/db"
	"repro/internal/route"
	"repro/internal/snap"
)

// checkpointer captures flow state into snap.State values and hands them
// to the Config.Checkpoint hook. The design fingerprint is computed once
// per run (it hashes the whole netlist) and stamped on every snapshot so
// a resume can verify it is being fed the design it was taken from.
type checkpointer struct {
	d   *db.Design
	cfg Config
	fp  [32]byte
}

func newCheckpointer(d *db.Design, cfg Config) *checkpointer {
	return &checkpointer{d: d, cfg: cfg, fp: d.Fingerprint()}
}

// gpHook builds the levelSolver round observer for finest-level global
// placement: every CheckpointEvery-th round it publishes the in-flight
// solver positions to the design and emits a StageGP snapshot.
// roundBase offsets the recorded round count on resumed runs, so a
// checkpoint of a resumed run still counts rounds from the original start.
func (ck *checkpointer) gpHook(prob *cluster.Problem, pm *problemMap, roundBase int) func(int, float64, float64, []float64, []float64) {
	every := ck.cfg.CheckpointEvery
	if every <= 0 {
		every = 1
	}
	return func(round int, lambda, mu float64, x, y []float64) {
		done := round + 1
		if done%every != 0 {
			return
		}
		copy(prob.X, x)
		copy(prob.Y, y)
		writeBack(ck.d, prob, pm)
		ck.emit(snap.StageGP, 0, roundBase+done, 0, lambda, mu, nil)
	}
}

// recordConfig projects the result-shaping knobs of a (defaulted) Config
// into the checkpoint's config section. ValidateResumeConfig is its
// inverse check.
func recordConfig(cfg Config) *snap.RunConfig {
	return &snap.RunConfig{
		Model:              cfg.Model,
		TargetDensity:      cfg.TargetDensity,
		Workers:            cfg.Workers,
		MaxLambdaRounds:    cfg.MaxLambdaRounds,
		RoutabilityIters:   cfg.RoutabilityIters,
		CongestionSource:   cfg.CongestionSource,
		RouteLastRounds:    cfg.RouteLastRounds,
		DisableRoutability: cfg.DisableRoutability,
		DisableFences:      cfg.DisableFences,
		DisableDP:          cfg.DisableDP,
		DisableMultilevel:  cfg.DisableMultilevel,

		InflateMax:          cfg.InflateMax,
		DPPasses:            cfg.DPPasses,
		EnableChannelDerate: cfg.EnableChannelDerate,
	}
}

// ValidateResumeConfig rejects a resume whose current configuration would
// place a different problem than the checkpointed run: every recorded
// result-shaping knob must match. A knob the checkpoint's schema predates
// passes vacuously: all of them for a file without a config section
// (v1), the v3 knobs for a v2 file. DisableQuadInit does not participate
// because a resume never runs the warm start. Workers does not either:
// a resume at another worker count is legal, but it is not byte-identical
// to an uninterrupted run. Legalization, detailed placement and routing
// give the same bytes at every worker count, global placement does not —
// its parallel sums reassociate — so a mid-GP checkpoint resumed at a
// different count finishes a valid placement along a different path.
func ValidateResumeConfig(cfg Config, st *snap.State) error {
	if st == nil || st.Config == nil {
		return nil
	}
	cfg = cfg.withDefaults()
	rc, now := st.Config, recordConfig(cfg)
	var bad []string
	add := func(knob string, have, want any) {
		bad = append(bad, fmt.Sprintf("%s is %v, checkpoint ran with %v", knob, have, want))
	}
	if now.Model != rc.Model {
		add("model", now.Model, rc.Model)
	}
	if now.TargetDensity != rc.TargetDensity {
		add("target density", now.TargetDensity, rc.TargetDensity)
	}
	if now.MaxLambdaRounds != rc.MaxLambdaRounds {
		add("max lambda rounds", now.MaxLambdaRounds, rc.MaxLambdaRounds)
	}
	if now.RoutabilityIters != rc.RoutabilityIters {
		add("routability iters", now.RoutabilityIters, rc.RoutabilityIters)
	}
	if now.CongestionSource != rc.CongestionSource {
		add("congestion source", now.CongestionSource, rc.CongestionSource)
	}
	if now.RouteLastRounds != rc.RouteLastRounds {
		add("route last rounds", now.RouteLastRounds, rc.RouteLastRounds)
	}
	if now.DisableRoutability != rc.DisableRoutability {
		add("disable routability", now.DisableRoutability, rc.DisableRoutability)
	}
	if now.DisableFences != rc.DisableFences {
		add("disable fences", now.DisableFences, rc.DisableFences)
	}
	if now.DisableDP != rc.DisableDP {
		add("disable dp", now.DisableDP, rc.DisableDP)
	}
	if now.DisableMultilevel != rc.DisableMultilevel {
		add("disable multilevel", now.DisableMultilevel, rc.DisableMultilevel)
	}
	if rc.InflateMax != 0 {
		if now.InflateMax != rc.InflateMax {
			add("inflate max", now.InflateMax, rc.InflateMax)
		}
		if now.DPPasses != rc.DPPasses {
			add("dp passes", now.DPPasses, rc.DPPasses)
		}
		if now.EnableChannelDerate != rc.EnableChannelDerate {
			add("enable channel derate", now.EnableChannelDerate, rc.EnableChannelDerate)
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("core: resume config mismatch: %s", strings.Join(bad, "; "))
	}
	return nil
}

// emit snapshots the design's current cell state and invokes the hook.
func (ck *checkpointer) emit(stage snap.Stage, level, round, routIter int, lambda, mu float64, grid *route.Grid) {
	d := ck.d
	n := len(d.Cells)
	st := &snap.State{
		Design:      d.Name,
		Fingerprint: ck.fp,
		Config:      recordConfig(ck.cfg),
		Stage:       stage,
		Level:       level,
		Round:       round,
		RoutIter:    routIter,
		Lambda:      lambda,
		Mu:          mu,
		X:           make([]float64, n),
		Y:           make([]float64, n),
		Orient:      make([]uint8, n),
		Inflate:     make([]float64, n),
	}
	for i := range d.Cells {
		c := &d.Cells[i]
		st.X[i] = c.Pos.X
		st.Y[i] = c.Pos.Y
		st.Orient[i] = uint8(c.Orient)
		if c.Inflate > 1 {
			st.Inflate[i] = c.Inflate
		} else {
			st.Inflate[i] = 1
		}
	}
	if grid != nil {
		ds := grid.SnapshotDemand()
		st.Route = &snap.RouteState{
			NX: ds.NX, NY: ds.NY,
			HDem: ds.HDem, VDem: ds.VDem,
			HHist: ds.HHist, VHist: ds.VHist,
		}
	}
	ck.cfg.Checkpoint(st)
}
