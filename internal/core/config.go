// Package core implements the routability-driven analytical placer for
// hierarchical mixed-size designs that this repository reproduces
// (NTUplace4h, DAC 2013). The flow is:
//
//  1. hierarchy-aware multilevel clustering (internal/cluster);
//  2. per-level global placement minimizing WL + λ·density by nonlinear
//     conjugate gradient (internal/wl, internal/density, internal/nlopt),
//     with fence pull forces for hierarchical region constraints;
//  3. a routability loop — routed-congestion estimation, targeted cell
//     inflation, congested-net weighting, frozen-weight respreading, all
//     gated by a router-scored best snapshot (internal/route);
//  4. discrete macro orientation selection;
//  5. macro legalization, fence-aware Abacus standard-cell legalization
//     (internal/legal) and HPWL-greedy detailed placement (internal/dp).
//
// Baselines for the experiment tables are configurations of the same
// engine: LSE wirelength model, routability off, multilevel off, fences
// stripped.
package core

import (
	"fmt"
	"time"

	"repro/internal/dp"
	"repro/internal/legal"
	"repro/internal/obs"
	"repro/internal/snap"
)

// Config selects the placer variant. The zero value is the full
// NTUplace4h-style flow with the WA wirelength model. The JSON tags
// define the "config" section of the machine-readable run report
// (internal/obs).
type Config struct {
	// Model picks the smooth wirelength model: "wa" (default) or "lse".
	Model string `json:"model"`

	// TargetDensity is the bin target density in (0,1]; 0 derives it from
	// design utilization with a 15% margin.
	TargetDensity float64 `json:"target_density"`

	// Workers is the worker count for the parallel kernels (wirelength
	// and density penalty, global routing, detailed placement,
	// legalization), at most MaxWorkers. 0 selects the shared automatic
	// policy (internal/par: REPRO_WORKERS env override, else GOMAXPROCS
	// capped); 1 forces serial evaluation. In global placement every
	// level runs its kernels on up to Workers goroutines, but only levels
	// of at least 2000 objects sum in Workers shards: placement results
	// are deterministic for a fixed worker count, and routing,
	// detailed-placement and legalization results are byte-identical for
	// every worker count.
	Workers int `json:"workers"`

	// MaxLambdaRounds bounds the density-weight escalation (default 24).
	MaxLambdaRounds int `json:"max_lambda_rounds"`

	// DisableQuadInit skips the quadratic star-model warm start that seeds
	// global placement (ablation; mainly useful to study cold starts).
	DisableQuadInit bool `json:"disable_quad_init"`
	// DisableMultilevel solves flat (single-level) global placement.
	DisableMultilevel bool `json:"disable_multilevel"`
	// DisableRoutability turns the congestion-driven inflation loop off.
	DisableRoutability bool `json:"disable_routability"`
	// DisableFences strips fence regions from the design before placing:
	// the hierarchical constraints are ignored entirely (the "flat"
	// baseline of experiment T4).
	DisableFences bool `json:"disable_fences"`
	// DisableDP skips detailed placement.
	DisableDP bool `json:"disable_dp"`

	// RoutabilityIters is the number of estimate→inflate→respread rounds
	// (default 2).
	RoutabilityIters int `json:"routability_iters"`
	// CongestionSource selects the congestion signal driving the
	// routability loop's inflation rounds: "route" (default) runs the
	// global router every round; "estimate" uses the probabilistic
	// RUDY + pin-density estimator (internal/estimate) for the early
	// rounds and falls back to the real router for the last
	// RouteLastRounds rounds plus the final validation route. The
	// estimator is orders of magnitude cheaper than a route, at the cost
	// of the best-snapshot gate not scoring estimate-only rounds.
	CongestionSource string `json:"congestion_source"`
	// RouteLastRounds is how many trailing routability rounds keep using
	// the real router when CongestionSource is "estimate" (default 1).
	// Set it ≥ RoutabilityIters to disable the estimator entirely — the
	// flow then resolves to the plain "route" path, byte-identical to
	// CongestionSource "route".
	RouteLastRounds int `json:"route_last_rounds"`
	// InflateMax caps the per-cell area inflation ratio (default 2.2).
	InflateMax float64 `json:"inflate_max"`

	// DPPasses forwards to detailed placement (default 2).
	DPPasses int `json:"dp_passes"`

	// EnableChannelDerate statically halves placement capacity in narrow
	// channels between macros. It is opt-in: it pays off when packing at
	// tight target densities (it keeps cells out of nearly-unroutable
	// slots), but under the default generous density target the dynamic
	// routability loop subsumes it and the lost capacity just lengthens
	// wires (ablation T11).
	EnableChannelDerate bool `json:"enable_channel_derate"`

	// Trace, when non-nil, records the level-0 convergence curve
	// (experiment F7).
	Trace *Trace `json:"-"`

	// Obs, when non-nil, receives structured telemetry: stage spans,
	// per-round GP and routing traces, debug logging, and (opt-in)
	// congestion heatmaps. Nil disables telemetry at zero cost, and
	// recording never perturbs results — placement and routing output is
	// byte-identical with Obs on or off.
	Obs *obs.Recorder `json:"-"`

	// Checkpoint, when non-nil, receives flow-state snapshots the run can
	// later be resumed from with PlaceFromCheckpoint: after every
	// CheckpointEvery-th λ round of finest-level global placement and
	// after every routability iteration. The hook runs synchronously on
	// the placement goroutine and owns the state it receives; typical
	// implementations hand it to snap.WriteFile. Hook failures are the
	// hook's problem — the placer never aborts a run over checkpointing.
	// Like Obs, the hook never perturbs results. Excluded from the report
	// schema (json) on purpose.
	Checkpoint func(*snap.State) `json:"-"`
	// CheckpointEvery is the λ-round interval between GP checkpoints
	// (default 1: every round). Ignored when Checkpoint is nil.
	CheckpointEvery int `json:"-"`
}

func (c Config) withDefaults() Config {
	if c.Model == "" {
		c.Model = "wa"
	}
	if c.MaxLambdaRounds <= 0 {
		c.MaxLambdaRounds = 24
	}
	if c.RoutabilityIters <= 0 {
		c.RoutabilityIters = 2
	}
	if c.CongestionSource == "" {
		c.CongestionSource = "route"
	}
	if c.RouteLastRounds <= 0 {
		c.RouteLastRounds = 1
	}
	if c.InflateMax <= 1 {
		c.InflateMax = 2.2
	}
	if c.DPPasses <= 0 {
		c.DPPasses = 2
	}
	return c
}

// Fixed tuning of the flow: every run uses these values.
const (
	// gammaFactor scales the wirelength smoothing parameter relative to
	// the bin dimension.
	gammaFactor = 0.8
	// gpIterPerRound is the CG iteration budget per λ round.
	gpIterPerRound = 30
	// overflowStop ends spreading when total overflow falls below this
	// fraction of movable area.
	overflowStop = 0.10
	// inflateExp shapes the congestion→inflation curve: ratio =
	// min(InflateMax, (congestion/ref)^inflateExp).
	inflateExp = 1.6
	// congestionThreshold is the tile utilization above which cells
	// inflate.
	congestionThreshold = 0.8
	// channelMinSpan is the channel width below which EnableChannelDerate
	// derates capacity, in row heights of the design.
	channelMinSpan = 4
	// channelDerate is the capacity multiplier applied to narrow-channel
	// bins.
	channelDerate = 0.5
	// clusterMinObjs stops coarsening below this object count.
	clusterMinObjs = 400
)

// MaxWorkers is the largest Config.Workers a run accepts; per-worker
// state is allocated before any kernel runs, so the bound keeps an
// untrusted config from choosing an allocation size.
const MaxWorkers = 256

// Validate rejects configurations the engine cannot honor.
func (c Config) Validate() error {
	if c.Workers < 0 || c.Workers > MaxWorkers {
		return fmt.Errorf("core: workers %d outside [0,%d]", c.Workers, MaxWorkers)
	}
	switch c.Model {
	case "", "wa", "lse":
	default:
		return fmt.Errorf("core: unknown wirelength model %q", c.Model)
	}
	if c.TargetDensity < 0 || c.TargetDensity > 1 {
		return fmt.Errorf("core: target density %v outside [0,1]", c.TargetDensity)
	}
	switch c.CongestionSource {
	case "", "route", "estimate":
	default:
		return fmt.Errorf("core: unknown congestion source %q (want \"route\" or \"estimate\")", c.CongestionSource)
	}
	return nil
}

// ResolvedCongestion reports the congestion source the routability loop
// will actually use after defaults: the source name ("route" or
// "estimate", "" when routability is disabled) and, for "estimate", the
// zero-based round at which the loop switches over to the real router
// (0 for "route"). "estimate" with RouteLastRounds ≥ RoutabilityIters
// resolves to plain "route" — the estimator would never run.
func (c Config) ResolvedCongestion() (source string, switchover int) {
	c = c.withDefaults()
	if c.DisableRoutability {
		return "", 0
	}
	if c.CongestionSource != "estimate" || c.RouteLastRounds >= c.RoutabilityIters {
		return "route", 0
	}
	return "estimate", c.RoutabilityIters - c.RouteLastRounds
}

// CongStat records one routability iteration for experiment F6/T10.
type CongStat struct {
	// ACE is the routed congestion profile at route.ACEPercentiles (from
	// the loop's reduced-budget router).
	ACE []float64
	// Inflated is the number of cells whose inflation ratio grew this
	// iteration.
	Inflated int
	// MaxTileCongestion is the worst estimated tile utilization.
	MaxTileCongestion float64
	// Estimated marks iterations whose congestion signal came from the
	// probabilistic estimator (internal/estimate) instead of the router;
	// their ACE profile is the estimator's, not a routed one.
	Estimated bool
}

// Result reports a full placement run.
type Result struct {
	// HPWL after global placement, after legalization, and final.
	HPWLGlobal float64
	HPWLLegal  float64
	HPWLFinal  float64

	// Overflow is the density overflow ratio at the end of GP.
	Overflow float64

	// Levels is the multilevel depth used; LambdaRounds, CGIters,
	// ValueEvals and ValueCuts are summed over levels and routability
	// respreads. ValueEvals counts objective value evaluations (CG
	// line-search trials plus one per CG run), so ValueEvals/CGIters is
	// the line search's cost per iteration. ValueCuts counts the
	// evaluations that stopped early on a trial already proven rejected.
	Levels       int
	LambdaRounds int
	CGIters      int
	ValueEvals   int
	ValueCuts    int

	// Cong has one entry per routability iteration.
	Cong []CongStat

	Legal legal.CellResult
	DP    dp.Result

	// Quality checks on the final placement.
	Overlaps        int
	FenceViolations int
	OutOfDie        int

	// Stage wall-clock durations.
	GPTime, RouteOptTime, LegalTime, DPTime time.Duration
}

// Trace records the convergence of level-0 global placement.
type Trace struct {
	// Iter, Objective and HPWL are parallel arrays sampled once per CG
	// iteration.
	Iter      []int
	Objective []float64
	HPWL      []float64
	// LambdaRound marks the λ round each sample belongs to.
	LambdaRound []int
}

func (t *Trace) add(iter, round int, obj, hpwl float64) {
	t.Iter = append(t.Iter, iter)
	t.Objective = append(t.Objective, obj)
	t.HPWL = append(t.HPWL, hpwl)
	t.LambdaRound = append(t.LambdaRound, round)
}
