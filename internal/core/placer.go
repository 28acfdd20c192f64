package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/db"
	"repro/internal/dp"
	"repro/internal/estimate"
	"repro/internal/geom"
	"repro/internal/legal"
	"repro/internal/route"
	"repro/internal/snap"
)

// Placer runs the full placement flow for one configuration.
type Placer struct {
	cfg Config
}

// New builds a placer; the zero Config is the full WA-model,
// routability-driven, hierarchy-aware flow.
func New(cfg Config) (*Placer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Placer{cfg: cfg.withDefaults()}, nil
}

// MustNew is New for known-good configurations.
func MustNew(cfg Config) *Placer {
	p, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// Place runs global placement, the routability loop, macro orientation,
// legalization and detailed placement on d, mutating cell positions (and
// orientations, and macro Fixed flags). It returns the run report.
func (pl *Placer) Place(d *db.Design) (Result, error) {
	return pl.PlaceContext(context.Background(), d)
}

// Canceled wraps the context error of an aborted placement so callers can
// both errors.Is against context.Canceled/DeadlineExceeded and see which
// stage the run died in.
func canceled(stage string, err error) error {
	return fmt.Errorf("core: placement canceled during %s: %w", stage, err)
}

// PlaceContext is Place honoring ctx for cancellation and deadlines.
// Cancellation is observed at CG-iteration, λ-round, routability-iteration
// and reroute-batch granularity, so a canceled run returns within a
// fraction of one GP round. The design is left in whatever intermediate
// state the flow reached — callers that must not ship partial placements
// should treat a non-nil error as "discard d". A ctx that never cancels
// leaves results byte-identical to Place.
func (pl *Placer) PlaceContext(ctx context.Context, d *db.Design) (Result, error) {
	return pl.run(ctx, d, nil)
}

// run is the placement flow behind PlaceContext (st == nil) and
// PlaceFromCheckpoint. A resume is the same flow entered later: one
// level, no warm start, the checkpointed λ schedule and inflation, and
// no global placement at all from a routability checkpoint.
func (pl *Placer) run(ctx context.Context, d *db.Design, st *snap.State) (Result, error) {
	cfg := pl.cfg
	res := Result{}
	if len(d.Cells) == 0 {
		return res, fmt.Errorf("core: empty design")
	}
	if d.Die.Empty() {
		return res, fmt.Errorf("core: design %q has empty die", d.Name)
	}
	if cfg.DisableFences {
		stripFences(d)
	}
	// The input-identity fingerprint is taken after fence stripping and
	// before any position changes: a resume checks it against the
	// checkpoint's, and every checkpoint this run emits, resumed or not,
	// carries the original design's, so it resumes against a freshly
	// loaded one.
	var fp [32]byte
	if st != nil || cfg.Checkpoint != nil {
		fp = d.Fingerprint()
	}
	if st != nil {
		if err := pl.applyCheckpoint(d, st, fp); err != nil {
			return res, err
		}
	}

	target := cfg.TargetDensity
	if target == 0 {
		u := d.Utilization()
		target = math.Min(1, u*1.15+0.05)
	}

	// ---- Global placement -------------------------------------------
	rec := cfg.Obs
	t0 := time.Now()
	lowSp := rec.StartSpan("lower")
	prob, pm := lower(d)
	if len(pm.objToCell) == 0 {
		return res, fmt.Errorf("core: design %q has no movable cells", d.Name)
	}
	fixed := fixedRects(d)
	if st == nil {
		staggerCoincident(prob, d.Die)
		if !cfg.DisableQuadInit {
			quadInit(prob, d.Die)
			staggerCoincident(prob, d.Die)
		}
	} else {
		// The density model must see the checkpointed inflation, not the
		// base cell areas (a routability-stage resume would otherwise
		// respread at pre-inflation density and undo the loop's relief
		// work).
		for i, ci := range pm.objToCell {
			prob.Area[i] = d.Cells[ci].InflatedArea()
		}
	}
	if lowSp != nil {
		lowSp.Add("objects", int64(prob.NumObjs()))
		lowSp.Add("nets", int64(len(prob.Nets)))
		lowSp.End()
	}

	// A resume solves level 0 alone and continues the checkpointed λ
	// schedule with the rounds left of its budget; its checkpoints keep
	// counting rounds from the original start.
	hier := &cluster.Hierarchy{Levels: []*cluster.Problem{prob}}
	if st == nil && !cfg.DisableMultilevel {
		hier = cluster.Build(prob, cluster.Options{MinObjs: clusterMinObjs, Obs: rec})
	}
	res.Levels = len(hier.Levels)
	gpCfg := cfg
	var roundBase int
	var lastLambda, lastMu float64
	runGP := true
	if st != nil {
		roundBase, lastLambda, lastMu = st.Round, st.Lambda, st.Mu
		res.LambdaRounds = st.Round
		gpCfg.MaxLambdaRounds -= st.Round
		runGP = st.Stage == snap.StageGP && gpCfg.MaxLambdaRounds > 0
	}
	var ck *checkpointer
	if cfg.Checkpoint != nil {
		ck = &checkpointer{d: d, cfg: cfg, fp: fp}
	}
	if runGP {
		gpSp := rec.StartSpan("gp")
		for l := len(hier.Levels) - 1; l >= 0; l-- {
			s := newLevelSolver(gpCfg, hier.Levels[l], d.Die, fixed, d.Regions, target, d.RowHeight())
			s.rec = rec
			s.level = l
			s.span = gpSp.StartSpanf("level-%d", l)
			var trace *Trace
			if l == 0 {
				trace = cfg.Trace
				if st != nil {
					s.startLambda, s.startMu = st.Lambda, st.Mu
				}
				if ck != nil {
					// Checkpoints are only meaningful at the finest level,
					// where problem objects are real cells (coarse-level
					// cluster centers cannot seed a resumed flow).
					s.onRound = ck.gpHook(prob, pm, roundBase)
				}
			}
			gst := s.solve(ctx, trace)
			res.addGP(gst, s.span)
			s.span.End()
			lastLambda, lastMu = gst.FinalLambda, gst.FinalMu
			if err := ctx.Err(); err != nil {
				gpSp.End()
				writeBack(d, prob, pm)
				return res, canceled("global placement", err)
			}
			if l > 0 {
				hier.Interpolate(l - 1)
			}
		}
		gpSp.End()
		writeBack(d, prob, pm)
	}
	res.GPTime = time.Since(t0)
	res.HPWLGlobal = d.HPWL()
	rec.Log().Debug("global placement done",
		"levels", res.Levels, "lambda_rounds", res.LambdaRounds,
		"cg_iters", res.CGIters, "value_evals", res.ValueEvals, "value_cuts", res.ValueCuts,
		"overflow", res.Overflow, "hpwl", res.HPWLGlobal)

	// ---- Routability loop -------------------------------------------
	var grid *route.Grid
	if !cfg.DisableRoutability && d.Route != nil {
		t1 := time.Now()
		var err error
		if grid, err = route.NewGrid(d); err != nil {
			return res, err
		}
		startIter := 0
		if st != nil && st.Stage == snap.StageRoutability {
			startIter = st.RoutIter
			if st.Route != nil {
				if err := grid.RestoreDemand(route.DemandState(*st.Route)); err != nil {
					return res, err
				}
			}
		}
		if err := pl.routabilityLoop(ctx, d, prob, pm, fixed, target, lastLambda, lastMu, &res, ck, grid, startIter); err != nil {
			return res, err
		}
		res.RouteOptTime = time.Since(t1)
		res.HPWLGlobal = d.HPWL()
	}
	return res, pl.finish(ctx, d, grid, &res)
}

// finish is the back half of the flow: macro orientation, legalization,
// detailed placement and the final quality checks. routedGrid, when
// non-nil, supplies the congestion map for routability-aware detailed
// placement.
func (pl *Placer) finish(ctx context.Context, d *db.Design, routedGrid *route.Grid, res *Result) error {
	cfg := pl.cfg
	rec := cfg.Obs
	if err := ctx.Err(); err != nil {
		return canceled("routability", err)
	}

	// ---- Macro orientation ------------------------------------------
	oSp := rec.StartSpan("orient")
	orientMacros(d)
	oSp.End()

	// ---- Legalization ------------------------------------------------
	t2 := time.Now()
	legSp := rec.StartSpan("legalize")
	legal.LegalizeMacros(d)
	lres, err := legal.LegalizeCellsOpt(d, legal.Options{Workers: cfg.Workers})
	if err != nil {
		return err
	}
	if legSp != nil {
		legSp.Add("fallbacks", int64(lres.Fallbacks))
		legSp.Add("workers", int64(lres.Workers))
		legSp.End()
	}
	res.Legal = lres
	res.LegalTime = time.Since(t2)
	res.HPWLLegal = d.HPWL()
	rec.Log().Debug("legalization done", "fallbacks", lres.Fallbacks, "hpwl", res.HPWLLegal)
	if err := ctx.Err(); err != nil {
		return canceled("legalization", err)
	}

	// ---- Detailed placement ------------------------------------------
	if !cfg.DisableDP {
		t3 := time.Now()
		dpOpt := dp.Options{Passes: cfg.DPPasses, Workers: cfg.Workers, Obs: rec}
		if routedGrid != nil {
			if src, _ := cfg.ResolvedCongestion(); src == "estimate" {
				// Estimate mode: hand detailed placement a *live*
				// probabilistic map instead of a frozen routed snapshot —
				// the dp engine attaches it to its incremental cache so
				// every committed move updates the guard in
				// O(pins-on-cell), and later moves see earlier relief.
				dpOpt.Estimate = estimate.New(routedGrid, estimate.Options{Workers: cfg.Workers})
			} else {
				// Routability-aware detailed placement: the final routed
				// congestion map penalizes moves into overloaded tiles.
				dpOpt.Congestion = routedGrid.TileCongestion()
				dpOpt.CongNX = routedGrid.NX
				dpOpt.CongOrigin = routedGrid.Origin
				dpOpt.CongTileW = routedGrid.TileW
				dpOpt.CongTileH = routedGrid.TileH
			}
		}
		res.DP = dp.Optimize(d, dpOpt)
		res.DPTime = time.Since(t3)
	}
	res.HPWLFinal = d.HPWL()
	res.Overlaps = d.OverlapViolations()
	res.FenceViolations = d.FenceViolations()
	res.OutOfDie = d.OutOfDie()
	return nil
}

// routabilityLoop runs estimate → inflate → respread rounds on the level-0
// problem, updating design positions after each round, and leaves grid
// routed for the shipped placement. Cancellation of ctx aborts between
// (and inside, at batch granularity) routing calls and respread rounds.
// ck, when non-nil, checkpoints after every iteration. startIter skips
// the iterations a resumed checkpoint already completed.
func (pl *Placer) routabilityLoop(ctx context.Context, d *db.Design, prob *cluster.Problem, pm *problemMap, fixed []geom.Rect, target float64, lastLambda, lastMu float64, res *Result, ck *checkpointer, grid *route.Grid, startIter int) error {
	cfg := pl.cfg
	rec := cfg.Obs
	loopSp := rec.StartSpan("routability")
	// Inflation budget: inflated movable area must stay within the
	// spreadable capacity or the density solver can never converge.
	freeArea := d.Die.Area() - d.FixedAreaInDie()
	budget := 0.9 * target * freeArea
	// Wirelength guard: spreading for routability is only worth a bounded
	// wirelength hit (the sHPWL metric trades 3% HPWL per RC point).
	hpwlBudget := d.HPWL() * 1.15
	origW := make([]float64, len(prob.Nets))
	for ni := range prob.Nets {
		origW[ni] = prob.Nets[ni].Weight
	}

	router := route.NewRouter(grid, route.RouterOptions{MaxRRRIters: 2, Workers: cfg.Workers, Obs: rec})
	// Congestion source: "route" routes every round; "estimate" replaces
	// the early rounds' router calls with the probabilistic estimator and
	// keeps the router only for the trailing RouteLastRounds rounds (and
	// the final validation route below, which always runs).
	congSource, switchover := cfg.ResolvedCongestion()
	var est *estimate.Estimator
	if congSource == "estimate" {
		est = estimate.New(grid, estimate.Options{Workers: cfg.Workers})
		if loopSp != nil {
			loopSp.Add("switchover_round", int64(switchover))
		}
	}
	// The loop is gated: every *routed* iteration's placement is scored
	// with the router (the same sHPWL proxy the final evaluation uses) and
	// the best snapshot wins, so the loop can explore without ever
	// shipping a placement worse than its starting point. Estimate-only
	// rounds are not scored (that is the time they save); the trailing
	// routed rounds and the final route re-enter the gate.
	bestX := append([]float64(nil), prob.X...)
	bestY := append([]float64(nil), prob.Y...)
	bestScore := math.Inf(1)
	scoreNow := func() float64 {
		rc := route.RC(grid.ACEProfile())
		return route.ScaledHPWL(d.HPWL(), rc)
	}
	for iter := startIter; iter < cfg.RoutabilityIters; iter++ {
		estimated := est != nil && iter < switchover
		iterSp := loopSp.StartSpanf("iter-%d", iter)
		var tileCong []float64
		var stat CongStat
		if estimated {
			// Estimate round: the congestion signal is the RUDY +
			// pin-density map over the current positions — no routing.
			est.Recompute(d)
			tileCong = est.TileCongestion()
			stat = CongStat{ACE: est.ACEProfile(), Estimated: true}
			if iterSp != nil {
				iterSp.Add("estimated", 1)
			}
			if loopSp != nil {
				loopSp.Add("estimate_rounds", 1)
			}
			if rec.HeatmapsEnabled() {
				rec.RecordHeatmap(fmt.Sprintf("estimate-%d", iter), est.NX, est.NY, tileCong)
			}
		} else {
			if rec.Enabled() {
				router.SetTraceContext(iterSp, fmt.Sprintf("routability-%d", iter))
			}
			// Routed round: the congestion signal is the *routed* demand
			// map — the design is globally routed with a reduced rip-up
			// budget and the leftover per-tile utilization marks the spots
			// placement must relieve.
			if _, err := router.RouteDesignCtx(ctx, d); err != nil {
				iterSp.End()
				loopSp.End()
				return canceled("routability", err)
			}
			if rec.HeatmapsEnabled() {
				rec.RecordHeatmap(fmt.Sprintf("routability-%d", iter), grid.NX, grid.NY, grid.TileCongestion())
			}
			if sc := scoreNow(); sc < bestScore {
				bestScore = sc
				copy(bestX, prob.X)
				copy(bestY, prob.Y)
			}
			tileCong = grid.TileCongestion()
			stat = CongStat{ACE: grid.ACEProfile()}
		}
		for _, c := range tileCong {
			if c > stat.MaxTileCongestion {
				stat.MaxTileCongestion = c
			}
		}
		// Inflation is relative: only tiles that are congested both in
		// absolute terms and versus the design's 75th percentile inflate,
		// so a uniformly overloaded design still gets *targeted* relief
		// of its worst spots instead of a blanket (and useless) blow-up.
		ref := math.Max(congestionThreshold, quantile(tileCong, 0.75))
		inflated := 0
		for _, ci := range pm.objToCell {
			c := &d.Cells[ci]
			if c.Kind == db.Macro {
				// Macros are never inflated: their footprints already
				// dominate their tiles and inflating them just thrashes
				// the whole region.
				continue
			}
			tx, ty := grid.TileOf(c.Center())
			cong := tileCong[ty*grid.NX+tx]
			if cong <= ref {
				continue
			}
			ratio := math.Min(cfg.InflateMax, math.Pow(cong/ref, inflateExp))
			// Grow gently: at most +25% density footprint per iteration,
			// so one noisy estimate cannot blow a region up.
			ratio = math.Min(ratio, c.Inflate*1.25)
			if ratio > c.Inflate {
				c.Inflate = ratio
				inflated++
			}
		}
		// Enforce the area budget by scaling the inflation excess down.
		var inflatedArea float64
		for _, ci := range pm.objToCell {
			inflatedArea += d.Cells[ci].InflatedArea()
		}
		if inflatedArea > budget {
			baseArea := 0.0
			for _, ci := range pm.objToCell {
				baseArea += d.Cells[ci].Area()
			}
			if inflatedArea > baseArea {
				scale := (budget - baseArea) / (inflatedArea - baseArea)
				if scale < 0 {
					scale = 0
				}
				for _, ci := range pm.objToCell {
					c := &d.Cells[ci]
					c.Inflate = 1 + (c.Inflate-1)*scale
				}
			}
		}
		for i, ci := range pm.objToCell {
			prob.Area[i] = d.Cells[ci].InflatedArea()
		}
		stat.Inflated = inflated
		res.Cong = append(res.Cong, stat)
		if iterSp != nil {
			iterSp.Add("inflated", int64(inflated))
		}
		rec.Log().Debug("routability iteration",
			"iter", iter, "inflated", inflated, "estimated", estimated,
			"max_tile_congestion", stat.MaxTileCongestion, "score", bestScore)
		if inflated == 0 {
			iterSp.End()
			break
		}
		weightNetsByCongestion(prob, grid, tileCong, ref, origW)
		// Respread with the inflated areas: a short run that resumes the
		// λ escalation near where the main GP ended, so the established
		// spreading is preserved and only the inflated regions move.
		respread := cfg
		respread.MaxLambdaRounds = 4
		s := newLevelSolver(respread, prob, d.Die, fixed, d.Regions, target, d.RowHeight())
		s.startLambda = lastLambda
		s.startMu = lastMu
		s.freeze = true
		s.stepScale = 0.25
		s.rec = rec
		s.phase = "respread"
		s.span = iterSp.StartSpan("respread")
		st := s.solve(ctx, nil)
		res.addGP(st, nil)
		s.span.End()
		writeBack(d, prob, pm)
		iterSp.End()
		if err := ctx.Err(); err != nil {
			loopSp.End()
			return canceled("routability", err)
		}
		if ck != nil {
			ck.emit(snap.StageRoutability, 0, res.LambdaRounds, iter+1, lastLambda, lastMu, grid)
		}
		if d.HPWL() > hpwlBudget {
			break
		}
	}
	// Restore pre-loop net weights so later HPWL-driven stages (macro
	// orientation, detailed placement) see the design's true weights.
	for ni := range prob.Nets {
		prob.Nets[ni].Weight = origW[ni]
	}
	// Score the final state, restore the best snapshot if it lost, and
	// record the shipped state's congestion profile (experiment F6 reads
	// res.Cong's last entry as "after the loop").
	if rec.Enabled() {
		router.SetTraceContext(loopSp, "final")
	}
	if _, err := router.RouteDesignCtx(ctx, d); err != nil {
		loopSp.End()
		return canceled("routability", err)
	}
	if scoreNow() > bestScore {
		copy(prob.X, bestX)
		copy(prob.Y, bestY)
		writeBack(d, prob, pm)
		if _, err := router.RouteDesignCtx(ctx, d); err != nil {
			loopSp.End()
			return canceled("routability", err)
		}
	}
	final := CongStat{ACE: grid.ACEProfile()}
	for _, c := range grid.TileCongestion() {
		if c > final.MaxTileCongestion {
			final.MaxTileCongestion = c
		}
	}
	res.Cong = append(res.Cong, final)
	if rec.HeatmapsEnabled() {
		rec.RecordHeatmap("final", grid.NX, grid.NY, grid.TileCongestion())
	}
	loopSp.End()
	return nil
}

// weightNetsByCongestion scales each GP net's weight by how congested the
// tiles under its bounding box are (relative to ref, clamped to [1, 3]),
// so the respread's wirelength model preferentially shortens nets that
// run through hot regions — reducing their routing demand directly.
// origW holds the pre-loop weights so multipliers never compound.
func weightNetsByCongestion(prob *cluster.Problem, grid *route.Grid, tileCong []float64, ref float64, origW []float64) {
	for ni := range prob.Nets {
		net := &prob.Nets[ni]
		if len(net.Pins) < 2 {
			continue
		}
		// Bounding box over current pin positions.
		minX, maxX := math.Inf(1), math.Inf(-1)
		minY, maxY := math.Inf(1), math.Inf(-1)
		for _, p := range net.Pins {
			var px, py float64
			if p.Obj >= 0 {
				px, py = prob.X[p.Obj]+p.OffX, prob.Y[p.Obj]+p.OffY
			} else {
				px, py = p.OffX, p.OffY
			}
			minX = math.Min(minX, px)
			maxX = math.Max(maxX, px)
			minY = math.Min(minY, py)
			maxY = math.Max(maxY, py)
		}
		// Sample congestion at the box center and corners.
		var cong float64
		for _, pt := range [...][2]float64{
			{(minX + maxX) / 2, (minY + maxY) / 2},
			{minX, minY}, {maxX, maxY}, {minX, maxY}, {maxX, minY},
		} {
			tx, ty := grid.TileOf(geom.Point{X: pt[0], Y: pt[1]})
			cong += tileCong[ty*grid.NX+tx]
		}
		cong /= 5
		mult := 1.0
		if ref > 0 && cong > ref {
			mult = math.Min(3, cong/ref)
		}
		net.Weight = origW[ni] * mult
	}
}

// quantile returns the q-quantile (0..1) of vs by sorting a copy.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	cp := append([]float64(nil), vs...)
	sort.Float64s(cp)
	i := int(q * float64(len(cp)-1))
	return cp[i]
}

// orientMacros greedily picks, per movable macro, the orientation that
// minimizes the HPWL of its incident nets (the discrete counterpart of
// the paper's rotation force; candidates keep the footprint inside the
// die).
func orientMacros(d *db.Design) {
	candidates := []db.Orient{db.N, db.S, db.FN, db.FS, db.E, db.W, db.FE, db.FW}
	for _, mi := range d.MovableMacros() {
		c := &d.Cells[mi]
		center := c.Center()
		bestOrient := c.Orient
		bestCost := math.Inf(1)
		origOrient := c.Orient
		for _, o := range candidates {
			c.Orient = o
			c.SetCenter(center)
			if !d.Die.ContainsRect(c.Rect()) {
				continue
			}
			var cost float64
			for _, pi := range c.Pins {
				cost += d.NetHPWL(d.Pins[pi].Net)
			}
			if cost < bestCost {
				bestCost = cost
				bestOrient = o
			}
		}
		if math.IsInf(bestCost, 1) {
			bestOrient = origOrient
		}
		c.Orient = bestOrient
		c.SetCenter(center)
	}
}
