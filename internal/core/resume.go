package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/db"
	"repro/internal/geom"
	"repro/internal/route"
	"repro/internal/snap"
)

// PlaceFromCheckpoint resumes a placement flow from a snapshot produced by
// the Config.Checkpoint hook and runs it to a legal final result. The
// design must be the one the checkpoint was taken from (cell count and
// fingerprint are verified). The resumed flow is single-level: multilevel
// clustering, the quadratic warm start and coincidence staggering are all
// skipped because the checkpoint already carries spread positions.
//
// A StageGP checkpoint re-enters the λ-escalation loop at the recorded
// weights with the remaining round budget, then runs the routability loop
// and the finishing stages. A StageRoutability checkpoint skips global
// placement entirely, restores the router demand/history grid and
// re-enters the routability loop at the recorded iteration.
//
// Checkpoints taken by the resumed run itself (when cfg.Checkpoint is set)
// continue the original round numbering, so a twice-resumed run still
// converges within the configured budgets.
func (pl *Placer) PlaceFromCheckpoint(ctx context.Context, d *db.Design, st *snap.State) (Result, error) {
	cfg := pl.cfg
	res := Result{}
	if st == nil {
		return res, fmt.Errorf("core: nil checkpoint")
	}
	if len(d.Cells) == 0 {
		return res, fmt.Errorf("core: empty design")
	}
	if d.Die.Empty() {
		return res, fmt.Errorf("core: design %q has empty die", d.Name)
	}
	if st.Stage != snap.StageGP && st.Stage != snap.StageRoutability {
		return res, fmt.Errorf("core: checkpoint stage %v is not resumable", st.Stage)
	}
	// A checkpoint stamped with its run configuration only resumes under a
	// matching one — continuing with, say, a different congestion source
	// would finish a run neither configuration describes.
	if err := ValidateResumeConfig(cfg, st); err != nil {
		return res, err
	}
	if st.NumCells() != len(d.Cells) {
		return res, fmt.Errorf("core: checkpoint holds %d cells, design %q has %d",
			st.NumCells(), d.Name, len(d.Cells))
	}
	// The flow never writes these values; a checkpoint carrying them is
	// damaged or forged, and resuming from it would blow up the density
	// model rather than finish a placement.
	if st.Lambda < 0 || st.Mu < 0 {
		return res, fmt.Errorf("core: checkpoint multipliers λ=%g μ=%g must not be negative", st.Lambda, st.Mu)
	}
	for i, r := range st.Inflate {
		if r > cfg.InflateMax {
			return res, fmt.Errorf("core: checkpoint inflates cell %d by %g, above the %g cap", i, r, cfg.InflateMax)
		}
	}
	for i := range st.X {
		if x, y := st.X[i], st.Y[i]; math.IsNaN(x) || math.IsInf(x, 0) || math.IsNaN(y) || math.IsInf(y, 0) {
			return res, fmt.Errorf("core: checkpoint places cell %d at non-finite (%g, %g)", i, x, y)
		}
	}
	// Fence stripping must mirror PlaceContext before the fingerprint
	// check: the checkpoint was fingerprinted after stripping.
	if cfg.DisableFences {
		stripFences(d)
	}
	// The input-identity fingerprint must be taken before the checkpoint
	// positions are applied: a checkpoint emitted by this resumed run has
	// to carry the ORIGINAL problem's fingerprint, or a second resume
	// against a freshly loaded design would be rejected.
	fp := d.Fingerprint()
	if st.Fingerprint != ([32]byte{}) && fp != st.Fingerprint {
		return res, fmt.Errorf("core: checkpoint fingerprint %x… does not match design %q (%x…)",
			st.Fingerprint[:6], d.Name, fp[:6])
	}

	// Apply the checkpointed cell state.
	for i := range d.Cells {
		c := &d.Cells[i]
		c.Pos = geom.Point{X: st.X[i], Y: st.Y[i]}
		if o := db.Orient(st.Orient[i]); o >= db.N && o <= db.FW {
			c.Orient = o
		}
		if st.Inflate != nil && st.Inflate[i] > 1 {
			c.Inflate = st.Inflate[i]
		}
	}

	target := cfg.TargetDensity
	if target == 0 {
		u := d.Utilization()
		target = math.Min(1, u*1.15+0.05)
	}

	rec := cfg.Obs
	t0 := time.Now()
	lowSp := rec.StartSpan("lower")
	prob, pm := lower(d)
	if len(pm.objToCell) == 0 {
		return res, fmt.Errorf("core: design %q has no movable cells", d.Name)
	}
	fixed := fixedRects(d)
	// The density model must see the checkpointed inflation, not the base
	// cell areas (a routability-stage resume would otherwise respread at
	// pre-inflation density and undo the loop's relief work).
	for i, ci := range pm.objToCell {
		prob.Area[i] = d.Cells[ci].InflatedArea()
	}
	if lowSp != nil {
		lowSp.Add("objects", int64(prob.NumObjs()))
		lowSp.Add("nets", int64(len(prob.Nets)))
		lowSp.End()
	}

	var ck *checkpointer
	if cfg.Checkpoint != nil {
		ck = &checkpointer{d: d, cfg: cfg, fp: fp}
	}
	res.Levels = 1
	res.LambdaRounds = st.Round
	lastLambda, lastMu := st.Lambda, st.Mu
	if st.Stage == snap.StageGP && st.Round < cfg.MaxLambdaRounds {
		rcfg := cfg
		rcfg.MaxLambdaRounds = cfg.MaxLambdaRounds - st.Round
		gpSp := rec.StartSpan("gp")
		s := newLevelSolver(rcfg, prob, d.Die, fixed, d.Regions, target, d.RowHeight())
		s.startLambda = st.Lambda
		s.startMu = st.Mu
		s.rec = rec
		s.level = 0
		s.span = gpSp.StartSpanf("level-%d", 0)
		if ck != nil {
			s.onRound = ck.gpHook(prob, pm, st.Round)
		}
		gst := s.solve(ctx, cfg.Trace)
		res.addGP(gst, s.span)
		s.span.End()
		lastLambda = gst.FinalLambda
		lastMu = gst.FinalMu
		if err := ctx.Err(); err != nil {
			gpSp.End()
			writeBack(d, prob, pm)
			return res, canceled("global placement", err)
		}
		gpSp.End()
		writeBack(d, prob, pm)
	}
	res.GPTime = time.Since(t0)
	res.HPWLGlobal = d.HPWL()
	rec.Log().Debug("resumed global placement done",
		"stage", st.Stage.String(), "lambda_rounds", res.LambdaRounds,
		"hpwl", res.HPWLGlobal)

	var routedGrid *route.Grid
	if !cfg.DisableRoutability && d.Route != nil {
		t1 := time.Now()
		grid, err := route.NewGrid(d)
		if err != nil {
			return res, err
		}
		startIter := 0
		if st.Stage == snap.StageRoutability {
			startIter = st.RoutIter
			if st.Route != nil {
				if err := grid.RestoreDemand(route.DemandState{
					NX: st.Route.NX, NY: st.Route.NY,
					HDem: st.Route.HDem, VDem: st.Route.VDem,
					HHist: st.Route.HHist, VHist: st.Route.VHist,
				}); err != nil {
					return res, err
				}
			}
		}
		g, err := pl.routabilityLoop(ctx, d, prob, pm, fixed, target, lastLambda, lastMu, &res, ck, grid, startIter)
		if err != nil {
			return res, err
		}
		routedGrid = g
		res.RouteOptTime = time.Since(t1)
		res.HPWLGlobal = d.HPWL()
	}
	return res, pl.finish(ctx, d, routedGrid, &res)
}
