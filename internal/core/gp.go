package core

import (
	"context"
	"math"

	"repro/internal/cluster"
	"repro/internal/db"
	"repro/internal/density"
	"repro/internal/geom"
	"repro/internal/nlopt"
	"repro/internal/obs"
	"repro/internal/wl"
)

// gpStats summarizes one level's global placement.
type gpStats struct {
	LambdaRounds int
	CGIters      int
	// ValueEvals counts objective value evaluations (line-search trials
	// plus one per CG run); ValueEvals/CGIters is the line search's cost.
	ValueEvals int
	Overflow   float64
	// FinalLambda and FinalMu are the density and fence weights at
	// termination; the routability loop resumes respreading from (a
	// fraction of) them instead of re-annealing from scratch, which would
	// undo the spreading and let density pressure eject fenced cells.
	FinalLambda float64
	FinalMu     float64
}

// levelSolver minimizes WL + λ·density + μ·fence over one problem level.
type levelSolver struct {
	cfg     Config
	p       *cluster.Problem
	die     geom.Rect
	regions []db.Region
	grid    *density.Grid
	// ovGrid is a coarser companion grid used only for the overflow
	// convergence check: at solver (cell-scale) resolution the discrete
	// cells make exact-overlap density inherently lumpy, so convergence
	// is judged at a few-cells-per-bin scale like the contest evaluators.
	ovGrid *density.Grid
	nl     *wl.Netlist
	wlEval *wl.Evaluator
	objs   []density.Obj
	// at is the point of the last Value call; Gradient evaluates there
	// (the nlopt.Objective contract), reusing the wirelength cache and
	// the density map that call left. λ, μ and the object areas never
	// change inside one CG run, so those caches stay valid.
	at []float64

	lambda, mu float64
	// startLambda and startMu, when positive, seed the λ/μ escalation
	// instead of the gradient-ratio initialization (used by routability
	// respreads).
	startLambda float64
	startMu     float64
	// freeze keeps λ and μ constant across rounds (routability respreads
	// relax into a new equilibrium at the already-converged weights
	// rather than re-annealing, which would either undo spreading or blow
	// the density term up).
	freeze bool
	// stepScale shrinks the CG trial step (respreads make small moves).
	stepScale float64
	// rec receives per-round convergence telemetry (nil = disabled);
	// span, when non-nil, parents the per-round solve spans. level and
	// phase label the trace records ("gp" when phase is empty).
	rec   *obs.Recorder
	span  *obs.Span
	level int
	phase string
	// onRound, when non-nil, observes the end of every λ round with the
	// weights used that round and the current packed positions (valid only
	// during the call). The placer's checkpoint hook hangs off it.
	onRound func(round int, lambda, mu float64, x, y []float64)
	// scratch gradient buffers
	gdx, gdy []float64
	gfx, gfy []float64
}

// newLevelSolver sizes the density grid to the level and builds the model.
// rowH carries the design row height for narrow-channel detection (pass 0
// to skip derating).
func newLevelSolver(cfg Config, p *cluster.Problem, die geom.Rect, fixed []geom.Rect, regions []db.Region, target, rowH float64) *levelSolver {
	n := p.NumObjs()
	// Grid: several bins per object so the bell resolution approaches the
	// cell scale and the smoothed density cannot hide intra-bin clumping
	// from the exact-overlap overflow check.
	bins := 4 * float64(n)
	if bins < 256 {
		bins = 256
	}
	nx := int(math.Round(math.Sqrt(bins * die.W() / math.Max(1, die.H()))))
	ny := int(math.Round(bins / math.Max(1, float64(nx))))
	nx = clampInt(nx, 4, 512)
	ny = clampInt(ny, 4, 512)
	grid := density.NewGrid(die, nx, ny, target)
	for _, r := range fixed {
		grid.AddFixed(r)
	}
	ovBins := float64(n) / 4
	if ovBins < 64 {
		ovBins = 64
	}
	ovx := clampInt(int(math.Round(math.Sqrt(ovBins*die.W()/math.Max(1, die.H())))), 4, 256)
	ovy := clampInt(int(math.Round(ovBins/math.Max(1, float64(ovx)))), 4, 256)
	ovGrid := density.NewGrid(die, ovx, ovy, target)
	for _, r := range fixed {
		ovGrid.AddFixed(r)
	}
	if cfg.EnableChannelDerate && rowH > 0 && len(fixed) > 0 {
		span := cfg.ChannelMinSpan * rowH
		grid.DerateNarrowChannels(span, cfg.ChannelDerate)
		ovGrid.DerateNarrowChannels(span, cfg.ChannelDerate)
		// Derating must not make the density system infeasible: the
		// summed capacity has to exceed the movable area or spreading
		// stalls and legalization pays with huge displacement.
		grid.EnsureCapacity(p.TotalArea(), 1.08)
		ovGrid.EnsureCapacity(p.TotalArea(), 1.08)
	}
	gamma := cfg.GammaFactor * (grid.BinW + grid.BinH) / 2
	model := wl.WA
	if cfg.Model == "lse" {
		model = wl.LSE
	}
	// Large levels evaluate in parallel; results stay deterministic for a
	// fixed worker count (partition and reduction order are fixed).
	workers := 1
	if n >= 2000 && cfg.Workers != 1 {
		workers = cfg.Workers
		grid.SetWorkers(workers)
	}
	nl := &wl.Netlist{Nets: p.Nets, NumObjs: n}
	s := &levelSolver{
		cfg: cfg, p: p, die: die, regions: regions,
		grid: grid, ovGrid: ovGrid,
		nl:     nl,
		wlEval: wl.NewEvaluator(nl, model, gamma, workers),
		objs:   make([]density.Obj, n),
		gdx:    make([]float64, n), gdy: make([]float64, n),
		gfx: make([]float64, n), gfy: make([]float64, n),
	}
	for i := 0; i < n; i++ {
		s.objs[i] = density.Obj{HalfW: p.HalfW[i], HalfH: p.HalfH[i], Area: p.Area[i]}
	}
	return s
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// fencePenalty evaluates the fence pull term Σ aᵢ·dᵢ² and its gradient
// (area-weighted squared distance from each fenced object's center to its
// region).
func (s *levelSolver) fencePenalty(x, y []float64, gx, gy []float64) float64 {
	var total float64
	for i := range s.p.Region {
		rg := s.p.Region[i]
		if rg < 0 || rg >= len(s.regions) {
			continue
		}
		pos := geom.Point{X: x[i], Y: y[i]}
		q := s.regions[rg].Nearest(pos)
		dx, dy := pos.X-q.X, pos.Y-q.Y
		if dx == 0 && dy == 0 {
			continue
		}
		a := s.p.Area[i]
		total += a * (dx*dx + dy*dy)
		if gx != nil {
			gx[i] += 2 * a * dx
			gy[i] += 2 * a * dy
		}
	}
	return total
}

// Value evaluates f = WL + λ·N + μ·F at the packed vector layout
// ([x..., y...]) used by the CG solver. It implements nlopt.Objective
// together with Gradient.
func (s *levelSolver) Value(v []float64) float64 {
	s.at = v
	n := s.p.NumObjs()
	x, y := v[:n], v[n:]
	f := s.wlEval.Value(x, y)
	if s.lambda > 0 {
		f += s.lambda * s.grid.Penalty(s.objs, x, y)
	}
	if s.mu > 0 {
		f += s.mu * s.fencePenalty(x, y, nil, nil)
	}
	return f
}

// Gradient writes ∇f at the point of the last Value call into grad,
// which arrives zeroed.
func (s *levelSolver) Gradient(grad []float64) {
	n := s.p.NumObjs()
	x, y := s.at[:n], s.at[n:]
	gx, gy := grad[:n], grad[n:]
	s.wlEval.Gradient(gx, gy)
	if s.lambda > 0 {
		clear(s.gdx)
		clear(s.gdy)
		s.grid.PenaltyGradient(s.objs, x, y, s.gdx, s.gdy)
		for i := range gx {
			gx[i] += s.lambda * s.gdx[i]
			gy[i] += s.lambda * s.gdy[i]
		}
	}
	if s.mu > 0 {
		clear(s.gfx)
		clear(s.gfy)
		s.fencePenalty(x, y, s.gfx, s.gfy)
		for i := range gx {
			gx[i] += s.mu * s.gfx[i]
			gy[i] += s.mu * s.gfy[i]
		}
	}
}

// gradL1 returns Σ|g| of a term's gradient evaluated in isolation.
func gradL1(gx, gy []float64) float64 {
	var s float64
	for i := range gx {
		s += math.Abs(gx[i]) + math.Abs(gy[i])
	}
	return s
}

// initWeights sets λ and μ so the density and fence gradients start as
// small fractions of the wirelength gradient (then double every round).
func (s *levelSolver) initWeights(v []float64) {
	n := s.p.NumObjs()
	x, y := v[:n], v[n:]
	gwx := make([]float64, n)
	gwy := make([]float64, n)
	s.wlEval.Value(x, y)
	s.wlEval.Gradient(gwx, gwy)
	wlG := gradL1(gwx, gwy) + 1e-12

	clear(s.gdx)
	clear(s.gdy)
	s.grid.Penalty(s.objs, x, y)
	s.grid.PenaltyGradient(s.objs, x, y, s.gdx, s.gdy)
	denG := gradL1(s.gdx, s.gdy)
	if denG > 0 {
		s.lambda = 0.03 * wlG / denG
	} else {
		s.lambda = 0
	}

	clear(s.gfx)
	clear(s.gfy)
	fen := s.fencePenalty(x, y, s.gfx, s.gfy)
	fenG := gradL1(s.gfx, s.gfy)
	if fen > 0 && fenG > 0 {
		s.mu = 0.05 * wlG / fenG
	} else {
		s.mu = 0
	}
}

// project clamps object centers so footprints stay inside the die.
func (s *levelSolver) project(v []float64) {
	n := s.p.NumObjs()
	for i := 0; i < n; i++ {
		hw, hh := s.p.HalfW[i], s.p.HalfH[i]
		lox, hix := s.die.Lo.X+hw, s.die.Hi.X-hw
		loy, hiy := s.die.Lo.Y+hh, s.die.Hi.Y-hh
		if lox > hix {
			c := (s.die.Lo.X + s.die.Hi.X) / 2
			lox, hix = c, c
		}
		if loy > hiy {
			c := (s.die.Lo.Y + s.die.Hi.Y) / 2
			loy, hiy = c, c
		}
		if v[i] < lox {
			v[i] = lox
		}
		if v[i] > hix {
			v[i] = hix
		}
		if v[n+i] < loy {
			v[n+i] = loy
		}
		if v[n+i] > hiy {
			v[n+i] = hiy
		}
	}
}

// maxFenceDist returns the largest center-to-fence distance over fenced
// objects (0 when all are home).
func (s *levelSolver) maxFenceDist(x, y []float64) float64 {
	m := 0.0
	for i := range s.p.Region {
		rg := s.p.Region[i]
		if rg < 0 || rg >= len(s.regions) {
			continue
		}
		pos := geom.Point{X: x[i], Y: y[i]}
		if d := pos.Dist(s.regions[rg].Nearest(pos)); d > m {
			m = d
		}
	}
	return m
}

// solve runs the λ-escalation loop. Positions are read from and written
// back to the problem. trace, when non-nil, records the convergence curve.
// Cancellation of ctx aborts between CG iterations (the Stop hook) and
// between λ rounds; the partially-spread positions are still written back
// so callers can inspect (or report on) the state the run died in. A ctx
// that is never canceled does not perturb the trajectory.
func (s *levelSolver) solve(ctx context.Context, trace *Trace) gpStats {
	n := s.p.NumObjs()
	v := make([]float64, 2*n)
	copy(v[:n], s.p.X)
	copy(v[n:], s.p.Y)
	s.project(v)
	s.initWeights(v)
	if s.startLambda > 0 {
		s.lambda = s.startLambda
	}
	if s.startMu > 0 {
		s.mu = s.startMu
	}
	var stop func() bool
	if ctx != nil && ctx.Done() != nil {
		stop = func() bool { return ctx.Err() != nil }
	}

	stats := gpStats{}
	iterBase := 0
	fenceTol := (s.grid.BinW + s.grid.BinH) / 2
	prevFine := math.Inf(1)
	prevOv := math.Inf(1)
	for round := 0; round < s.cfg.MaxLambdaRounds; round++ {
		if stop != nil && stop() {
			break
		}
		stats.LambdaRounds = round + 1
		rsp := s.span.StartSpanf("round-%d", round)
		var onIter func(int, float64)
		if trace != nil {
			onIter = func(it int, f float64) {
				trace.add(iterBase+it, round, f, wl.HPWL(s.nl, v[:n], v[n:]))
			}
		}
		step := (s.grid.BinW + s.grid.BinH) / 2
		if s.stepScale > 0 {
			step *= s.stepScale
		}
		relTol := 1e-4
		if s.freeze {
			// Frozen respreads operate where the density term dominates
			// the objective; the plateau detector would misread slow but
			// real relief work as convergence.
			relTol = 0
		}
		res := nlopt.CG(s, v, nlopt.Options{
			MaxIter:  s.cfg.GPIterPerRound,
			GradTol:  1e-9,
			RelTol:   relTol,
			StepInit: step,
			Project:  s.project,
			OnIter:   onIter,
			Stop:     stop,
		})
		stats.CGIters += res.Iters
		stats.ValueEvals += res.ValueEvals
		iterBase += res.Iters
		stats.Overflow = s.ovGrid.Overflow(s.objs, v[:n], v[n:])
		fenced := s.maxFenceDist(v[:n], v[n:])
		// Converged when the neighbourhood-scale overflow is below the
		// stop threshold, fences are satisfied, and cell-scale clumping
		// (which drives legalization displacement) has either gotten
		// small or stopped improving — it has a structural floor set by
		// the discreteness of cells at bin resolution.
		fineOv := s.grid.Overflow(s.objs, v[:n], v[n:])
		fineDone := fineOv < 2*s.cfg.OverflowStop || fineOv > prevFine*0.97
		prevFine = fineOv
		if rsp != nil {
			rsp.Add("cg_iters", int64(res.Iters))
			rsp.Add("value_evals", int64(res.ValueEvals))
			rsp.End()
		}
		if s.rec.Enabled() {
			phase := s.phase
			if phase == "" {
				phase = "gp"
			}
			hp := wl.HPWL(s.nl, v[:n], v[n:])
			s.rec.RecordGPRound(obs.GPRound{
				Level: s.level, Phase: phase, Round: round,
				Lambda: s.lambda, Mu: s.mu,
				CoarseOverflow: stats.Overflow, FineOverflow: fineOv,
				FenceDist: fenced, HPWL: hp, CGIters: res.Iters,
			})
			s.rec.Log().Debug("gp round",
				"level", s.level, "phase", phase, "round", round,
				"lambda", s.lambda, "mu", s.mu,
				"coarse", stats.Overflow, "fine", fineOv,
				"fence", fenced, "hpwl", hp, "iters", res.Iters)
		}
		if stats.Overflow < s.cfg.OverflowStop && fineDone && fenced <= fenceTol {
			break
		}
		if s.freeze {
			continue
		}
		// Escalate λ; when the round was a no-op (overflow unchanged and
		// CG hit an immediate plateau) the weight is far from the regime
		// where density matters, so fast-forward instead of burning the
		// round budget two-fold at a time.
		factor := 2.0
		if stats.Overflow > 0.5 && stats.Overflow > 0.99*prevOv && res.Iters <= 2 {
			factor = 8
		}
		prevOv = stats.Overflow
		s.lambda *= factor
		if s.mu > 0 {
			s.mu *= factor
		} else if fenced > fenceTol {
			// Fences engaged late (objects drifted out): bootstrap μ.
			s.initWeights(v)
			if s.mu == 0 {
				s.mu = s.lambda
			}
		}
		// The round observer fires after escalation on purpose: a
		// checkpoint must record the weights the NEXT round would use, so
		// a resumed run continues the λ schedule instead of replaying one
		// doubling behind it. Converged rounds break above without a
		// checkpoint — the run finishes anyway.
		if s.onRound != nil {
			s.onRound(round, s.lambda, s.mu, v[:n], v[n:])
		}
	}
	copy(s.p.X, v[:n])
	copy(s.p.Y, v[n:])
	stats.FinalLambda = s.lambda
	stats.FinalMu = s.mu
	return stats
}
