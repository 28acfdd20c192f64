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
	"repro/internal/par"
	"repro/internal/wl"
)

const (
	// shardMinObjs is the smallest level whose kernels reduce in Workers
	// shards; smaller levels reduce in one, the serial order.
	shardMinObjs = 2000
	// minObjsPerThread is the fewest objects per goroutine a level's
	// kernels run with.
	minObjsPerThread = 128
)

// gpStats summarizes one level's global placement.
type gpStats struct {
	LambdaRounds int
	CGIters      int
	// ValueEvals counts objective value evaluations (line-search trials
	// plus one per CG run); ValueEvals/CGIters is the line search's cost.
	// ValueCuts counts the evaluations that stopped early because the
	// trial was already proven rejected.
	ValueEvals int
	ValueCuts  int
	Overflow   float64
	// FinalLambda and FinalMu are the density and fence weights at
	// termination; the routability loop resumes respreading from (a
	// fraction of) them instead of re-annealing from scratch, which would
	// undo the spreading and let density pressure eject fenced cells.
	FinalLambda float64
	FinalMu     float64
}

// addGP adds one GP solve's counts to res and keeps its final overflow.
// A non-nil sp also gets the counts as counters.
func (res *Result) addGP(st gpStats, sp *obs.Span) {
	res.LambdaRounds += st.LambdaRounds
	res.CGIters += st.CGIters
	res.ValueEvals += st.ValueEvals
	res.ValueCuts += st.ValueCuts
	res.Overflow = st.Overflow
	if sp != nil {
		sp.Add("lambda_rounds", int64(st.LambdaRounds))
		sp.Add("cg_iters", int64(st.CGIters))
		sp.Add("value_evals", int64(st.ValueEvals))
		sp.Add("value_cuts", int64(st.ValueCuts))
	}
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
	// call is the Value or Gradient call in progress, as its tasks read
	// it. valueTasks and gradientTasks are valueTask and gradientTask
	// bound once, so a call on one thread, which runs its tasks in order
	// on the caller, allocates nothing.
	call                      objCall
	valueTasks, gradientTasks func(w, i int)
	// cuts counts Value calls that stopped early.
	cuts int

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
		span := channelMinSpan * rowH
		grid.DerateNarrowChannels(span, channelDerate)
		ovGrid.DerateNarrowChannels(span, channelDerate)
		// Derating must not make the density system infeasible: the
		// summed capacity has to exceed the movable area or spreading
		// stalls and legalization pays with huge displacement.
		grid.EnsureCapacity(p.TotalArea(), 1.08)
		ovGrid.EnsureCapacity(p.TotalArea(), 1.08)
	}
	gamma := gammaFactor * (grid.BinW + grid.BinH) / 2
	model := wl.WA
	if cfg.Model == "lse" {
		model = wl.LSE
	}
	// Shards set the kernels' reduction order, so the bits: levels of at
	// least shardMinObjs objects reduce in Workers shards, smaller ones in
	// one. Threads only run the kernels and change no bit: every level
	// gets Workers of them, as far as each keeps minObjsPerThread
	// objects.
	workers := par.Workers(cfg.Workers)
	shards := 1
	if n >= shardMinObjs {
		shards = workers
	}
	grid.SetWorkers(shards)
	// project keeps every valued center inside the die.
	reach := math.Max(math.Max(math.Abs(die.Lo.X), math.Abs(die.Hi.X)), math.Max(math.Abs(die.Lo.Y), math.Abs(die.Hi.Y)))
	nl := &wl.Netlist{Nets: p.Nets, NumObjs: n}
	s := &levelSolver{
		cfg: cfg, p: p, die: die, regions: regions,
		grid: grid, ovGrid: ovGrid,
		nl:     nl,
		wlEval: wl.NewEvaluator(nl, model, gamma, shards, reach),
		objs:   make([]density.Obj, n),
		gdx:    make([]float64, n), gdy: make([]float64, n),
		gfx: make([]float64, n), gfy: make([]float64, n),
	}
	s.valueTasks, s.gradientTasks = s.valueTask, s.gradientTask
	s.setThreads(max(1, min(workers, n/minObjsPerThread)))
	for i := 0; i < n; i++ {
		s.objs[i] = density.Obj{HalfW: p.HalfW[i], HalfH: p.HalfH[i], Area: p.Area[i]}
	}
	return s
}

// setThreads sets how many goroutines run the level's kernels. It
// changes no bit: the shard count sets every reduction order.
func (s *levelSolver) setThreads(t int) {
	s.wlEval.SetThreads(t)
	s.grid.SetThreads(t)
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

// objCall is one Value or Gradient call as its tasks read it.
type objCall struct {
	x, y, gx, gy []float64
	// limit is Value's limit, fence and dens its terms μ·F and λ·N, and
	// over whether those two alone exceed limit.
	limit, fence, dens float64
	over               bool
	// beside is 1 when the list's first task is a term that runs next to
	// the other term's tasks, 0 when that term ran before the list.
	beside int
}

// Value evaluates f = WL + λ·N + μ·F at the packed vector layout
// ([x..., y...]) used by the CG solver. It implements nlopt.Objective
// together with Gradient.
//
// The terms are computed cheapest first: the fence pull, the density
// penalty, then the wirelength. After each, a value with every term not
// yet computed at its lower bound — N, F ≥ 0 and WL ≥ −Slack — is
// combined the way f is; rounding is monotone, so once that exceeds
// limit so does f, and Value returns +Inf. The wirelength gets the
// limit wlLimit derives. A value that is not cut is combined in the
// same order as always, so it and the caches are unchanged.
//
// The density and the wirelength run as one task list (valueTask): in
// order on the caller on one thread, otherwise in one parallel section.
// Over one shard the deposit is a single task and comes first. The
// wirelength's chunks start from the limit with λ·N at its lower bound
// 0, and the deposit then stops them, or tightens their limit to the
// one wlLimit derives from λ·N; so the order above makes every one of
// its checks here too, on one thread at the same points. A sharded
// deposit's slabs must all be done before they are reduced, in
// parallel, so it runs before the list, on the grid's threads.
func (s *levelSolver) Value(v []float64, limit float64) float64 {
	s.at = v
	n := s.p.NumObjs()
	c := &s.call
	*c = objCall{x: v[:n], y: v[n:], limit: limit}
	if s.mu > 0 {
		c.fence = s.mu * s.fencePenalty(c.x, c.y, nil, nil)
		if s.combine(-s.wlEval.Slack(), 0, c.fence) > limit {
			s.cuts++
			return math.Inf(1)
		}
	}
	if s.lambda > 0 {
		if s.wlEval.Shards() == 1 {
			c.beside = 1
		} else if s.density() {
			s.cuts++
			return math.Inf(1)
		}
	}
	chunks := s.wlEval.StartValue(c.x, c.y, s.wlLimit(limit, c.dens, c.fence))
	par.ForWorker(c.beside+chunks, s.wlEval.Threads(), s.valueTasks)
	wl, ok := s.wlEval.ValueResult()
	if c.over || !ok {
		s.cuts++
		return math.Inf(1)
	}
	return s.combine(wl, c.dens, c.fence)
}

// density forms λ·N for the Value call in progress and reports whether
// it and μ·F alone exceed the limit.
func (s *levelSolver) density() bool {
	c := &s.call
	c.dens = s.lambda * s.grid.Penalty(s.objs, c.x, c.y)
	c.over = s.combine(-s.wlEval.Slack(), c.dens, c.fence) > c.limit
	return c.over
}

// valueTask runs task i of Value's list: the deposit, when it runs
// beside, then the wirelength's chunks.
func (s *levelSolver) valueTask(_, i int) {
	c := &s.call
	switch {
	case i >= c.beside:
		s.wlEval.ValueTask(i - c.beside)
	case s.density():
		s.wlEval.StopValue()
	default:
		s.wlEval.Tighten(s.wlLimit(c.limit, c.dens, c.fence))
	}
}

// combine returns f from its weighted terms, in the one order f is
// summed in: (WL + λ·N) + μ·F, skipping a term whose weight is 0.
func (s *levelSolver) combine(wl, dens, fence float64) float64 {
	f := wl
	if s.lambda > 0 {
		f += dens
	}
	if s.mu > 0 {
		f += fence
	}
	return f
}

// wlLimit returns a wirelength limit for Value's limit: any wirelength
// above it makes combine exceed limit. combine is monotone in its first
// argument, so the search steps up from the estimate until combine
// crosses limit, and the limit is the float just below that point. It
// returns +Inf, which never cuts, for a +Inf or NaN limit, and when no
// wirelength makes combine cross limit (a NaN term).
func (s *levelSolver) wlLimit(limit, dens, fence float64) float64 {
	if !(limit < math.Inf(1)) {
		return math.Inf(1)
	}
	t := limit - dens - fence
	step := math.Max((math.Abs(limit)+dens+fence)*0x1p-52, math.SmallestNonzeroFloat64)
	for range 64 {
		if s.combine(t, dens, fence) > limit {
			return math.Nextafter(t, math.Inf(-1))
		}
		t += step
		step *= 2
	}
	return math.Inf(1)
}

// Gradient writes ∇f at the point of the last Value call into grad,
// which arrives zeroed. Like Value it runs one task list
// (gradientTask). Over one shard the wirelength gradient is a single
// scatter and comes first, next to the density gradient's chunks; a
// sharded one runs before the list on the evaluator's threads, as its
// shard buffers are reduced in parallel.
func (s *levelSolver) Gradient(grad []float64) {
	n := s.p.NumObjs()
	c := &s.call
	*c = objCall{x: s.at[:n], y: s.at[n:], gx: grad[:n], gy: grad[n:], beside: 1}
	chunks := 0
	if s.lambda > 0 {
		clear(s.gdx)
		clear(s.gdy)
		chunks = s.grid.GradientTasks(n)
	}
	if s.wlEval.Shards() > 1 {
		c.beside = 0
		s.wlEval.Gradient(c.gx, c.gy)
	}
	par.ForWorker(c.beside+chunks, s.wlEval.Threads(), s.gradientTasks)
	gx, gy := c.gx, c.gy
	if s.lambda > 0 {
		for i := range gx {
			gx[i] += s.lambda * s.gdx[i]
			gy[i] += s.lambda * s.gdy[i]
		}
	}
	if s.mu > 0 {
		clear(s.gfx)
		clear(s.gfy)
		s.fencePenalty(c.x, c.y, s.gfx, s.gfy)
		for i := range gx {
			gx[i] += s.mu * s.gfx[i]
			gy[i] += s.mu * s.gfy[i]
		}
	}
}

// gradientTask runs task i of Gradient's list on goroutine w: the
// wirelength's scatter, when it runs beside, then the density
// gradient's chunks.
func (s *levelSolver) gradientTask(w, i int) {
	c := &s.call
	if i < c.beside {
		s.wlEval.Gradient(c.gx, c.gy)
		return
	}
	s.grid.GradientTask(s.objs, c.x, c.y, s.gdx, s.gdy, i-c.beside, w)
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
	s.wlEval.Value(x, y, math.Inf(1))
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

	if s.span != nil {
		// Effective counts: the wirelength value and the density
		// gradient run on threads goroutines, over one shard next to the
		// density deposit and the wirelength scatter; sharded, those two
		// run one goroutine per shard first, as far as threads allow.
		s.span.Add("threads", int64(s.wlEval.Threads()))
		s.span.Add("shards", int64(s.wlEval.Shards()))
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
		cuts := s.cuts
		res := nlopt.CG(s, v, nlopt.Options{
			MaxIter:  gpIterPerRound,
			GradTol:  1e-9,
			RelTol:   relTol,
			StepInit: step,
			Project:  s.project,
			OnIter:   onIter,
			Stop:     stop,
		})
		cuts = s.cuts - cuts
		stats.CGIters += res.Iters
		stats.ValueEvals += res.ValueEvals
		stats.ValueCuts += cuts
		iterBase += res.Iters
		stats.Overflow = s.ovGrid.Overflow(s.objs, v[:n], v[n:])
		fenced := s.maxFenceDist(v[:n], v[n:])
		// Converged when the neighbourhood-scale overflow is below the
		// stop threshold, fences are satisfied, and cell-scale clumping
		// (which drives legalization displacement) has either gotten
		// small or stopped improving — it has a structural floor set by
		// the discreteness of cells at bin resolution.
		fineOv := s.grid.Overflow(s.objs, v[:n], v[n:])
		fineDone := fineOv < 2*overflowStop || fineOv > prevFine*0.97
		prevFine = fineOv
		if rsp != nil {
			rsp.Add("cg_iters", int64(res.Iters))
			rsp.Add("value_evals", int64(res.ValueEvals))
			rsp.Add("value_cuts", int64(cuts))
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
		if stats.Overflow < overflowStop && fineDone && fenced <= fenceTol {
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
