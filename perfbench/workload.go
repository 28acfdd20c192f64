package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/bookshelf"
	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/eco"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/route"
)

// workload is one input family and the fixed way it is placed.
type workload struct {
	name string
	// workers is the placer worker count. Global placement output depends
	// on it, so it is fixed per workload and never derived from the host.
	workers int
	// design is the same for every seed, so every run of a workload
	// does the same placement work and its times compare across seeds.
	design gen.Config
	// config is the placer configuration; Workers and Obs are filled in
	// per call.
	config core.Config
	// eco, when set, makes the timed operation a stream of ECO deltas
	// repaired against a base that set-up places with config.
	eco *ecoSpec
}

// ecoSpec shapes an ECO delta stream.
type ecoSpec struct {
	deltas int
	// Each delta removes and adds these fractions of the movable standard
	// cells and moves this fraction of their pins to other nets.
	removeFrac, addFrac, rewireFrac float64
	// evalEvery routes every evalEvery-th delta's result for sHPWL and RC.
	evalEvery int
}

// setupReps is how many times set-up reads the design; setup_s and
// bookshelf.read_s report the median.
const setupReps = 15

func workloads() []workload {
	sbA := gen.Suite()[0]
	return []workload{
		{name: "flow-sb-a", workers: 1, design: sbA},
		{
			name: "flow-congested-estimate", workers: 2,
			design: gen.Congested(3000, 7),
			config: core.Config{CongestionSource: "estimate", RoutabilityIters: 4},
		},
		{
			name: "eco-sb-a", workers: 1, design: sbA,
			eco: &ecoSpec{deltas: 100, removeFrac: 0.01, addFrac: 0.01, rewireFrac: 0.005, evalEvery: 10},
		},
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	return names
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runner executes one workload run and accounts for every operation.
type runner struct {
	w       workload
	seed    int64
	seconds float64
	trace   bool
	dir     string
	log     io.Writer

	attempted, failed int
	// hashes holds the .pl digest of the first result for each input,
	// keyed by the input's index (the delta index on an ECO stream, 0 for
	// a flow, -1 for the ECO base). Every later result must match it.
	hashes map[int]string
}

// measurement is what a run observed.
type measurement struct {
	setupS float64
	readS  float64
	// walls, cpus and latMS come from untraced operations only: walls and
	// cpus per timed operation (one flow, or one whole delta stream),
	// latMS per flow or per delta.
	walls, cpus, latMS []float64
	tracedWalls        []float64
	hpwl, shpwl, rc    float64
	// evalS times each route.EvaluateDesign call.
	evalS []float64
	// layers holds the per-layer numbers of the last traced operation.
	layers map[string]float64
}

func (r *runner) run() (*result, error) {
	r.hashes = map[int]string{}
	in, reads, err := r.load()
	if err != nil {
		return nil, err
	}
	m := &measurement{readS: median(reads)}
	m.setupS = m.readS
	if r.w.eco != nil {
		err = r.runEco(in, m)
	} else {
		err = r.runFlow(in, m)
	}
	if err != nil {
		return nil, err
	}
	return r.result(m), nil
}

// load generates the workload's design, writes it as Bookshelf, and reads
// it back setupReps times. It returns the last read, the run's input, and
// how long each read took.
func (r *runner) load() (*db.Design, []float64, error) {
	d, err := gen.Generate(r.w.design)
	if err != nil {
		return nil, nil, fmt.Errorf("generate: %w", err)
	}
	aux, err := bookshelf.WriteDesign(d, r.dir)
	if err != nil {
		return nil, nil, fmt.Errorf("write bookshelf: %w", err)
	}
	reads := make([]float64, 0, setupReps)
	for k := 0; k < setupReps; k++ {
		runtime.GC()
		t0 := time.Now()
		d, err = bookshelf.ReadDesign(aux)
		reads = append(reads, time.Since(t0).Seconds())
		if err != nil {
			return nil, nil, fmt.Errorf("read bookshelf: %w", err)
		}
	}
	return d, reads, nil
}

// minOps is the fewest operations an untraced run times, so that its
// median can reject one outlier even when --seconds fits only two flows.
const minOps = 3

// loop calls op until the run has lasted r.seconds and made minOps calls.
// A traced run instead alternates untraced and traced calls, starting
// untraced, until it has lasted r.seconds and made at least one of each.
// Every call starts from a collected heap, so garbage left by one call is
// not paid for in the next.
func (r *runner) loop(op func(traced bool) error) error {
	start := time.Now()
	var untraced, traced int
	for {
		done := untraced >= minOps
		if r.trace {
			done = untraced > 0 && traced > 0
		}
		if done && time.Since(start).Seconds() >= r.seconds {
			return nil
		}
		t := r.trace && untraced > traced
		runtime.GC()
		t0, c0 := time.Now(), cpuSeconds()
		if err := op(t); err != nil {
			return err
		}
		fmt.Fprintf(r.log, "%s op %d traced=%v: %.3fs wall, %.3fs cpu\n",
			r.w.name, untraced+traced, t, time.Since(t0).Seconds(), cpuSeconds()-c0)
		if t {
			traced++
		} else {
			untraced++
		}
	}
}

func (r *runner) placer(rec *obs.Recorder) (*core.Placer, error) {
	cfg := r.w.config
	cfg.Workers = r.w.workers
	cfg.Obs = rec
	return core.New(cfg)
}

func newRecorder(traced bool) *obs.Recorder {
	if !traced {
		return nil
	}
	return obs.New(obs.Config{SampleResources: true})
}

// runFlow times full placements of in, each on a fresh copy.
func (r *runner) runFlow(in *db.Design, m *measurement) error {
	first := true
	return r.loop(func(traced bool) error {
		rec := newRecorder(traced)
		pl, err := r.placer(rec)
		if err != nil {
			return err
		}
		d := in.Clone()
		c0, t0 := cpuSeconds(), time.Now()
		res, err := pl.Place(d)
		wall, cpu := time.Since(t0).Seconds(), cpuSeconds()-c0
		if err != nil {
			r.record("flow", []string{err.Error()})
			return nil
		}
		r.record("flow", r.check(0, d, res.Legal.Fallbacks))
		if traced {
			m.tracedWalls = append(m.tracedWalls, wall)
			m.layers = spanLayers(rec)
			addFlowLayers(m.layers, res)
			m.layers["estimate.recompute_ms"] = recomputeMS(d, r.w.workers)
			return nil
		}
		m.walls = append(m.walls, wall)
		m.cpus = append(m.cpus, cpu)
		m.latMS = append(m.latMS, wall*1e3)
		if first {
			first = false
			m.hpwl = d.HPWL()
			met, evalS, err := evaluate(d, r.w.workers)
			if err != nil {
				return err
			}
			m.shpwl, m.rc = met.ScaledHPWL, met.RC
			m.evalS = append(m.evalS, evalS)
		}
		return nil
	})
}

// runEco places the base during set-up, then times streams of the same
// deltas repaired against it.
func (r *runner) runEco(in *db.Design, m *measurement) error {
	spec := r.w.eco
	pl, err := r.placer(nil)
	if err != nil {
		return err
	}
	base := in.Clone()
	t0 := time.Now()
	res, err := pl.Place(base)
	m.setupS += time.Since(t0).Seconds()
	if err != nil {
		return fmt.Errorf("place eco base: %w", err)
	}
	r.record("eco base", r.check(-1, base, res.Legal.Fallbacks))
	baseHPWL := base.HPWL()
	basePl := eco.FromDesign(base)
	// Deltas are regenerated for every use instead of kept, so peak RSS
	// stays the program's and not the benchmark's.
	delta := func(i int) *db.Design {
		return gen.Perturb(in, gen.Perturbation{
			Seed:       r.seed*1000 + int64(i),
			RemoveFrac: spec.removeFrac,
			AddFrac:    spec.addFrac,
			RewireFrac: spec.rewireFrac,
		})
	}

	first := true
	return r.loop(func(traced bool) error {
		rec := newRecorder(traced)
		var st ecoTotals
		var wall, cpu, hpwlSum float64
		var shpwl, rc []float64
		for i := 0; i < spec.deltas; i++ {
			next := delta(i)
			c0, t0 := cpuSeconds(), time.Now()
			df := eco.DiffDesigns(base, next)
			t1 := time.Now()
			res, err := eco.Place(next, df, basePl, eco.Options{Workers: r.w.workers, Obs: rec})
			lat := time.Since(t0).Seconds()
			wall += lat
			cpu += cpuSeconds() - c0
			what := fmt.Sprintf("delta %d", i)
			if err != nil {
				r.record(what, []string{err.Error()})
				continue
			}
			r.record(what, r.check(i, next, res.Legal.Fallbacks))
			st.add(res, t1.Sub(t0).Seconds())
			hpwlSum += res.HPWL
			if traced {
				continue
			}
			m.latMS = append(m.latMS, lat*1e3)
			if first && i%spec.evalEvery == 0 {
				met, evalS, err := evaluate(next, r.w.workers)
				if err != nil {
					return err
				}
				shpwl = append(shpwl, met.ScaledHPWL)
				rc = append(rc, met.RC)
				m.evalS = append(m.evalS, evalS)
			}
		}
		if traced {
			m.tracedWalls = append(m.tracedWalls, wall)
			m.layers = spanLayers(rec)
			st.addLayers(m.layers)
			m.layers["eco.base_hpwl"] = baseHPWL
			m.layers["estimate.recompute_ms"] = recomputeMS(base, r.w.workers)
			return nil
		}
		m.walls = append(m.walls, wall)
		m.cpus = append(m.cpus, cpu)
		if first {
			first = false
			m.hpwl = hpwlSum / float64(spec.deltas)
			m.shpwl, m.rc = mean(shpwl), mean(rc)
		}
		return nil
	})
}

// record counts one checked operation; problems, when any, fail it and
// are printed.
func (r *runner) record(what string, problems []string) {
	r.attempted++
	if len(problems) == 0 {
		return
	}
	r.failed++
	fmt.Fprintf(r.log, "FAIL %s %s seed %d: %v\n", r.w.name, what, r.seed, problems)
}

// check validates one placed result: it must be legal, and its .pl bytes
// must equal those of the first result for the same input.
func (r *runner) check(key int, d *db.Design, fallbacks int) []string {
	probs := problems(d, fallbacks)
	h, err := plHash(d)
	switch prev, seen := r.hashes[key]; {
	case err != nil:
		probs = append(probs, err.Error())
	case !seen:
		r.hashes[key] = h
	case prev != h:
		probs = append(probs, fmt.Sprintf(".pl hash %s differs from the first result's %s", h, prev))
	}
	return probs
}

// evaluate routes d once, outside any timed phase, and returns the
// contest metrics and how long the call took.
func evaluate(d *db.Design, workers int) (route.Metrics, float64, error) {
	t0 := time.Now()
	met, err := route.EvaluateDesign(d, route.RouterOptions{Workers: workers})
	if err != nil {
		return met, 0, fmt.Errorf("evaluate: %w", err)
	}
	return met, time.Since(t0).Seconds(), nil
}

// ecoTotals sums what one delta stream's repairs did.
type ecoTotals struct {
	deltas                      int
	diffMS, legalMS, dpMS       []float64
	changed, windows, repaired  int
	reuse                       float64
	legalS, dpS                 float64
	legalPlaced, legalFallbacks int
	dpTrials, dpMoves           int
}

func (t *ecoTotals) add(res eco.Result, diffS float64) {
	t.deltas++
	t.diffMS = append(t.diffMS, diffS*1e3)
	t.legalMS = append(t.legalMS, res.LegalTime.Seconds()*1e3)
	t.dpMS = append(t.dpMS, res.DPTime.Seconds()*1e3)
	t.changed += res.ChangedCells
	t.windows += len(res.Windows)
	t.repaired += res.Repaired
	t.reuse += res.ReuseRatio
	t.legalS += res.LegalTime.Seconds()
	t.dpS += res.DPTime.Seconds()
	t.legalPlaced += res.Legal.Placed
	t.legalFallbacks += res.Legal.Fallbacks
	t.dpTrials += res.DP.Trials
	t.dpMoves += res.DP.Swaps + res.DP.Reorders + res.DP.Shifts
}

// addLayers writes the stream's per-layer numbers: per-delta medians and
// means for the eco layer, stream totals for legal and dp.
func (t *ecoTotals) addLayers(l map[string]float64) {
	if t.deltas == 0 {
		return
	}
	n := float64(t.deltas)
	l["eco.diff_ms_p50"] = median(t.diffMS)
	l["eco.legal_ms_p50"] = median(t.legalMS)
	l["eco.dp_ms_p50"] = median(t.dpMS)
	l["eco.changed_cells"] = float64(t.changed) / n
	l["eco.windows"] = float64(t.windows) / n
	l["eco.repaired_cells"] = float64(t.repaired) / n
	l["eco.reuse_ratio"] = t.reuse / n
	addLegalDP(l, t.legalS, t.legalPlaced, t.legalFallbacks, t.dpS, t.dpTrials, t.dpMoves)
}
