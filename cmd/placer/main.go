// Command placer runs the routability-driven hierarchical mixed-size
// placement flow on a Bookshelf design (or a generated synthetic one) and
// reports contest-style metrics.
//
// Usage:
//
//	placer -aux design.aux [flags]            # place a Bookshelf design
//	placer -synth sb-b [flags]                # place a built-in benchmark
//
// Flags select the placer variant (wirelength model, routability loop,
// multilevel, fences) so every baseline of the paper's evaluation is
// reachable from the command line. The placed design is written back as
// <name>.out.pl (and optionally a full Bookshelf bundle and SVG plots).
//
// Long runs can be made restartable: -checkpoint-dir writes a resumable
// snapshot every -checkpoint-every λ rounds (and every routability
// iteration), and -resume picks a killed run back up from such a
// snapshot:
//
//	placer -synth sb-b -checkpoint-dir ck/           # killed mid-run
//	placer -synth sb-b -resume ck/sb-b.snap          # continues to a legal result
//
// A resume is validated against the configuration recorded in the
// checkpoint: result-shaping flags (-model, -congestion-source,
// -route-last-rounds, the -no-* switches, …) must match the original run
// or the resume is rejected up front.
//
// After a small netlist edit, -eco-base skips the full flow entirely:
// it reuses a previous result (.pl or .snap) for every unchanged cell and
// re-places only windows around the changed ones:
//
//	placer -synth sb-b                               # full run → sb-b.out.pl
//	placer -aux edited.aux -eco-base sb-b.out.pl     # seconds, not minutes
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/bookshelf"
	"repro/internal/buildinfo"
	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/eco"
	"repro/internal/gen"
	"repro/internal/legal"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/route"
	"repro/internal/snap"
	"repro/internal/viz"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "placer:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		auxPath   = flag.String("aux", "", "Bookshelf .aux file to place")
		synth     = flag.String("synth", "", "built-in synthetic benchmark (sb-a..sb-e, congested) instead of -aux")
		seed      = flag.Int64("seed", 0, "override the synthetic benchmark seed")
		model     = flag.String("model", "wa", "wirelength model: wa or lse")
		density   = flag.Float64("density", 0, "target density (0 = auto)")
		noRoute   = flag.Bool("no-routability", false, "disable the congestion-driven inflation loop")
		noML      = flag.Bool("no-multilevel", false, "disable multilevel clustering")
		noFence   = flag.Bool("no-fences", false, "strip fence constraints (flat placement)")
		noDP      = flag.Bool("no-dp", false, "skip detailed placement")
		routeIter = flag.Int("routability-iters", 0, "routability loop iterations (0 = default)")
		congSrc   = flag.String("congestion-source", "", "routability congestion signal: route (every round) or estimate (fast RUDY+pin-density estimator for early rounds)")
		routeLast = flag.Int("route-last-rounds", 0, "with -congestion-source estimate: trailing rounds that still use the real router (0 = default 1)")
		outDir    = flag.String("out", ".", "output directory")
		writeAll  = flag.Bool("write-bookshelf", false, "write the full placed Bookshelf bundle")
		svg       = flag.Bool("svg", false, "write placement and congestion SVGs")
		rowFlip   = flag.Bool("row-flip", false, "flip alternate rows (FS) for power-rail sharing after placement")
		evaluate  = flag.Bool("evaluate", true, "globally route and report RC / scaled HPWL")
		ckDir     = flag.String("checkpoint-dir", "", "write resumable placement checkpoints (<design>.snap) into this directory")
		ckEvery   = flag.Int("checkpoint-every", 1, "lambda rounds between checkpoints (with -checkpoint-dir)")
		resume    = flag.String("resume", "", "resume from a checkpoint file instead of placing from scratch")
		ecoBase   = flag.String("eco-base", "", "incremental (ECO) placement: reuse this base placement (.pl or .snap) and repair only windows around the changed cells; large deltas fall back to a full place")
		workers   = flag.Int("workers", 0, "worker count for parallel kernels incl. DP and legalization (0 = auto, honors REPRO_WORKERS)")
		timeout   = flag.Duration("timeout", 0, "abort the run after this long (0 = no limit); a partial -report is still written")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file at exit")
		report    = flag.String("report", "", "write a machine-readable JSON run report to this file")
		tracePath = flag.String("trace", "", "write a Chrome trace-event JSON (open in Perfetto/chrome://tracing) to this file")
		heatDir   = flag.String("heatmap-dir", "", "write per-iteration congestion heatmap SVGs into this directory")
		verbose   = flag.Bool("verbose", false, "debug logging to stderr (shorthand for -log-level debug)")
		logLevel  = flag.String("log-level", "", "stderr log level: debug, info, warn or error (empty = logging off)")
	)
	showVersion := flag.Bool("version", false, "print build version (go version + vcs revision) and exit")
	flag.Parse()
	if *showVersion {
		fmt.Println(buildinfo.String())
		return nil
	}

	tel := obs.CLI{
		Tool: "placer", Report: *report, Trace: *tracePath,
		Heatmaps: *heatDir != "", Verbose: *verbose, LogLevel: *logLevel,
	}
	stopProfile, err := tel.Profile(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer stopProfile()
	rec, err := tel.Recorder()
	if err != nil {
		return err
	}

	// SIGINT/SIGTERM and -timeout cancel the run through the placement
	// flow's context; the -report post-mortem is still flushed.
	ctx, cancel := tel.Context(*timeout)
	defer cancel()

	d, err := loadDesign(*auxPath, *synth, *seed)
	if err != nil {
		return err
	}
	fmt.Println(d.ComputeStats())

	cfg := core.Config{
		Model:              *model,
		TargetDensity:      *density,
		Workers:            *workers,
		DisableRoutability: *noRoute,
		DisableMultilevel:  *noML,
		DisableFences:      *noFence,
		DisableDP:          *noDP,
		RoutabilityIters:   *routeIter,
		CongestionSource:   *congSrc,
		RouteLastRounds:    *routeLast,
		Obs:                rec,
	}
	if *ckDir != "" {
		if err := os.MkdirAll(*ckDir, 0o755); err != nil {
			return err
		}
		ckPath := filepath.Join(*ckDir, d.Name+".snap")
		cfg.CheckpointEvery = *ckEvery
		cfg.Checkpoint = func(st *snap.State) {
			if err := snap.WriteFile(ckPath, st); err != nil {
				fmt.Fprintln(os.Stderr, "placer: checkpoint:", err)
			}
		}
	}
	placer, err := core.New(cfg)
	if err != nil {
		return err
	}
	t0 := time.Now()
	var res core.Result
	switch {
	case *resume != "" && *ecoBase != "":
		return fmt.Errorf("use either -resume or -eco-base, not both")
	case *resume != "":
		st, rerr := snap.ReadFile(*resume)
		if rerr != nil {
			return fmt.Errorf("reading checkpoint %s: %w", *resume, rerr)
		}
		// Fail the config check before any placement work, with a hint at
		// the fix: the checkpoint records the knobs it ran under, and
		// resuming under different ones would finish a run neither
		// configuration describes.
		if verr := core.ValidateResumeConfig(cfg, st); verr != nil {
			return fmt.Errorf("%w\n(make the flags match the checkpointed run, or drop -resume to place from scratch)", verr)
		}
		fmt.Printf("resume:    %s (stage %s, round %d)\n", *resume, st.Stage, st.Round)
		res, err = placer.PlaceFromCheckpoint(ctx, d, st)
	case *ecoBase != "":
		res, err = placeEco(ctx, placer, d, *ecoBase)
	default:
		res, err = placer.PlaceContext(ctx, d)
	}
	if err != nil {
		return tel.FlushCanceled(rec, cfg, d, err)
	}
	total := time.Since(t0)

	fmt.Printf("placement: HPWL gp=%.4g legal=%.4g final=%.4g\n", res.HPWLGlobal, res.HPWLLegal, res.HPWLFinal)
	fmt.Printf("quality:   overlaps=%d fence-violations=%d out-of-die=%d legal-fallbacks=%d\n",
		res.Overlaps, res.FenceViolations, res.OutOfDie, res.Legal.Fallbacks)
	fmt.Printf("effort:    levels=%d lambda-rounds=%d cg-iters=%d value-evals=%d value-cuts=%d gp=%.2fs legal=%.2fs dp=%.2fs total=%.2fs\n",
		res.Levels, res.LambdaRounds, res.CGIters, res.ValueEvals, res.ValueCuts,
		res.GPTime.Seconds(), res.LegalTime.Seconds(), res.DPTime.Seconds(), total.Seconds())
	if *rowFlip {
		fmt.Printf("row-flip:  %d cells flipped to FS\n", legal.AlternateRowOrientations(d))
	}

	row := metrics.Row{
		Design: d.Name, Variant: variantName(cfg),
		HPWL: res.HPWLFinal, Overflow: res.Overflow,
		Overlaps: res.Overlaps, FenceViol: res.FenceViolations, OutOfDie: res.OutOfDie,
		GPSeconds: res.GPTime.Seconds(), TotalSeconds: total.Seconds(),
	}
	// The evaluation's routed grid is the one -svg draws.
	var routed *route.Grid
	if *evaluate && d.Route != nil {
		routed, err = route.NewGrid(d)
		var m route.Metrics
		if err == nil {
			m, err = route.Evaluate(ctx, routed, d, route.RouterOptions{Workers: *workers, Obs: rec, TraceLabel: "evaluate"})
		}
		if err != nil {
			return tel.FlushCanceled(rec, cfg, d, err)
		}
		row.ScaledHPWL = m.ScaledHPWL
		row.RC = m.RC
		row.ACE = m.ACE
		fmt.Printf("routed:    %s\n", m)
	}
	fmt.Println(metrics.Header())
	fmt.Println(row)

	// Outputs.
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	plPath := filepath.Join(*outDir, d.Name+".out.pl")
	if err := writePlFile(plPath, d); err != nil {
		return err
	}
	fmt.Println("wrote", plPath)
	if *writeAll {
		aux, err := bookshelf.WriteDesign(d, *outDir)
		if err != nil {
			return err
		}
		fmt.Println("wrote", aux)
	}
	if *svg {
		if err := writeSVGs(*outDir, d, routed, *workers); err != nil {
			return err
		}
	}
	if err := tel.Flush(rec, cfg, d, &row); err != nil {
		return err
	}
	if *heatDir != "" {
		if err := writeHeatmaps(*heatDir, d.Name, rec); err != nil {
			return err
		}
	}
	return nil
}

// placeEco runs the incremental path: diff the loaded design against the
// base placement by name and place it through the placer's one ECO entry,
// which repairs only windows around the changed cells or, for a delta out
// of windowed repair's reach, falls back to the full flow.
func placeEco(ctx context.Context, placer *core.Placer, d *db.Design, basePath string) (core.Result, error) {
	base, err := loadBasePlacement(basePath, d)
	if err != nil {
		return core.Result{}, fmt.Errorf("loading -eco-base %s: %w", basePath, err)
	}
	df := eco.DiffPlacement(d, base)
	fmt.Printf("eco:       base %s: %d changed, %d added, %d removed (%.1f%% reuse)\n",
		basePath, len(df.Changed), len(df.Added), len(df.RemovedNames), 100*df.ReuseRatio())
	res, err := placer.PlaceDelta(ctx, d, df, base)
	if e := res.Eco; e == nil {
		fmt.Println("eco:       delta out of windowed repair's reach, placing from scratch")
	} else if err == nil {
		fmt.Printf("eco:       repaired %d cells in %d windows (%d frozen), legal %.2fs dp %.2fs\n",
			e.Repaired, len(e.Windows), e.Frozen, e.LegalTime.Seconds(), e.DPTime.Seconds())
	}
	return res, err
}

// loadBasePlacement reads an -eco-base file, sniffing the format: snap
// checkpoints carry the RPSN magic, everything else parses as a UCLA .pl.
func loadBasePlacement(path string, d *db.Design) (*eco.Placement, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if bytes.HasPrefix(data, []byte(snap.Magic)) {
		st, err := snap.Decode(data)
		if err != nil {
			return nil, err
		}
		return eco.FromSnap(st, d)
	}
	return eco.ReadPl(bytes.NewReader(data))
}

// writeHeatmaps renders every captured per-round congestion map as an SVG
// named <design>.<label>.svg.
func writeHeatmaps(dir, design string, rec *obs.Recorder) error {
	heats := rec.Heatmaps()
	if len(heats) == 0 {
		fmt.Fprintln(os.Stderr, "placer: no heatmaps captured (design has no route grid or routability loop disabled)")
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, h := range heats {
		path := filepath.Join(dir, fmt.Sprintf("%s.%s.svg", design, h.Label))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := viz.HeatmapSVG(f, h.NX, h.NY, h.Cong, 800); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Println("wrote", path)
	}
	return nil
}

func loadDesign(auxPath, synth string, seed int64) (*db.Design, error) {
	switch {
	case auxPath != "" && synth != "":
		return nil, fmt.Errorf("use either -aux or -synth, not both")
	case auxPath != "":
		return bookshelf.ReadDesign(auxPath)
	case synth != "":
		cfg, ok := gen.Builtin(synth, seed)
		if !ok {
			return nil, fmt.Errorf("unknown synthetic benchmark %q (try sb-a..sb-e or congested)", synth)
		}
		return gen.Generate(cfg)
	default:
		return nil, fmt.Errorf("need -aux or -synth (run with -h for usage)")
	}
}

func variantName(cfg core.Config) string {
	name := cfg.Model
	if name == "" {
		name = "wa"
	}
	if cfg.DisableRoutability {
		name += "-blind"
	}
	if cfg.DisableFences {
		name += "-flat"
	}
	if cfg.DisableMultilevel {
		name += "-1lvl"
	}
	return name
}

// writePlFile writes just the placement (.pl) file, the bytes placerd
// serves as result.pl; -write-bookshelf writes the whole bundle.
func writePlFile(path string, d *db.Design) error {
	var buf bytes.Buffer
	if err := bookshelf.WritePl(&buf, d); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// writeSVGs writes the placement plot and, for a design with a routing
// grid, the congestion plot of routed: the evaluation's grid, or when the
// run was not evaluated, a fresh route at the given worker count.
func writeSVGs(dir string, d *db.Design, routed *route.Grid, workers int) error {
	pf, err := os.Create(filepath.Join(dir, d.Name+".placement.svg"))
	if err != nil {
		return err
	}
	defer pf.Close()
	if err := viz.PlacementSVG(pf, d, 800); err != nil {
		return err
	}
	fmt.Println("wrote", pf.Name())
	if d.Route == nil {
		return nil
	}
	if routed == nil {
		if routed, err = route.NewGrid(d); err != nil {
			return err
		}
		route.NewRouter(routed, route.RouterOptions{Workers: workers}).RouteDesign(d)
	}
	cf, err := os.Create(filepath.Join(dir, d.Name+".congestion.svg"))
	if err != nil {
		return err
	}
	defer cf.Close()
	if err := viz.CongestionSVG(cf, routed, 800); err != nil {
		return err
	}
	fmt.Println("wrote", cf.Name())
	return nil
}
