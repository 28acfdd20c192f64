// Command evaluate scores an existing placement the way the DAC-2012
// contest evaluator did: it loads a Bookshelf design (the .pl carries the
// placement to score), globally routes it over the .route grid, and
// reports HPWL, the ACE congestion profile, RC and scaled HPWL. It also
// performs legality checks so a placement's violations are visible next to
// its score.
//
// Usage:
//
//	evaluate -aux design.aux [-pl placed.pl] [-svg out.svg]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"

	"repro/internal/bookshelf"
	"repro/internal/buildinfo"
	"repro/internal/db"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/route"
	"repro/internal/viz"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "evaluate:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		auxPath = flag.String("aux", "", "Bookshelf .aux file")
		plPath  = flag.String("pl", "", "alternative .pl with the placement to score")
		svgPath = flag.String("svg", "", "write a congestion heatmap SVG here")
		rrr     = flag.Int("rrr", 0, "rip-up and reroute rounds (0 = default)")
		workers = flag.Int("workers", 0, "router worker count (0 = auto, honors REPRO_WORKERS)")
		timeout = flag.Duration("timeout", 0, "abort the run after this long (0 = no limit); a partial -report is still written")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = flag.String("memprofile", "", "write a heap profile to this file at exit")
		report  = flag.String("report", "", "write a machine-readable JSON run report to this file")
		trace   = flag.String("trace", "", "write a Chrome trace-event JSON (open in Perfetto/chrome://tracing) to this file")
		asJSON  = flag.Bool("json", false, "also print the score row as JSON on stdout")
		fprint  = flag.Bool("fingerprint", false, "print the design's canonical fingerprint (hex) and exit without scoring")
		verbose = flag.Bool("verbose", false, "debug logging to stderr (shorthand for -log-level debug)")
		logLvl  = flag.String("log-level", "", "stderr log level: debug, info, warn or error (empty = logging off)")
	)
	showVersion := flag.Bool("version", false, "print build version (go version + vcs revision) and exit")
	flag.Parse()
	if *showVersion {
		fmt.Println(buildinfo.String())
		return nil
	}
	if *auxPath == "" {
		return fmt.Errorf("need -aux (run with -h for usage)")
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "evaluate: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "evaluate: memprofile:", err)
			}
		}()
	}
	rec, err := buildRecorder(*report, *trace, *verbose, *logLvl)
	if err != nil {
		return err
	}
	// SIGINT/SIGTERM and -timeout cancel the routing run through its
	// context; the -report post-mortem is still flushed.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	d, err := bookshelf.ReadDesign(*auxPath)
	if err != nil {
		return err
	}
	if *plPath != "" {
		if err := applyPl(d, *plPath); err != nil {
			return err
		}
	}
	if *fprint {
		// The canonical identity of this placement problem: what placerd
		// keys its artifact cache by. Printed alone so scripts can diff
		// reformatted Bookshelf bundles without scoring them.
		fp := d.Fingerprint()
		fmt.Printf("%x  %s\n", fp, d.Name)
		return nil
	}
	fmt.Println(d.ComputeStats())
	overlaps, fenceViol := d.OverlapViolations(), d.FenceViolations()
	fmt.Printf("legality: overlaps=%d fence-violations=%d out-of-die=%d\n",
		overlaps, fenceViol, d.OutOfDie())

	row := metrics.Row{
		Design: d.Name, Variant: "eval",
		HPWL: d.HPWL(), Overlaps: overlaps, FenceViol: fenceViol,
		OutOfDie: d.OutOfDie(),
	}
	if d.Route == nil {
		fmt.Printf("HPWL %.6g (no .route file: congestion scoring skipped)\n", d.HPWL())
		return finishEvaluate(rec, d, row, *report, *trace, *asJSON, *rrr, *workers)
	}
	m, err := route.EvaluateDesignCtx(ctx, d, route.RouterOptions{
		MaxRRRIters: *rrr, Workers: *workers, Obs: rec, TraceLabel: "evaluate",
	})
	if err != nil {
		return flushCanceledReport(rec, *report, *trace, d, *rrr, *workers, err)
	}
	// The row carries no wall time: evaluate's stdout stays byte-identical
	// across runs and worker counts (the determinism check diffs it), and
	// timing lives in the -report spans and route trace instead.
	row.ScaledHPWL = m.ScaledHPWL
	row.RC = m.RC
	row.ACE = m.ACE
	row.Overflow = m.Overflow
	fmt.Printf("score: %s\n", m)
	fmt.Printf("ACE:  ")
	for i, pct := range route.ACEPercentiles {
		fmt.Printf(" %.1f%%=%.3f", pct, m.ACE[i])
	}
	fmt.Println()

	if *svgPath != "" {
		grid, err := route.NewGrid(d)
		if err != nil {
			return err
		}
		r := route.NewRouter(grid, route.RouterOptions{
			MaxRRRIters: *rrr, Workers: *workers, Obs: rec, TraceLabel: "svg",
		})
		r.RouteDesign(d)
		f, err := os.Create(*svgPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := viz.CongestionSVG(f, grid, 800); err != nil {
			return err
		}
		fmt.Println("wrote", *svgPath)
	}
	return finishEvaluate(rec, d, row, *report, *trace, *asJSON, *rrr, *workers)
}

// flushCanceledReport writes the -report and -trace post-mortems for a
// run that ended early — with the canceled marker when the cause was
// SIGINT or -timeout — and passes the run error through.
func flushCanceledReport(rec *obs.Recorder, report, trace string, d *db.Design, rrr, workers int, runErr error) error {
	if report == "" && trace == "" {
		return runErr
	}
	rep := rec.BuildReport()
	rep.Tool = "evaluate"
	stats := d.ComputeStats()
	rep.Design = &stats
	rep.Config = map[string]any{"rrr": rrr, "workers": workers}
	rep.Canceled = errors.Is(runErr, context.Canceled) || errors.Is(runErr, context.DeadlineExceeded)
	if report != "" {
		if err := rep.WriteFile(report); err != nil {
			fmt.Fprintln(os.Stderr, "evaluate: report:", err)
		} else {
			fmt.Println("wrote", report)
		}
	}
	if trace != "" {
		if err := rep.WriteChromeTraceFile(trace); err != nil {
			fmt.Fprintln(os.Stderr, "evaluate: trace:", err)
		} else {
			fmt.Println("wrote", trace)
		}
	}
	return runErr
}

// buildRecorder constructs the telemetry recorder the flags ask for, or
// nil (telemetry fully disabled) when none do.
func buildRecorder(report, trace string, verbose bool, level string) (*obs.Recorder, error) {
	if verbose && level == "" {
		level = "debug"
	}
	var logger *slog.Logger
	if level != "" {
		var lv slog.Level
		if err := lv.UnmarshalText([]byte(level)); err != nil {
			return nil, fmt.Errorf("bad -log-level %q (want debug, info, warn or error)", level)
		}
		logger = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lv}))
	}
	if report == "" && trace == "" && logger == nil {
		return nil, nil
	}
	return obs.New(obs.Config{
		Logger:          logger,
		SampleResources: report != "" || trace != "",
	}), nil
}

// finishEvaluate prints the score row (text table, plus JSON with -json)
// and writes the run report and trace when requested.
func finishEvaluate(rec *obs.Recorder, d *db.Design, row metrics.Row, report, trace string, asJSON bool, rrr, workers int) error {
	fmt.Println(metrics.Header())
	fmt.Println(row)
	if asJSON {
		var tbl metrics.Table
		tbl.Add(row)
		if err := tbl.WriteJSON(os.Stdout); err != nil {
			return err
		}
	}
	if report == "" && trace == "" {
		return nil
	}
	rep := rec.BuildReport()
	rep.Tool = "evaluate"
	stats := d.ComputeStats()
	rep.Design = &stats
	rep.Config = map[string]any{"rrr": rrr, "workers": workers}
	rep.Metrics = &row
	if report != "" {
		if err := rep.WriteFile(report); err != nil {
			return err
		}
		fmt.Println("wrote", report)
	}
	if trace != "" {
		if err := rep.WriteChromeTraceFile(trace); err != nil {
			return err
		}
		fmt.Println("wrote", trace)
	}
	return nil
}

// applyPl overrides cell positions and orientations from a standalone
// .pl file, skipping names the design lacks. Fixed markers are not
// applied: which cells are fixed is part of the problem the .aux states,
// not of the placement being scored.
func applyPl(d *db.Design, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	n := 0
	err = bookshelf.ReadPl(f, path, func(p bookshelf.PlRecord) error {
		if ci := d.CellIndex(p.Name); ci >= 0 {
			d.Cells[ci].Pos = geom.Point{X: p.X, Y: p.Y}
			d.Cells[ci].Orient = p.Orient
			n++
		}
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Printf("applied %d positions from %s\n", n, path)
	return nil
}
