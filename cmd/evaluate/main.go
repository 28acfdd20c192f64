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
	"flag"
	"fmt"
	"os"

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
	tel := obs.CLI{Tool: "evaluate", Report: *report, Trace: *trace, Verbose: *verbose, LogLevel: *logLvl}
	stopProfile, err := tel.Profile(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer stopProfile()
	rec, err := tel.Recorder()
	if err != nil {
		return err
	}
	// SIGINT/SIGTERM and -timeout cancel the routing run through its
	// context; the -report post-mortem is still flushed.
	ctx, cancel := tel.Context(*timeout)
	defer cancel()
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
	cfg := map[string]any{"rrr": *rrr, "workers": *workers}
	if d.Route == nil {
		fmt.Printf("HPWL %.6g (no .route file: congestion scoring skipped)\n", d.HPWL())
		return finishEvaluate(tel, rec, cfg, d, row, *asJSON)
	}
	grid, err := route.NewGrid(d)
	var m route.Metrics
	if err == nil {
		m, err = route.Evaluate(ctx, grid, d, route.RouterOptions{
			MaxRRRIters: *rrr, Workers: *workers, Obs: rec, TraceLabel: "evaluate",
		})
	}
	if err != nil {
		return tel.FlushCanceled(rec, cfg, d, err)
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
		// The heatmap draws the map the score was taken from.
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
	return finishEvaluate(tel, rec, cfg, d, row, *asJSON)
}

// finishEvaluate prints the score row (text table, plus JSON with -json)
// and writes the run report and trace when requested.
func finishEvaluate(tel obs.CLI, rec *obs.Recorder, cfg any, d *db.Design, row metrics.Row, asJSON bool) error {
	fmt.Println(metrics.Header())
	fmt.Println(row)
	if asJSON {
		var tbl metrics.Table
		tbl.Add(row)
		if err := tbl.WriteJSON(os.Stdout); err != nil {
			return err
		}
	}
	return tel.Flush(rec, cfg, d, &row)
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
