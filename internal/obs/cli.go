package obs

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"os"

	"repro/internal/db"
)

// CLI is a command-line tool's telemetry flags. Recorder builds the
// recorder they ask for; FlushCanceled writes the post-mortem of a run
// that ended early. cmd/placer and cmd/evaluate share both.
type CLI struct {
	// Tool names the tool in the report and prefixes its stderr lines.
	Tool string
	// Report and Trace are the -report and -trace paths; empty is off.
	Report, Trace string
	// Heatmaps captures per-round congestion heatmaps.
	Heatmaps bool
	// Verbose is shorthand for LogLevel "debug"; LogLevel sets the
	// stderr log level, empty being logging off.
	Verbose  bool
	LogLevel string
}

// Recorder constructs the telemetry recorder the flags ask for, or nil
// (telemetry fully disabled) when none do. Resource sampling rides
// along whenever a report or trace will be rendered — it is a handful of
// runtime/metrics reads per stage, and both outputs attribute cost.
func (c CLI) Recorder() (*Recorder, error) {
	level := c.LogLevel
	if c.Verbose && level == "" {
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
	if c.Report == "" && c.Trace == "" && !c.Heatmaps && logger == nil {
		return nil, nil
	}
	return New(Config{
		Logger:          logger,
		CaptureHeatmaps: c.Heatmaps,
		SampleResources: c.Report != "" || c.Trace != "",
	}), nil
}

// FlushCanceled writes the report and trace post-mortems of a run that
// ended with runErr — with the canceled marker when the cause was a
// signal or a timeout — and passes runErr through. cfg is the report's
// config record and d the design it describes.
func (c CLI) FlushCanceled(rec *Recorder, cfg any, d *db.Design, runErr error) error {
	if c.Report == "" && c.Trace == "" {
		return runErr
	}
	rep := rec.BuildReport()
	rep.Tool = c.Tool
	stats := d.ComputeStats()
	rep.Design = &stats
	rep.Config = cfg
	rep.Canceled = errors.Is(runErr, context.Canceled) || errors.Is(runErr, context.DeadlineExceeded)
	if c.Report != "" {
		if err := rep.WriteFile(c.Report); err != nil {
			fmt.Fprintf(os.Stderr, "%s: report: %v\n", c.Tool, err)
		} else {
			fmt.Println("wrote", c.Report)
		}
	}
	if c.Trace != "" {
		if err := rep.WriteChromeTraceFile(c.Trace); err != nil {
			fmt.Fprintf(os.Stderr, "%s: trace: %v\n", c.Tool, err)
		} else {
			fmt.Println("wrote", c.Trace)
		}
	}
	return runErr
}
