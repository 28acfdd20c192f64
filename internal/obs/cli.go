package obs

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"repro/internal/db"
	"repro/internal/metrics"
)

// CLI is a command-line tool's telemetry flags and the run plumbing the
// tools share: Profile and Context set up profiling and the run's
// cancellation, Recorder builds the recorder the flags ask for, and
// Flush and FlushCanceled write the report and trace of a run.
// cmd/placer and cmd/evaluate share all of it.
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

// Profile starts a CPU profile into cpuPath, when set, and returns the
// function the caller defers: it writes a heap profile to memPath, when
// set, and ends the CPU profile. A heap profile that cannot be written is
// reported on stderr.
func (c CLI) Profile(cpuPath, memPath string) (stop func(), err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() {
		if memPath != "" {
			if err := writeHeapProfile(memPath); err != nil {
				fmt.Fprintf(os.Stderr, "%s: memprofile: %v\n", c.Tool, err)
			}
		}
		if cpu != nil {
			pprof.StopCPUProfile()
			cpu.Close()
		}
	}, nil
}

// writeHeapProfile writes a heap profile, after a collection, to path.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	return pprof.WriteHeapProfile(f)
}

// Context returns the run's context: canceled by SIGINT or SIGTERM and,
// with a positive timeout, after it. The caller defers cancel.
func (c CLI) Context(timeout time.Duration) (ctx context.Context, cancel context.CancelFunc) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	if timeout <= 0 {
		return ctx, stop
	}
	ctx, cancelTimeout := context.WithTimeout(ctx, timeout)
	return ctx, func() { cancelTimeout(); stop() }
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

// Flush writes the report and trace of a finished run whose result is
// row; a file that cannot be written is an error. cfg is the report's
// config record and d the design it describes.
func (c CLI) Flush(rec *Recorder, cfg any, d *db.Design, row *metrics.Row) error {
	if c.Report == "" && c.Trace == "" {
		return nil
	}
	rep := c.report(rec, cfg, d)
	rep.Metrics = row
	return c.write(rep, func(_ string, err error) error { return err })
}

// FlushCanceled writes the report and trace post-mortems of a run that
// ended with runErr — with the canceled marker when the cause was a
// signal or a timeout — and passes runErr through; a file that cannot be
// written is reported on stderr. cfg is the report's config record and d
// the design it describes.
func (c CLI) FlushCanceled(rec *Recorder, cfg any, d *db.Design, runErr error) error {
	if c.Report == "" && c.Trace == "" {
		return runErr
	}
	rep := c.report(rec, cfg, d)
	rep.Canceled = errors.Is(runErr, context.Canceled) || errors.Is(runErr, context.DeadlineExceeded)
	c.write(rep, func(what string, err error) error {
		fmt.Fprintf(os.Stderr, "%s: %s: %v\n", c.Tool, what, err)
		return nil
	})
	return runErr
}

// report builds the tool's run report from rec.
func (c CLI) report(rec *Recorder, cfg any, d *db.Design) *Report {
	rep := rec.BuildReport()
	rep.Tool = c.Tool
	stats := d.ComputeStats()
	rep.Design = &stats
	rep.Config = cfg
	return rep
}

// write writes rep to the report and trace paths that are set, printing
// each path written. A failed write goes to onFail, named "report" or
// "trace"; an error it returns stops the writes and is returned.
func (c CLI) write(rep *Report, onFail func(what string, err error) error) error {
	if c.Report != "" {
		if err := rep.WriteFile(c.Report); err != nil {
			if err := onFail("report", err); err != nil {
				return err
			}
		} else {
			fmt.Println("wrote", c.Report)
		}
	}
	if c.Trace != "" {
		if err := rep.WriteChromeTraceFile(c.Trace); err != nil {
			return onFail("trace", err)
		}
		fmt.Println("wrote", c.Trace)
	}
	return nil
}
