package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"repro/internal/bookshelf"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/route"
	"repro/internal/snap"
)

// effectiveConfig is the job's config with the manager-level defaults
// applied — the config placeJob actually runs, the one the run report's
// config block records, and the one job-status congestion resolution
// reflects.
func (m *Manager) effectiveConfig(spec Spec) core.Config {
	cfg := spec.Config
	if cfg.Workers == 0 {
		cfg.Workers = m.opt.Workers
	}
	if cfg.CongestionSource == "" {
		cfg.CongestionSource = m.opt.CongestionSource
	}
	if cfg.RouteLastRounds == 0 {
		cfg.RouteLastRounds = m.opt.RouteLastRounds
	}
	return cfg
}

// placeJob is the default job body: it places the job's design with a
// live-streaming telemetry recorder, optionally routes and scores the
// result, and stores the artifacts (versioned JSON report, .pl bytes,
// heatmaps). On cancellation it still assembles and stores the report —
// with the canceled marker set — so clients always get a post-mortem of
// how far the run got.
func (m *Manager) placeJob(ctx context.Context, j *Job) error {
	d := j.design
	if d == nil {
		return errors.New("serve: job has no design (internal error)")
	}
	rec := obs.New(obs.Config{
		Logger:          m.opt.Logger.With("job", j.ID),
		CaptureHeatmaps: j.Spec.Heatmaps,
		SampleResources: true, // placerd reports always attribute stage cost
		OnEvent:         j.broker.publishObs,
	})
	cfg := m.effectiveConfig(j.Spec)
	cfg.Obs = rec
	if j.journal != nil {
		cfg.CheckpointEvery = m.opt.CheckpointEvery
		cfg.Checkpoint = func(st *snap.State) {
			if err := j.SaveCheckpoint(st); err != nil {
				m.opt.Logger.Warn("checkpoint write failed", "job", j.ID, "err", err)
			}
		}
	}
	placer, err := core.New(cfg)
	if err != nil {
		return fmt.Errorf("%w: %w", ErrBadSpec, err)
	}

	t0 := time.Now()
	var res core.Result
	var placeErr error
	var ecoSum *obs.EcoSummary
	if j.ecoBase != nil {
		res, ecoSum, placeErr = m.placeEco(ctx, j, placer, d)
	} else if j.resume != nil {
		// Recovered job with a journaled checkpoint: resume mid-flow. A
		// resume rejected up front (e.g. the reloaded design no longer
		// matches the checkpoint) falls back to a fresh run rather than
		// failing the job.
		m.stats.resumed.Add(1)
		m.opt.Logger.Info("resuming job from checkpoint", "job", j.ID,
			"stage", j.resume.Stage.String(), "round", j.resume.Round)
		res, placeErr = placer.PlaceFromCheckpoint(ctx, d, j.resume)
		if placeErr != nil && ctx.Err() == nil {
			m.opt.Logger.Warn("resume failed, restarting from scratch", "job", j.ID, "err", placeErr)
			res, placeErr = placer.PlaceContext(ctx, d)
		}
	} else {
		res, placeErr = placer.PlaceContext(ctx, d)
	}
	total := time.Since(t0)

	row := metrics.Row{
		Design: d.Name, Variant: "placerd",
		HPWL: res.HPWLFinal, Overflow: res.Overflow,
		Overlaps: res.Overlaps, FenceViol: res.FenceViolations, OutOfDie: res.OutOfDie,
		GPSeconds: res.GPTime.Seconds(), TotalSeconds: total.Seconds(),
	}
	if placeErr == nil && j.Spec.Evaluate && d.Route != nil {
		sc, err := route.EvaluateDesignCtx(ctx, d, route.RouterOptions{
			Workers: cfg.Workers, Obs: rec, TraceLabel: "evaluate",
		})
		if err != nil {
			placeErr = err
		} else {
			row.ScaledHPWL = sc.ScaledHPWL
			row.RC = sc.RC
			row.ACE = sc.ACE
		}
	}

	rep := rec.BuildReport()
	rep.Tool = "placerd"
	stats := d.ComputeStats()
	rep.Design = &stats
	rep.Config = cfg
	rep.Metrics = &row
	rep.Eco = ecoSum
	if placeErr == nil {
		j.setOutcome(&QualityStatus{
			Overlaps:        res.Overlaps,
			FenceViolations: res.FenceViolations,
			OutOfDie:        res.OutOfDie,
		}, ecoSum)
	} else {
		j.setOutcome(nil, ecoSum)
	}
	rep.Canceled = placeErr != nil &&
		(errors.Is(placeErr, context.Canceled) || errors.Is(placeErr, context.DeadlineExceeded))
	m.stats.observeStages(rep)
	var repBuf bytes.Buffer
	if err := json.NewEncoder(&repBuf).Encode(rep); err != nil {
		return err
	}
	var traceBuf bytes.Buffer
	if err := rep.WriteChromeTrace(&traceBuf); err != nil {
		return err
	}

	var pl []byte
	if placeErr == nil {
		var plBuf bytes.Buffer
		if err := bookshelf.WritePl(&plBuf, d); err != nil {
			return err
		}
		pl = plBuf.Bytes()
	}
	heats := rec.Heatmaps()
	j.SetArtifacts(repBuf.Bytes(), pl, heats, traceBuf.Bytes())

	var heatsJSON []byte
	if j.Spec.Heatmaps && len(heats) > 0 {
		heatsJSON, _ = json.Marshal(heats)
	}
	if j.journal != nil {
		j.journal.saveArtifact(ReportFile, repBuf.Bytes())
		j.journal.saveArtifact(ResultFile, pl)
		j.journal.saveArtifact(HeatmapsFile, heatsJSON)
		j.journal.saveArtifact(TraceFile, traceBuf.Bytes())
	}
	// A successfully completed run feeds the artifact store, so the next
	// identical submission is answered from disk.
	if placeErr == nil && m.store != nil && j.storeKey != "" {
		arts := map[string][]byte{
			ReportFile: repBuf.Bytes(),
			ResultFile: pl,
			TraceFile:  traceBuf.Bytes(),
		}
		if heatsJSON != nil {
			arts[HeatmapsFile] = heatsJSON
		}
		if err := m.store.Put(j.storeKey, arts); err != nil {
			m.opt.Logger.Warn("artifact store put failed", "job", j.ID, "err", err)
		}
	}
	// Index the placed result under the input fingerprint so a future
	// delta job can reference it by base_fingerprint alone.
	if placeErr == nil && m.store != nil && j.hasFP && len(pl) > 0 {
		if err := m.store.Put(ecoBaseKey(j.inputFP), map[string][]byte{ResultFile: pl}); err != nil {
			m.opt.Logger.Warn("eco-base store put failed", "job", j.ID, "err", err)
		}
	}
	return placeErr
}
