package serve

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/store"
)

// dedupKey derives the artifact-store key for a submission against the
// config the manager would actually run: its -workers,
// -congestion-source and -route-last-rounds defaults applied. Empty
// defaults leave the config as submitted, so keys of daemons without
// them are unchanged.
func (m *Manager) dedupKey(d *db.Design, spec Spec) (string, error) {
	return DedupKey(d, spec, m.effectiveConfig(spec))
}

// DedupKey derives the artifact-store key for a submission: the design's
// canonical fingerprint plus everything about the spec that shapes the
// result — cfg, the effective placer config (spec.Config with the
// serving daemon's defaults applied, as placeJob would run it), the
// evaluate flag (it adds routed metrics to the report) and the heatmap
// flag (it adds an artifact). TimeoutMS and Checkpoint are deliberately
// excluded: they change when and where a job runs, not what a completed
// job produces. The fleet coordinator computes the same key so identical
// submissions short-circuit fleet-wide, not just per worker; it cannot
// see its workers' congestion defaults, so it passes spec.Config with
// only its own Workers default applied.
func DedupKey(d *db.Design, spec Spec, cfg core.Config) (string, error) {
	// Delta (ECO) jobs key separately from full placements of the same
	// design: their result depends on the referenced base, and a windowed
	// repair must never be served as the cached answer to a from-scratch
	// submission (or vice versa).
	base := ""
	switch {
	case spec.BaseJob != "":
		base = "job:" + spec.BaseJob
	case spec.BaseFingerprint != "":
		base = "fp:" + spec.BaseFingerprint
	}
	blob, err := json.Marshal(struct {
		Design   string      `json:"design"`
		Config   core.Config `json:"config"`
		Evaluate bool        `json:"evaluate"`
		Heatmaps bool        `json:"heatmaps"`
		Base     string      `json:"base,omitempty"`
	}{d.Name, cfg, spec.Evaluate, spec.Heatmaps, base})
	if err != nil {
		return "", err
	}
	return store.Key(d.Fingerprint(), blob), nil
}

// cachedJob registers a job that is born done: the artifact store already
// holds the result of an identical submission, so the placer never runs.
// The job is journaled like any other (a restart lists it, terminal), and
// its progress stream is a single terminal event with the cached marker.
func (m *Manager) cachedJob(spec Spec, d *db.Design, arts map[string][]byte) (*Job, error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrShuttingDown
	}
	m.nextID++
	now := time.Now()
	j := &Job{
		ID:     fmt.Sprintf("job-%06d", m.nextID),
		Spec:   spec,
		broker: NewBroker(),
	}
	j.state = StateDone
	j.cached = true
	j.congSource, j.switchover = m.effectiveConfig(spec).ResolvedCongestion()
	j.submitted = now
	j.started = now
	j.finished = now
	j.design = d
	j.report = arts[ReportFile]
	j.pl = arts[ResultFile]
	j.trace = arts[TraceFile]
	if hb := arts[HeatmapsFile]; hb != nil {
		json.Unmarshal(hb, &j.heatmaps)
	}
	if m.opt.StateDir != "" {
		if jj, err := openJobJournal(m.jobDir(j.ID)); err == nil {
			j.journal = jj
			j.broker.persist = jj.appendEvent
		} else {
			m.opt.Logger.Warn("journal open failed for cached job", "job", j.ID, "err", err)
		}
	}
	m.jobs[j.ID] = j
	m.order = append(m.order, j.ID)
	m.mu.Unlock()

	if j.journal != nil {
		if err := j.journal.writeSpec(jobRecord{ID: j.ID, Submitted: now, Spec: spec}); err != nil {
			m.opt.Logger.Warn("journal spec write failed", "job", j.ID, "err", err)
		}
		j.journal.saveArtifact(ReportFile, j.report)
		j.journal.saveArtifact(ResultFile, j.pl)
		j.journal.saveArtifact(HeatmapsFile, arts[HeatmapsFile])
		j.journal.saveArtifact(TraceFile, j.trace)
	}
	j.broker.Publish(Event{Type: EventState, State: StateDone, Cached: true})
	j.broker.Close()
	if j.journal != nil {
		j.journal.close()
	}
	m.stats.done.Add(1)
	m.opt.Logger.Info("job served from artifact store", "job", j.ID, "design", d.Name)
	return j, nil
}
