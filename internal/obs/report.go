package obs

import (
	"bytes"
	"encoding/json"
	"io"

	"repro/internal/atomicfile"
	"repro/internal/db"
	"repro/internal/metrics"
)

// ReportVersion is bumped whenever the report schema changes shape (the
// golden-file test pins the schema for each version).
const ReportVersion = 1

// Report is the versioned, machine-readable record of one run: what was
// placed, with which configuration, how each stage spent its time, how
// the optimization converged, and what it scored.
type Report struct {
	Version int    `json:"version"`
	Tool    string `json:"tool,omitempty"`

	// Canceled marks a run that was aborted by cancellation or timeout;
	// the rest of the report describes the state the run died in (the
	// CLIs and placerd still flush a full report on cancellation).
	Canceled bool `json:"canceled,omitempty"`

	Design *db.Stats `json:"design,omitempty"`
	// Config is the tool configuration (the placer's core.Config, or a
	// CLI-specific record for the evaluator).
	Config any `json:"config,omitempty"`

	// Spans is the stage timing tree in creation order.
	Spans []*SpanRecord `json:"spans,omitempty"`
	// Attribution sums wall time and resource deltas per top-level stage
	// (gp, routability, legalize, dp, route, ...), keyed by root span
	// name. Resource fields are only populated when the recorder sampled
	// resources (Config.SampleResources); wall time is always attributed.
	Attribution map[string]*ResourceRecord `json:"attribution,omitempty"`
	// GPTrace and RouteTrace are the per-round convergence curves.
	GPTrace    []GPRound    `json:"gp_trace,omitempty"`
	RouteTrace []RouteRound `json:"route_trace,omitempty"`

	// Metrics is the final paper-style result row.
	Metrics *metrics.Row `json:"metrics,omitempty"`

	// Heatmaps holds the captured per-round congestion maps (only when
	// capture was requested).
	Heatmaps []Heatmap `json:"heatmaps,omitempty"`

	// Fleet attributes the run to the fleet worker that executed it. The
	// fleet coordinator sets it on reports fetched from workers; it is
	// absent on single-node runs.
	Fleet *FleetAttribution `json:"fleet,omitempty"`

	// Eco describes the incremental (ECO) path when the run repaired a
	// base placement instead of placing from scratch; absent otherwise.
	Eco *EcoSummary `json:"eco,omitempty"`
}

// EcoSummary annotates a report produced by the incremental (ECO) path.
type EcoSummary struct {
	// BaseJob or BaseFingerprint identifies the placement that was reused
	// (whichever the caller provided).
	BaseJob         string `json:"base_job,omitempty"`
	BaseFingerprint string `json:"base_fingerprint,omitempty"`
	// ChangedCells counts re-placed cells (changed + added), Windows the
	// repair rectangles, and ReuseRatio the fraction of cells whose base
	// position transferred untouched.
	ChangedCells int     `json:"changed_cells"`
	Windows      int     `json:"windows"`
	ReuseRatio   float64 `json:"reuse_ratio"`
	// FellBack marks a delta that was out of windowed repair's reach
	// (macro delta or dirty fraction too large): the run completed as a
	// full from-scratch place.
	FellBack bool `json:"fell_back,omitempty"`
}

// FleetAttribution records which fleet worker produced a run and on which
// assignment attempt (1 = never reassigned).
type FleetAttribution struct {
	Worker  string `json:"worker"`
	Addr    string `json:"addr,omitempty"`
	Attempt int    `json:"attempt"`
	// Resumed marks a run that restarted from a checkpoint journaled by an
	// earlier attempt on another worker.
	Resumed bool `json:"resumed,omitempty"`
}

// SpanRecord is the serialized form of a Span subtree. Times are
// milliseconds; StartMS is relative to recorder creation.
type SpanRecord struct {
	Name     string           `json:"name"`
	StartMS  float64          `json:"start_ms"`
	DurMS    float64          `json:"dur_ms"`
	Counters map[string]int64 `json:"counters,omitempty"`
	// Resources is the span's runtime-resource delta (only when the
	// recorder sampled resources).
	Resources *ResourceRecord `json:"resources,omitempty"`
	Children  []*SpanRecord   `json:"children,omitempty"`
}

// BuildReport snapshots the recorder's telemetry into a Report. The
// caller fills in Tool, Design, Config and Metrics. Nil recorder yields
// an empty (but valid, versioned) report.
func (r *Recorder) BuildReport() *Report {
	rep := &Report{Version: ReportVersion}
	if r == nil {
		return rep
	}
	r.mu.Lock()
	spans := append([]*Span(nil), r.spans...)
	rep.GPTrace = append([]GPRound(nil), r.gp...)
	rep.RouteTrace = append([]RouteRound(nil), r.route...)
	rep.Heatmaps = append([]Heatmap(nil), r.heat...)
	r.mu.Unlock()
	for _, s := range spans {
		rep.Spans = append(rep.Spans, s.record(r.start))
	}
	if len(rep.Spans) > 0 {
		rep.Attribution = attribute(rep.Spans)
	}
	return rep
}

// attribute folds the root spans into per-stage cost buckets. Root spans
// with the same name (the router's repeated "route" spans, say) sum into
// one bucket.
func attribute(roots []*SpanRecord) map[string]*ResourceRecord {
	out := make(map[string]*ResourceRecord, len(roots))
	for _, s := range roots {
		b := out[s.Name]
		if b == nil {
			b = &ResourceRecord{}
			out[s.Name] = b
		}
		b.add(s.Resources, s.DurMS)
	}
	return out
}

// WriteJSON writes the report as indented JSON.
func (rep *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// WriteFile writes the report to path as indented JSON, atomically
// (temp file + fsync + rename): a crash mid-write leaves the previous
// report or none, never a torn report.json.
func (rep *Report) WriteFile(path string) error {
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		return err
	}
	return atomicfile.WriteFile(path, buf.Bytes(), 0o644)
}
