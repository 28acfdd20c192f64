// Package serve is the placement-as-a-service layer: a job manager that
// runs Bookshelf placement jobs from a bounded FIFO queue on a fixed-size
// worker pool, and an HTTP JSON API (cmd/placerd) exposing the job
// lifecycle — submit, status, cancel, live progress over Server-Sent
// Events, and artifact download (versioned JSON run report, placed .pl,
// congestion heatmap SVGs).
//
// The lifecycle state machine is:
//
//	queued ──► running ──► done
//	   │           ├─────► failed    (error or per-job panic)
//	   └───────────┴─────► canceled  (DELETE /jobs/{id} or timeout)
//
// Backpressure is explicit: a full queue rejects the submission
// (ErrQueueFull → HTTP 429 + Retry-After) instead of buffering without
// bound. Cancellation rides the context plumbing through core.Placer and
// the router, so a canceled job returns within a fraction of one GP
// round. Progress streaming taps internal/obs's OnEvent subscriber; every
// per-round GP/route sample is fanned out to any number of SSE clients
// with full replay for late joiners.
package serve

import (
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/eco"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/snap"
)

// State is a job's lifecycle state.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Spec describes one placement job. Exactly one of Aux, Synth, Generate
// and Files must select the design.
type Spec struct {
	// Aux is the path of a Bookshelf .aux on the server's filesystem.
	// Only honored when the manager was configured with an allow
	// directory, and only for paths inside it.
	Aux string `json:"aux,omitempty"`
	// Synth names a built-in synthetic benchmark (sb-a..sb-e, congested).
	Synth string `json:"synth,omitempty"`
	// Seed overrides the synthetic benchmark seed (Synth only).
	Seed int64 `json:"seed,omitempty"`
	// Generate is an inline synthetic-design configuration.
	Generate *gen.Config `json:"generate,omitempty"`
	// Files is an inline Bookshelf bundle: file name → contents. An .aux
	// member is synthesized when the bundle does not include one.
	Files map[string]string `json:"files,omitempty"`

	// Config is the placer configuration (zero value = full flow).
	Config core.Config `json:"config"`
	// TimeoutMS bounds the job's run time; 0 means no per-job timeout.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Heatmaps captures per-round congestion heatmaps for the heatmap
	// endpoints (opt-in: memory-proportional to rounds × tiles).
	Heatmaps bool `json:"heatmaps,omitempty"`
	// Evaluate globally routes the final placement and scores RC/sHPWL
	// into the report metrics, like cmd/placer -evaluate.
	Evaluate bool `json:"evaluate,omitempty"`
	// Checkpoint is an encoded snap.State the job resumes from instead of
	// starting the flow fresh (base64 in JSON). The fleet coordinator uses
	// it to hand a reassigned job's last journaled checkpoint to the new
	// worker; it is rejected on the coordinator's own public API.
	Checkpoint []byte `json:"checkpoint,omitempty"`

	// BaseJob makes this a delta (ECO) job: the completed job's placement
	// seeds this run, and only the changed neighborhoods are re-placed
	// (out-of-reach deltas fall back to a full place — see the report's
	// eco block). BaseFingerprint resolves the base from the artifact
	// store's eco-base index instead (hex design fingerprint of the base
	// input, as printed by `evaluate -fingerprint`); it requires a state
	// directory and a completed run of that design on this server. At
	// most one of the two may be set, and neither combines with
	// Checkpoint.
	BaseJob         string `json:"base_job,omitempty"`
	BaseFingerprint string `json:"base_fingerprint,omitempty"`
}

// Job is one submitted placement run.
type Job struct {
	// ID is the server-assigned job identifier. Immutable.
	ID string
	// Spec is the submitted specification. Immutable.
	Spec Spec

	broker *Broker

	// journal persists the job's lifecycle (nil without a state dir).
	journal *jobJournal
	// resume holds the checkpoint a recovered job restarts from (nil for
	// fresh runs).
	resume *snap.State
	// storeKey addresses the job's result in the artifact store ("" when
	// caching is off or the key could not be derived).
	storeKey string
	// congSource and switchover are the resolved routability congestion
	// source of the job's effective config (manager defaults applied) —
	// see core.Config.ResolvedCongestion. Immutable, set at creation.
	congSource string
	switchover int

	// ecoBase is the resolved base placement of a delta (ECO) job, set at
	// submission (nil for from-scratch jobs).
	ecoBase *ecoBase
	// inputFP is the submitted design's canonical fingerprint, captured
	// before the run mutates positions — the eco-base index key a future
	// delta job resolves this result by. Zero when no design was loaded.
	inputFP [32]byte
	hasFP   bool

	mu        sync.Mutex
	state     State
	errMsg    string
	cached    bool // result served from the artifact store
	submitted time.Time
	started   time.Time
	finished  time.Time
	cancel    func() // non-nil while running
	design    *db.Design
	report    []byte
	pl        []byte
	heatmaps  []obs.Heatmap
	trace     []byte
	quality   *QualityStatus
	eco       *obs.EcoSummary
}

// ecoBase is the resolved base placement a delta job repairs against.
type ecoBase struct {
	// jobID or fingerprint records how the base was referenced (for the
	// report's eco block).
	jobID       string
	fingerprint string
	// pl is the base placement; design is the base netlist when the base
	// job is still live on this server (enables the full netlist diff —
	// a bare placement can only diff by name presence).
	pl     *eco.Placement
	design *db.Design
}

// QualityStatus is the legality summary exposed on completed job status.
type QualityStatus struct {
	Overlaps        int `json:"overlaps"`
	FenceViolations int `json:"fence_violations"`
	OutOfDie        int `json:"out_of_die"`
}

// Status is the JSON view of a job's lifecycle.
type Status struct {
	ID        string     `json:"id"`
	State     State      `json:"state"`
	Design    string     `json:"design,omitempty"`
	Error     string     `json:"error,omitempty"`
	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started,omitempty"`
	Finished  *time.Time `json:"finished,omitempty"`
	// DurationMS is run time (running: so far; terminal: total).
	DurationMS float64 `json:"duration_ms,omitempty"`
	// Events is the number of progress events published so far.
	Events int `json:"events"`
	// Cached marks a job whose result was served from the artifact store
	// without running the placer.
	Cached bool `json:"cached,omitempty"`
	// CongestionSource is the routability loop's resolved congestion
	// signal for this job: "route", "estimate", or empty when
	// routability is disabled (manager-level defaults already applied).
	CongestionSource string `json:"congestion_source,omitempty"`
	// SwitchoverRound is the zero-based routability round at which an
	// "estimate" job switches back to the real router (absent for
	// "route" jobs, which route every round).
	SwitchoverRound int `json:"switchover_round,omitempty"`
	// Quality summarizes the final placement's legality (completed jobs
	// only): overlaps, fence violations, out-of-die cells.
	Quality *QualityStatus `json:"quality,omitempty"`
	// Eco describes the incremental path of a delta job (absent for
	// from-scratch jobs).
	Eco *obs.EcoSummary `json:"eco,omitempty"`
	// Worker and Attempts are fleet attribution, set by the fleet
	// coordinator only: the worker currently (running) or last
	// (terminal) owning the job, and the assignment attempts consumed
	// (1 = never reassigned).
	Worker   string `json:"worker,omitempty"`
	Attempts int    `json:"attempts,omitempty"`
}

// SetTimes fills the start/finish timestamps and the run time (so far,
// while the job runs) from a job's lifecycle times; zero times are unset.
func (st *Status) SetTimes(started, finished time.Time) {
	if !started.IsZero() {
		st.Started = &started
		end := finished
		if end.IsZero() {
			end = time.Now()
		}
		st.DurationMS = float64(end.Sub(started)) / float64(time.Millisecond)
	}
	if !finished.IsZero() {
		st.Finished = &finished
	}
}

// State returns the job's current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Err returns the failure/cancellation message ("" otherwise).
func (j *Job) Err() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.errMsg
}

// Status snapshots the job for the API.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:               j.ID,
		State:            j.state,
		Error:            j.errMsg,
		Submitted:        j.submitted,
		Events:           j.broker.Len(),
		Cached:           j.cached,
		CongestionSource: j.congSource,
		SwitchoverRound:  j.switchover,
	}
	if j.design != nil {
		st.Design = j.design.Name
	}
	st.SetTimes(j.started, j.finished)
	st.Quality = j.quality
	st.Eco = j.eco
	return st
}

// setOutcome records the final quality and (for delta jobs) the eco
// summary surfaced on job status.
func (j *Job) setOutcome(q *QualityStatus, e *obs.EcoSummary) {
	j.mu.Lock()
	j.quality = q
	j.eco = e
	j.mu.Unlock()
}

// Report returns the final JSON run report (nil until terminal; canceled
// jobs still carry a report with the canceled marker when the run got far
// enough to assemble one).
func (j *Job) Report() []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.report
}

// ResultPl returns the placed .pl bytes (nil until done).
func (j *Job) ResultPl() []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.pl
}

// Heatmaps returns the captured congestion heatmaps (nil unless the spec
// asked for them and the job completed).
func (j *Job) Heatmaps() []obs.Heatmap {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.heatmaps
}

// Trace returns the Chrome trace-event JSON rendered from the run report
// (nil until terminal).
func (j *Job) Trace() []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.trace
}

// Events exposes the job's progress stream: the events from seq `from`
// on, whether the stream is complete, and a channel closed on the next
// publish (see Broker.Since).
func (j *Job) Events(from int) ([]Event, bool, <-chan struct{}) {
	return j.broker.Since(from)
}

// Resume returns the checkpoint the job should restart from: the one
// recovered from its journal after a daemon restart, or the one carried in
// Spec.Checkpoint by a fleet reassignment. Nil for fresh runs.
func (j *Job) Resume() *snap.State { return j.resume }

// PublishObs feeds a telemetry event into the job's progress stream — the
// hook a custom Options.Runner uses to emit gp/route rounds the way the
// default placement body does through its recorder.
func (j *Job) PublishObs(e obs.Event) { j.broker.publishObs(e) }

// SetArtifacts stores the run outputs (report JSON, placed .pl, captured
// heatmaps, Chrome trace). The default placement body calls it before the
// job turns terminal so a client woken by the terminal event always sees
// them; custom runners use it the same way.
func (j *Job) SetArtifacts(report, pl []byte, heatmaps []obs.Heatmap, trace []byte) {
	j.mu.Lock()
	j.report = report
	j.pl = pl
	j.heatmaps = heatmaps
	j.trace = trace
	j.mu.Unlock()
}

// SaveCheckpoint journals a placement checkpoint for the job. Without a
// state directory it is a no-op: checkpoints only exist where they can
// survive the process. The write is atomic, so a concurrent
// CheckpointBytes read never sees a torn file.
func (j *Job) SaveCheckpoint(st *snap.State) error {
	if j.journal == nil {
		return nil
	}
	return snap.WriteFile(j.journal.checkpointPath(), st)
}

// CheckpointBytes returns the job's latest journaled checkpoint, nil when
// none was taken (or the manager has no state directory). The fleet
// coordinator polls this through GET /jobs/{id}/checkpoint so a reassigned
// job can resume on another worker.
func (j *Job) CheckpointBytes() []byte {
	if j.journal == nil {
		return nil
	}
	return readFileOrNil(j.journal.checkpointPath())
}

// setRunning transitions queued → running, installing the cancel hook.
// It returns false when the job is no longer queued (canceled while
// waiting), in which case the worker must skip it.
func (j *Job) setRunning(cancel func()) bool {
	j.mu.Lock()
	if j.state != StateQueued {
		j.mu.Unlock()
		return false
	}
	j.state = StateRunning
	j.started = time.Now()
	j.cancel = cancel
	j.mu.Unlock()
	j.broker.Publish(Event{Type: EventState, State: StateRunning})
	return true
}

// finish moves the job to a terminal state, publishes the terminal event
// and completes the progress stream. It returns false if the job was
// already terminal.
func (j *Job) finish(state State, errMsg string) bool {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return false
	}
	j.state = state
	j.errMsg = errMsg
	j.finished = time.Now()
	j.cancel = nil
	j.mu.Unlock()
	j.broker.Publish(Event{Type: EventState, State: state, Error: errMsg})
	j.broker.Close()
	if j.journal != nil {
		j.journal.close()
	}
	return true
}

// requestCancel cancels the job: queued jobs transition to canceled
// immediately, running jobs get their context canceled (the worker
// finishes the transition). Terminal jobs are left untouched. The state
// after the call is returned.
func (j *Job) requestCancel() State {
	j.mu.Lock()
	switch {
	case j.state == StateQueued:
		j.mu.Unlock()
		j.finish(StateCanceled, "canceled while queued")
		return StateCanceled
	case j.state == StateRunning && j.cancel != nil:
		cancel := j.cancel
		j.mu.Unlock()
		cancel()
		return StateRunning
	default:
		st := j.state
		j.mu.Unlock()
		return st
	}
}
