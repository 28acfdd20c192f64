package fleet

import (
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// Job is one fleet-level placement job: submitted once at the
// coordinator, executed one or more times on workers.
type Job struct {
	// ID is the coordinator-assigned job identifier. Immutable.
	ID string
	// Spec is the submitted specification (never carries a checkpoint;
	// checkpoints are injected into the copies sent to workers).
	Spec serve.Spec

	// log is the stitched progress stream of every assignment attempt.
	log *serve.Broker

	mu        sync.Mutex
	state     serve.State
	errMsg    string
	cached    bool
	canceled  bool // user requested cancellation
	submitted time.Time
	started   time.Time
	finished  time.Time

	designName string
	storeKey   string // artifact-store key ("" when dedup is off)

	// Assignment state, meaningful while state == running.
	attempts   int    // assignment attempts so far (1 = first)
	lastWorker string // worker of the previous attempt (reassignment anti-affinity)
	worker     string // owning worker id
	workerAddr string // owning worker base URL
	workerJob  string // job id on the owning worker
	leaseUntil time.Time
	notBefore  time.Time // backoff gate while queued
	running    bool      // a worker reported the running state this attempt

	// checkpoint is the latest snap-codec checkpoint fetched from a
	// worker, handed to the next assignment on requeue.
	checkpoint []byte

	report, pl, trace []byte
}

// State returns the job's current lifecycle state.
func (j *Job) State() serve.State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Status snapshots the job for the API, with fleet attribution: the
// worker currently (running) or last (terminal) owning the job and the
// assignment attempts consumed.
func (j *Job) Status() serve.Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := serve.Status{
		ID:        j.ID,
		State:     j.state,
		Design:    j.designName,
		Error:     j.errMsg,
		Submitted: j.submitted,
		Events:    j.log.Len(),
		Cached:    j.cached,
		Worker:    j.worker,
		Attempts:  j.attempts,
	}
	st.SetTimes(j.started, j.finished)
	return st
}

// Events exposes the stitched progress stream (see serve.Broker.Since).
func (j *Job) Events(from int) ([]serve.Event, bool, <-chan struct{}) {
	return j.log.Since(from)
}

// Report returns the final JSON run report fetched from the worker that
// completed the job, annotated with fleet attribution (nil until done).
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

// Trace returns the Chrome trace-event JSON (nil until done).
func (j *Job) Trace() []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.trace
}

// Heatmaps returns nil: the coordinator does not proxy heatmaps from its
// workers, so its heatmap list is always empty.
func (j *Job) Heatmaps() []obs.Heatmap { return nil }

// CheckpointBytes returns nil: checkpoints fetched from workers are
// fleet-internal and only travel to the job's next assignment, so the
// coordinator's checkpoint route is a JSON 404.
func (j *Job) CheckpointBytes() []byte { return nil }

// setCheckpoint records the latest worker-reported checkpoint.
func (j *Job) setCheckpoint(data []byte) {
	if len(data) == 0 {
		return
	}
	j.mu.Lock()
	j.checkpoint = data
	j.mu.Unlock()
}

// publishProxied re-publishes a worker progress event into the stitched
// log, attributed to the worker, unless the attempt went stale.
func (j *Job) publishProxied(e serve.Event, worker string, attempt int) {
	j.mu.Lock()
	stale := j.attempts != attempt || j.state != serve.StateRunning
	j.mu.Unlock()
	if stale {
		return
	}
	e.Worker = worker
	j.log.Publish(e)
}

// renewLease extends the lease while the job is still owned by the given
// attempt. Stale renewals (the scheduler already took the job back) are
// ignored.
func (j *Job) renewLease(attempt int, ttl time.Duration) {
	j.mu.Lock()
	if j.state == serve.StateRunning && j.attempts == attempt {
		j.leaseUntil = time.Now().Add(ttl)
	}
	j.mu.Unlock()
}

// publishRunning emits the running state event once per attempt, when the
// worker first reports it.
func (j *Job) publishRunning(worker string, attempt int) {
	j.mu.Lock()
	stale := j.attempts != attempt || j.running
	if !stale {
		j.running = true
	}
	j.mu.Unlock()
	if !stale {
		j.log.Publish(serve.Event{Type: serve.EventState, State: serve.StateRunning, Worker: worker})
	}
}
