package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/store"
)

// workerState is the coordinator's view of one registered worker.
type workerState struct {
	ID         string
	Addr       string // base URL, e.g. "http://127.0.0.1:8081"
	Capacity   int
	Registered time.Time
	LastBeat   time.Time
	Lost       bool
	jobs       map[string]*Job // fleet jobs currently leased to it
}

// WorkerStatus is the JSON view of a worker for /fleet/workers.
type WorkerStatus struct {
	ID         string    `json:"id"`
	Addr       string    `json:"addr"`
	Capacity   int       `json:"capacity"`
	Live       bool      `json:"live"`
	Jobs       []string  `json:"jobs,omitempty"`
	Registered time.Time `json:"registered"`
	LastBeat   time.Time `json:"last_heartbeat"`
}

// Coordinator owns the fleet: the job table, the worker registry, the
// lease scheduler and the artifact cache.
type Coordinator struct {
	opt   Options
	store *store.Store // nil without Options.StateDir

	mu         sync.Mutex
	jobs       map[string]*Job
	order      []string
	workers    map[string]*workerState
	nextJob    int
	nextWorker int
	closed     bool

	wake chan struct{} // scheduler kick, capacity 1
	done chan struct{} // closed on shutdown
	wg   sync.WaitGroup

	stats fleetStats
}

// NewCoordinator builds a coordinator and starts its scheduler. With a
// state directory it opens the fleet-wide artifact store for dedup.
func NewCoordinator(opt Options) (*Coordinator, error) {
	opt = opt.withDefaults()
	c := &Coordinator{
		opt:     opt,
		jobs:    make(map[string]*Job),
		workers: make(map[string]*workerState),
		wake:    make(chan struct{}, 1),
		done:    make(chan struct{}),
	}
	c.stats.init()
	if opt.StateDir != "" {
		if err := os.MkdirAll(opt.StateDir, 0o755); err != nil {
			return nil, err
		}
		st, err := store.Open(filepath.Join(opt.StateDir, "store"), store.Options{MaxBytes: opt.StoreMaxBytes})
		if err != nil {
			return nil, fmt.Errorf("fleet: opening artifact store: %w", err)
		}
		c.store = st
	}
	c.wg.Add(1)
	go c.scheduler()
	return c, nil
}

// kick wakes the scheduler without blocking.
func (c *Coordinator) kick() {
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// Submit validates the spec, consults the fleet-wide dedup store, and
// queues a job for assignment. The design is loaded coordinator-side to
// compute the dedup fingerprint, exactly as a worker would load it, and
// load errors pass through as serve classified them: client mistakes are
// serve.ErrBadSpec, environmental failures are not.
func (c *Coordinator) Submit(spec serve.Spec) (*Job, error) {
	if len(spec.Checkpoint) > 0 {
		return nil, fmt.Errorf("%w: checkpoint is fleet-internal and cannot be submitted", serve.ErrBadSpec)
	}
	if err := serve.ValidateSpec(spec); err != nil {
		return nil, err
	}
	if _, err := core.New(spec.Config); err != nil {
		return nil, fmt.Errorf("%w: %w", serve.ErrBadSpec, err)
	}
	d, err := serve.LoadDesign(spec, c.opt.AllowDir)
	if err != nil {
		return nil, err
	}

	storeKey := ""
	if c.store != nil {
		// Workers' congestion defaults are invisible here, so the key
		// applies only the coordinator's own Workers default.
		cfg := spec.Config
		if cfg.Workers == 0 {
			cfg.Workers = c.opt.Workers
		}
		if key, kerr := serve.DedupKey(d, spec, cfg); kerr == nil {
			storeKey = key
			if arts, ok, _ := c.store.Get(key); ok {
				return c.cachedJob(spec, d.Name, arts)
			}
		}
	}

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, serve.ErrShuttingDown
	}
	if c.queuedLocked() >= c.opt.QueueSize {
		c.mu.Unlock()
		return nil, serve.ErrQueueFull
	}
	c.nextJob++
	j := &Job{
		ID:   fmt.Sprintf("job-%06d", c.nextJob),
		Spec: spec,
		log:  serve.NewBroker(),
	}
	j.state = serve.StateQueued
	j.submitted = time.Now()
	j.designName = d.Name
	j.storeKey = storeKey
	c.jobs[j.ID] = j
	c.order = append(c.order, j.ID)
	c.mu.Unlock()

	j.log.Publish(serve.Event{Type: serve.EventState, State: serve.StateQueued})
	c.opt.Logger.Info("fleet job submitted", "job", j.ID, "design", d.Name)
	c.kick()
	return j, nil
}

// cachedJob registers a job born done from the fleet-wide artifact store.
func (c *Coordinator) cachedJob(spec serve.Spec, design string, arts map[string][]byte) (*Job, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, serve.ErrShuttingDown
	}
	c.nextJob++
	now := time.Now()
	j := &Job{
		ID:   fmt.Sprintf("job-%06d", c.nextJob),
		Spec: spec,
		log:  serve.NewBroker(),
	}
	j.state = serve.StateDone
	j.cached = true
	j.submitted, j.started, j.finished = now, now, now
	j.designName = design
	j.report = arts[serve.ReportFile]
	j.pl = arts[serve.ResultFile]
	j.trace = arts[serve.TraceFile]
	c.jobs[j.ID] = j
	c.order = append(c.order, j.ID)
	c.mu.Unlock()

	j.log.Publish(serve.Event{Type: serve.EventState, State: serve.StateDone, Cached: true})
	j.log.Close()
	c.stats.jobsDone.Add(1)
	c.opt.Logger.Info("fleet job served from artifact store", "job", j.ID, "design", design)
	return j, nil
}

// queuedLocked counts jobs waiting for a worker. Caller holds c.mu.
func (c *Coordinator) queuedLocked() int {
	n := 0
	for _, j := range c.jobs {
		if j.State() == serve.StateQueued {
			n++
		}
	}
	return n
}

// QueueDepth is the number of jobs waiting for a worker.
func (c *Coordinator) QueueDepth() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.queuedLocked()
}

// QueueCap is the submission bound (for 429 bodies and metrics).
func (c *Coordinator) QueueCap() int { return c.opt.QueueSize }

// Health is the /healthz body: liveness plus queue and worker gauges.
func (c *Coordinator) Health() map[string]any {
	live := 0
	for _, wk := range c.Workers() {
		if wk.Live {
			live++
		}
	}
	return map[string]any{
		"status":       "ok",
		"role":         "coordinator",
		"queue_depth":  c.QueueDepth(),
		"queue_cap":    c.QueueCap(),
		"workers_live": live,
	}
}

// Get looks a job up by ID.
func (c *Coordinator) Get(id string) (*Job, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[id]
	if !ok {
		return nil, serve.ErrUnknownJob
	}
	return j, nil
}

// List returns all jobs in submission order.
func (c *Coordinator) List() []*Job {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*Job, 0, len(c.order))
	for _, id := range c.order {
		out = append(out, c.jobs[id])
	}
	return out
}

// Cancel requests cancellation: queued jobs turn terminal immediately,
// running jobs are canceled on their worker (the follower completes the
// transition when the worker confirms).
func (c *Coordinator) Cancel(id string) (*Job, error) {
	j, err := c.Get(id)
	if err != nil {
		return nil, err
	}
	j.mu.Lock()
	j.canceled = true
	state := j.state
	addr, wjob := j.workerAddr, j.workerJob
	j.mu.Unlock()
	switch state {
	case serve.StateQueued:
		c.finishJob(j, serve.StateCanceled, "canceled while queued")
	case serve.StateRunning:
		if addr != "" && wjob != "" {
			go c.cancelWorkerJob(addr, wjob)
		}
	}
	c.opt.Logger.Info("fleet job cancel requested", "job", id, "state", state)
	return j, nil
}

// cancelWorkerJob best-effort cancels a job on its worker.
func (c *Coordinator) cancelWorkerJob(addr, workerJob string) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, addr+"/jobs/"+workerJob, nil)
	if err != nil {
		return
	}
	resp, err := c.opt.Client.Do(req)
	if err != nil {
		return
	}
	resp.Body.Close()
}

// Register adds (or refreshes) a worker and returns its assigned id.
func (c *Coordinator) Register(addr string, capacity int) (*workerState, error) {
	if addr == "" {
		return nil, fmt.Errorf("%w: register requires a reachable addr", serve.ErrBadSpec)
	}
	if capacity <= 0 {
		capacity = 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, serve.ErrShuttingDown
	}
	// A re-registration from the same address supersedes the old identity:
	// the previous incarnation's leases are expired by their own clocks.
	c.nextWorker++
	w := &workerState{
		ID:         fmt.Sprintf("w-%06d", c.nextWorker),
		Addr:       addr,
		Capacity:   capacity,
		Registered: time.Now(),
		LastBeat:   time.Now(),
		jobs:       make(map[string]*Job),
	}
	c.workers[w.ID] = w
	c.opt.Logger.Info("worker registered", "worker", w.ID, "addr", addr, "capacity", capacity)
	c.kick()
	return w, nil
}

// Heartbeat records a sign of life from a worker and renews the leases of
// every assigned job the worker still reports as active. Jobs missing
// from the active set keep their current lease and lapse on schedule —
// the worker forgot them (restart, eviction), so they must be reassigned.
func (c *Coordinator) Heartbeat(workerID string, active []string) error {
	c.mu.Lock()
	w, ok := c.workers[workerID]
	if !ok || w.Lost {
		c.mu.Unlock()
		return ErrUnknownWorker
	}
	w.LastBeat = time.Now()
	activeSet := make(map[string]bool, len(active))
	for _, id := range active {
		activeSet[id] = true
	}
	renew := make([]*Job, 0, len(w.jobs))
	for _, j := range w.jobs {
		j.mu.Lock()
		if activeSet[j.workerJob] {
			renew = append(renew, j)
		}
		j.mu.Unlock()
	}
	c.mu.Unlock()
	for _, j := range renew {
		j.mu.Lock()
		attempt := j.attempts
		j.mu.Unlock()
		j.renewLease(attempt, c.opt.LeaseTTL)
	}
	return nil
}

// Deregister gracefully removes a worker: it is marked lost and its jobs
// are requeued immediately instead of waiting out their leases.
func (c *Coordinator) Deregister(workerID string) error {
	c.mu.Lock()
	w, ok := c.workers[workerID]
	if !ok {
		c.mu.Unlock()
		return ErrUnknownWorker
	}
	jobs := c.loseWorkerLocked(w)
	c.mu.Unlock()
	for _, j := range jobs {
		c.requeue(j, "worker deregistered")
	}
	c.opt.Logger.Info("worker deregistered", "worker", workerID)
	c.kick()
	return nil
}

// loseWorkerLocked marks a worker lost and returns the jobs it held.
// Caller holds c.mu.
func (c *Coordinator) loseWorkerLocked(w *workerState) []*Job {
	if w.Lost {
		return nil
	}
	w.Lost = true
	c.stats.workersLost.Add(1)
	jobs := make([]*Job, 0, len(w.jobs))
	for _, j := range w.jobs {
		jobs = append(jobs, j)
	}
	clear(w.jobs)
	return jobs
}

// Workers snapshots the registry for /fleet/workers, sorted by id.
func (c *Coordinator) Workers() []WorkerStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]WorkerStatus, 0, len(c.workers))
	for _, w := range c.workers {
		ws := WorkerStatus{
			ID: w.ID, Addr: w.Addr, Capacity: w.Capacity,
			Live: !w.Lost, Registered: w.Registered, LastBeat: w.LastBeat,
		}
		for id := range w.jobs {
			ws.Jobs = append(ws.Jobs, id)
		}
		sort.Strings(ws.Jobs)
		out = append(out, ws)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// scheduler is the coordinator's control loop: every tick (or kick) it
// expires silent workers, reaps lapsed leases, and assigns queued jobs
// whose backoff has elapsed to live workers with free capacity.
func (c *Coordinator) scheduler() {
	defer c.wg.Done()
	t := time.NewTicker(c.opt.Tick)
	defer t.Stop()
	for {
		select {
		case <-c.done:
			return
		case <-t.C:
		case <-c.wake:
		}
		c.reap()
		c.assign()
	}
}

// reap requeues the jobs of workers that stopped heartbeating and of
// assignments whose lease lapsed.
func (c *Coordinator) reap() {
	now := time.Now()
	var requeues []*Job
	var reasons []string

	c.mu.Lock()
	for _, w := range c.workers {
		if !w.Lost && now.Sub(w.LastBeat) > c.opt.LostAfter {
			c.opt.Logger.Warn("worker lost", "worker", w.ID, "addr", w.Addr,
				"silent", now.Sub(w.LastBeat).Round(time.Millisecond))
			for _, j := range c.loseWorkerLocked(w) {
				requeues = append(requeues, j)
				reasons = append(reasons, fmt.Sprintf("worker %s lost (no heartbeat for %s)", w.ID, now.Sub(w.LastBeat).Round(time.Millisecond)))
			}
		}
	}
	for _, id := range c.order {
		j := c.jobs[id]
		j.mu.Lock()
		lapsed := j.state == serve.StateRunning && now.After(j.leaseUntil)
		worker := j.worker
		j.mu.Unlock()
		if lapsed {
			requeues = append(requeues, j)
			reasons = append(reasons, fmt.Sprintf("lease expired on worker %s", worker))
		}
	}
	c.mu.Unlock()

	for i, j := range requeues {
		c.requeue(j, reasons[i])
	}
}

// assign leases queued jobs (past their backoff gate) to live workers
// with free capacity, least-loaded first.
func (c *Coordinator) assign() {
	now := time.Now()
	type pick struct {
		j       *Job
		w       *workerState
		attempt int
		ck      []byte
	}
	var picks []pick

	c.mu.Lock()
	for _, id := range c.order {
		j := c.jobs[id]
		j.mu.Lock()
		ready := j.state == serve.StateQueued && !j.canceled && !now.Before(j.notBefore)
		avoid := j.lastWorker
		j.mu.Unlock()
		if !ready {
			continue
		}
		w := c.freestWorkerLocked(avoid)
		if w == nil {
			break // no capacity anywhere; try again next tick
		}
		j.mu.Lock()
		j.attempts++
		j.state = serve.StateRunning
		j.running = false
		j.worker = w.ID
		j.workerAddr = w.Addr
		j.workerJob = ""
		j.leaseUntil = now.Add(c.opt.LeaseTTL)
		if j.started.IsZero() {
			j.started = now
		}
		attempt := j.attempts
		ck := j.checkpoint
		j.mu.Unlock()
		w.jobs[j.ID] = j
		picks = append(picks, pick{j, w, attempt, ck})
	}
	c.mu.Unlock()

	for _, p := range picks {
		p.j.log.Publish(serve.Event{Type: EventAssign, Worker: p.w.ID})
		c.opt.Logger.Info("fleet job assigned", "job", p.j.ID, "worker", p.w.ID, "attempt", p.attempt, "resume", len(p.ck) > 0)
		// The follower's context is canceled when the scheduler takes the
		// job back (requeue), the job turns terminal, or the coordinator
		// shuts down — watchAttempt polls the assignment for that.
		ctx, cancel := context.WithCancel(context.Background())
		c.watchAttempt(p.j, p.attempt, cancel)
		c.wg.Add(1)
		go func(p pick, ctx context.Context) {
			defer c.wg.Done()
			c.follow(ctx, p.j, p.w.ID, p.w.Addr, p.attempt, p.ck)
		}(p, ctx)
	}
}

// watchAttempt cancels the follower's context once the job leaves the
// given assignment attempt (requeue, terminal, shutdown), so its stream
// and polls stop promptly.
func (c *Coordinator) watchAttempt(j *Job, attempt int, cancel context.CancelFunc) {
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		defer cancel()
		t := time.NewTicker(c.opt.Tick)
		defer t.Stop()
		for {
			select {
			case <-c.done:
				return
			case <-t.C:
				j.mu.Lock()
				live := j.state == serve.StateRunning && j.attempts == attempt
				j.mu.Unlock()
				if !live {
					return
				}
			}
		}
	}()
}

// freestWorkerLocked picks the live worker with the most free slots,
// preferring lower ids on ties. A reassigned job avoids the worker of
// its previous attempt (it may be dead but not yet declared lost) unless
// no other worker has capacity. Caller holds c.mu.
func (c *Coordinator) freestWorkerLocked(avoid string) *workerState {
	pick := func(skip string) *workerState {
		var best *workerState
		bestFree := 0
		for _, w := range c.workers {
			if w.Lost || w.ID == skip {
				continue
			}
			free := w.Capacity - len(w.jobs)
			if free > bestFree || (free == bestFree && free > 0 && (best == nil || w.ID < best.ID)) {
				best, bestFree = w, free
			}
		}
		return best
	}
	if w := pick(avoid); w != nil {
		return w
	}
	if avoid != "" {
		return pick("")
	}
	return nil
}

// requeue takes a running job back from its worker: within budget it goes
// back to the queue behind a capped exponential backoff, beyond it the
// job fails. Terminal/already-requeued jobs are left untouched, so the
// lease reaper, the follower and Deregister can all report the same death
// without double-counting.
func (c *Coordinator) requeue(j *Job, reason string) {
	c.mu.Lock()
	j.mu.Lock()
	if j.state != serve.StateRunning {
		j.mu.Unlock()
		c.mu.Unlock()
		return
	}
	oldWorker, oldAddr, oldJob := j.worker, j.workerAddr, j.workerJob
	if w := c.workers[oldWorker]; w != nil {
		delete(w.jobs, j.ID)
	}
	if j.canceled {
		j.mu.Unlock()
		c.mu.Unlock()
		c.finishJob(j, serve.StateCanceled, "canceled")
		return
	}
	if j.attempts > c.opt.RetryBudget {
		attempts := j.attempts
		j.mu.Unlock()
		c.mu.Unlock()
		c.stats.retriesExhausted.Add(1)
		c.finishJob(j, serve.StateFailed,
			fmt.Sprintf("retry budget exhausted after %d attempts: %s", attempts, reason))
		return
	}
	backoff := c.opt.backoff(j.attempts)
	j.state = serve.StateQueued
	j.lastWorker = oldWorker
	j.worker, j.workerAddr, j.workerJob = "", "", ""
	j.notBefore = time.Now().Add(backoff)
	hasCk := len(j.checkpoint) > 0
	attempts := j.attempts
	j.mu.Unlock()
	c.mu.Unlock()

	c.stats.reassignments.Add(1)
	j.log.Publish(serve.Event{Type: EventRequeue, Worker: oldWorker, Error: reason})
	c.opt.Logger.Warn("fleet job requeued", "job", j.ID, "worker", oldWorker,
		"reason", reason, "attempt", attempts, "backoff", backoff, "checkpoint", hasCk)
	// Best-effort: tell the old worker to stop burning CPU on a job the
	// fleet no longer counts (it may well be dead; that is fine).
	if oldAddr != "" && oldJob != "" {
		go c.cancelWorkerJob(oldAddr, oldJob)
	}
	c.kick()
}

// finishJob moves a job to a terminal state, publishes the terminal
// event, completes the stream and updates metrics.
func (c *Coordinator) finishJob(j *Job, state serve.State, errMsg string) {
	c.mu.Lock()
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		c.mu.Unlock()
		return
	}
	if w := c.workers[j.worker]; w != nil {
		delete(w.jobs, j.ID)
	}
	worker := j.worker
	j.state = state
	if state != serve.StateDone {
		j.errMsg = errMsg
	}
	j.finished = time.Now()
	started := j.started
	j.mu.Unlock()
	c.mu.Unlock()

	j.log.Publish(serve.Event{Type: serve.EventState, State: state, Error: errMsg, Worker: worker})
	j.log.Close()
	dur := time.Duration(0)
	if !started.IsZero() {
		dur = time.Since(started)
	}
	c.stats.finish(state, dur)
	c.opt.Logger.Info("fleet job finished", "job", j.ID, "state", state, "worker", worker, "dur", dur, "err", errMsg)
}

// Shutdown stops the scheduler and followers, cancels non-terminal jobs
// and releases the artifact store. Jobs already running on workers keep
// running there; a restarted coordinator currently starts from an empty
// table (fleet jobs are not journaled — the workers' own durability
// covers their halves).
func (c *Coordinator) Shutdown(ctx context.Context) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	close(c.done)

	for _, j := range c.List() {
		if !j.State().Terminal() {
			c.finishJob(j, serve.StateCanceled, "coordinator shutdown")
		}
	}

	doneCh := make(chan struct{})
	go func() {
		c.wg.Wait()
		close(doneCh)
	}()
	var err error
	select {
	case <-doneCh:
	case <-ctx.Done():
		err = ctx.Err()
	}
	if c.store != nil {
		c.store.Close()
	}
	return err
}

// annotateReport injects fleet attribution into a worker-produced run
// report. On any decoding surprise the report passes through unchanged —
// attribution must never cost a client its artifact.
func annotateReport(report []byte, att map[string]any) []byte {
	var rep map[string]any
	if err := json.Unmarshal(report, &rep); err != nil || rep == nil {
		return report
	}
	rep["fleet"] = att
	out, err := json.Marshal(rep)
	if err != nil {
		return report
	}
	return append(out, '\n')
}
