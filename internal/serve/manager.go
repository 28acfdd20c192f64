package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/bookshelf"
	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/gen"
	"repro/internal/obs/hist"
	"repro/internal/snap"
	"repro/internal/store"
)

// Submission errors the HTTP layer maps to status codes.
var (
	// ErrQueueFull rejects a submission because the bounded queue is at
	// capacity (HTTP 429 + Retry-After).
	ErrQueueFull = errors.New("serve: job queue full")
	// ErrShuttingDown rejects submissions during graceful drain (503).
	ErrShuttingDown = errors.New("serve: shutting down")
	// ErrBadSpec wraps client errors: malformed specs, disallowed paths,
	// unparsable designs (400).
	ErrBadSpec = errors.New("serve: bad job spec")
	// ErrUnknownJob is returned for lookups of nonexistent job IDs (404).
	ErrUnknownJob = errors.New("serve: unknown job")
)

// Options configures a Manager. The zero value is serviceable.
type Options struct {
	// QueueSize bounds the FIFO of jobs waiting to run (default 16).
	QueueSize int
	// Jobs is the number of jobs run concurrently (default 1: placement
	// is CPU-saturating; raise it on big hosts).
	Jobs int
	// Workers is the per-job kernel worker count applied when a job's
	// config leaves it automatic (0 keeps the shared internal/par
	// policy).
	Workers int
	// CongestionSource is the daemon-level default for the routability
	// loop's congestion signal ("route" or "estimate"), applied when a
	// job's config leaves it empty (see core.Config.CongestionSource).
	CongestionSource string
	// RouteLastRounds is the daemon-level default for the trailing
	// router rounds of "estimate" jobs, applied when a job's config
	// leaves it 0.
	RouteLastRounds int
	// AllowDir, when non-empty, permits Spec.Aux path jobs for .aux files
	// inside this directory tree. Empty disallows path jobs entirely.
	AllowDir string
	// StateDir, when non-empty, makes the manager durable: every job is
	// journaled under StateDir/jobs/<id> (spec, progress events,
	// checkpoints, artifacts), completed results are cached in a
	// content-addressed store under StateDir/store, identical
	// resubmissions are answered from that cache without running the
	// placer, and a restarted manager recovers journaled jobs — terminal
	// ones read-only, interrupted ones re-enqueued and resumed from their
	// last checkpoint. Empty keeps everything in memory.
	StateDir string
	// StoreMaxBytes bounds the artifact cache (0 = store.DefaultMaxBytes,
	// negative disables eviction). Ignored without StateDir.
	StoreMaxBytes int64
	// CheckpointEvery is the λ-round interval between job checkpoints
	// (default 1: every finest-level round). Ignored without StateDir.
	CheckpointEvery int
	// Logger receives job lifecycle logs (nil = discard).
	Logger *slog.Logger
	// Runner overrides the job body (tests). When set, Submit skips
	// design loading and the runner owns the whole job run; artifacts
	// are whatever it stores. The default runner places the design.
	Runner func(ctx context.Context, j *Job) error
}

func (o Options) withDefaults() Options {
	if o.QueueSize <= 0 {
		o.QueueSize = 16
	}
	if o.Jobs <= 0 {
		o.Jobs = 1
	}
	if o.Logger == nil {
		o.Logger = slog.New(slog.DiscardHandler)
	}
	return o
}

// Manager owns the job table, the bounded queue and the worker pool.
type Manager struct {
	opt   Options
	queue chan *Job
	store *store.Store // nil without Options.StateDir

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string // insertion order, for listing
	nextID int
	closed bool

	wg sync.WaitGroup

	stats stats
}

// NewManager builds a manager and starts its workers. With a state
// directory configured it first recovers journaled jobs from the previous
// process: terminal jobs come back read-only, interrupted ones are
// re-enqueued ahead of new submissions (the queue is widened so recovery
// can never overflow it).
func NewManager(opt Options) (*Manager, error) {
	opt = opt.withDefaults()
	m := &Manager{
		opt:  opt,
		jobs: make(map[string]*Job),
	}
	m.stats.latency = hist.New(hist.LatencySeconds())
	var pending []*Job
	if opt.StateDir != "" {
		var err error
		pending, err = m.initPersist()
		if err != nil {
			return nil, err
		}
	}
	m.queue = make(chan *Job, opt.QueueSize+len(pending))
	for _, j := range pending {
		m.queue <- j
	}
	for i := 0; i < opt.Jobs; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m, nil
}

// Submit validates the spec, loads its design, and enqueues a job.
// Returns ErrQueueFull when the queue is at capacity, ErrShuttingDown
// during drain, and an ErrBadSpec-wrapped error for client mistakes.
func (m *Manager) Submit(spec Spec) (*Job, error) {
	if err := ValidateSpec(spec); err != nil {
		return nil, err
	}
	if _, err := core.New(spec.Config); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadSpec, err)
	}
	var resume *snap.State
	if len(spec.Checkpoint) > 0 {
		st, err := snap.Decode(spec.Checkpoint)
		if err != nil {
			return nil, fmt.Errorf("%w: bad checkpoint: %w", ErrBadSpec, err)
		}
		resume = st
	}
	var d *db.Design
	if m.opt.Runner == nil {
		var err error
		d, err = m.loadDesign(spec)
		if err != nil {
			return nil, err
		}
	}
	eb, err := m.resolveEcoBase(spec, resume)
	if err != nil {
		return nil, err
	}

	// Dedup: an identical placement problem (same canonical design, same
	// effective config) whose result is already in the artifact store is
	// answered from disk — the job is born done and the placer never runs.
	storeKey := ""
	if m.store != nil && d != nil {
		key, err := m.dedupKey(d, spec)
		if err == nil {
			storeKey = key
			if arts, ok, _ := m.store.Get(key); ok {
				return m.cachedJob(spec, d, arts)
			}
		}
	}

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrShuttingDown
	}
	m.nextID++
	j := &Job{
		ID:     fmt.Sprintf("job-%06d", m.nextID),
		Spec:   spec,
		broker: NewBroker(),
	}
	j.state = StateQueued
	j.submitted = time.Now()
	j.design = d
	j.resume = resume
	j.ecoBase = eb
	if d != nil {
		j.inputFP = d.Fingerprint()
		j.hasFP = true
	}
	j.storeKey = storeKey
	j.congSource, j.switchover = m.effectiveConfig(spec).ResolvedCongestion()
	if m.opt.StateDir != "" {
		jj, err := openJobJournal(m.jobDir(j.ID))
		if err != nil {
			m.mu.Unlock()
			return nil, fmt.Errorf("serve: opening job journal: %w", err)
		}
		j.journal = jj
		j.broker.persist = jj.appendEvent
	}
	select {
	case m.queue <- j:
	default:
		m.mu.Unlock()
		if j.journal != nil {
			j.journal.close()
			os.RemoveAll(m.jobDir(j.ID))
		}
		return nil, ErrQueueFull
	}
	m.jobs[j.ID] = j
	m.order = append(m.order, j.ID)
	m.mu.Unlock()
	if j.journal != nil {
		if err := j.journal.writeSpec(jobRecord{ID: j.ID, Submitted: j.submitted, Spec: spec}); err != nil {
			m.opt.Logger.Warn("journal spec write failed", "job", j.ID, "err", err)
		}
	}
	j.broker.Publish(Event{Type: EventState, State: StateQueued})
	m.opt.Logger.Info("job submitted", "job", j.ID, "design", designName(d, spec))
	return j, nil
}

func designName(d *db.Design, spec Spec) string {
	if d != nil {
		return d.Name
	}
	if spec.Synth != "" {
		return spec.Synth
	}
	return ""
}

// Get looks a job up by ID.
func (m *Manager) Get(id string) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, ErrUnknownJob
	}
	return j, nil
}

// List returns all jobs in submission order.
func (m *Manager) List() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Job, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.jobs[id])
	}
	return out
}

// Cancel requests cancellation of a job. Queued jobs transition to
// canceled immediately; running jobs are canceled asynchronously through
// their context (observed within one GP round / reroute batch).
func (m *Manager) Cancel(id string) (*Job, error) {
	j, err := m.Get(id)
	if err != nil {
		return nil, err
	}
	st := j.requestCancel()
	m.opt.Logger.Info("job cancel requested", "job", id, "state", st)
	return j, nil
}

// QueueDepth is the number of jobs waiting to run.
func (m *Manager) QueueDepth() int { return len(m.queue) }

// QueueCap is the queue capacity (for metrics and Retry-After hints).
func (m *Manager) QueueCap() int { return cap(m.queue) }

// Health is the /healthz body: liveness plus the queue gauges.
func (m *Manager) Health() map[string]any {
	return map[string]any{
		"status":      "ok",
		"queue_depth": m.QueueDepth(),
		"queue_cap":   m.QueueCap(),
		"running":     int(m.stats.running.Load()),
	}
}

// Shutdown drains gracefully: no new submissions are accepted, queued
// and running jobs are given until ctx's deadline to finish, then
// everything still active is canceled. It returns ctx.Err() when the
// deadline forced cancellation, nil on a clean drain.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	close(m.queue)
	m.mu.Unlock()

	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		m.closePersist()
		return nil
	case <-ctx.Done():
		for _, j := range m.List() {
			j.requestCancel()
		}
		<-done
		m.closePersist()
		return ctx.Err()
	}
}

// worker pulls jobs off the queue until it is closed and drained.
func (m *Manager) worker() {
	defer m.wg.Done()
	for j := range m.queue {
		m.runJob(j)
	}
}

// runJob executes one job with panic recovery and per-job timeout, and
// finishes its lifecycle.
func (m *Manager) runJob(j *Job) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if j.Spec.TimeoutMS > 0 {
		var tcancel context.CancelFunc
		ctx, tcancel = context.WithTimeout(ctx, time.Duration(j.Spec.TimeoutMS)*time.Millisecond)
		defer tcancel()
	}
	if !j.setRunning(cancel) {
		// Canceled while queued; its terminal event is already out.
		return
	}
	m.stats.running.Add(1)
	t0 := time.Now()
	err := m.runBody(ctx, j)
	dur := time.Since(t0)
	m.stats.running.Add(-1)

	state := StateDone
	msg := ""
	switch {
	case err == nil:
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		state = StateCanceled
		msg = err.Error()
	default:
		state = StateFailed
		msg = err.Error()
	}
	j.finish(state, msg)
	m.stats.finish(state, dur)
	m.opt.Logger.Info("job finished", "job", j.ID, "state", state, "dur", dur, "err", msg)
}

// runBody dispatches to the configured runner, converting panics into
// errors so one bad job cannot take the worker (or the server) down.
func (m *Manager) runBody(ctx context.Context, j *Job) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("job panicked: %v\n%s", p, debug.Stack())
		}
	}()
	if m.opt.Runner != nil {
		return m.opt.Runner(ctx, j)
	}
	return m.placeJob(ctx, j)
}

// ValidateSpec enforces "exactly one design source". The fleet
// coordinator runs the same check at its edge so bad submissions are
// rejected before they touch a worker.
func ValidateSpec(spec Spec) error {
	n := 0
	for _, set := range []bool{spec.Aux != "", spec.Synth != "", spec.Generate != nil, len(spec.Files) > 0} {
		if set {
			n++
		}
	}
	if n != 1 {
		return fmt.Errorf("%w: exactly one of aux, synth, generate, files must be set (got %d)", ErrBadSpec, n)
	}
	return nil
}

// loadDesign materializes the spec's design against the manager's allow
// directory.
func (m *Manager) loadDesign(spec Spec) (*db.Design, error) {
	return LoadDesign(spec, m.opt.AllowDir)
}

// LoadDesign materializes the spec's design, classifying client mistakes
// as ErrBadSpec. Path (.aux) jobs are only honored inside allowDir; an
// empty allowDir disables them. The fleet coordinator shares this loader
// so its dedup fingerprints are computed over exactly the design a worker
// would place.
func LoadDesign(spec Spec, allowDir string) (*db.Design, error) {
	switch {
	case spec.Aux != "":
		path, err := allowedAux(spec.Aux, allowDir)
		if err != nil {
			return nil, err
		}
		d, err := bookshelf.ReadDesign(path)
		if err != nil {
			return nil, classifyLoadErr(err)
		}
		return d, nil
	case spec.Synth != "":
		cfg, ok := synthConfig(spec.Synth, spec.Seed)
		if !ok {
			return nil, fmt.Errorf("%w: unknown synthetic benchmark %q", ErrBadSpec, spec.Synth)
		}
		d, err := gen.Generate(cfg)
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrBadSpec, err)
		}
		return d, nil
	case spec.Generate != nil:
		d, err := gen.Generate(*spec.Generate)
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrBadSpec, err)
		}
		return d, nil
	default:
		return loadInline(spec.Files)
	}
}

// classifyLoadErr wraps Bookshelf bad-input failures in ErrBadSpec and
// passes environmental errors through.
func classifyLoadErr(err error) error {
	if bookshelf.IsBadInput(err) {
		return fmt.Errorf("%w: %w", ErrBadSpec, err)
	}
	return err
}

// synthConfig resolves a built-in benchmark name (mirrors cmd/placer).
func synthConfig(name string, seed int64) (gen.Config, bool) {
	for _, cfg := range gen.Suite() {
		if cfg.Name == name {
			if seed != 0 {
				cfg.Seed = seed
			}
			return cfg, true
		}
	}
	if name == "congested" {
		s := int64(1)
		if seed != 0 {
			s = seed
		}
		return gen.Congested(2000, s), true
	}
	return gen.Config{}, false
}

// allowedAux validates a path job against the allow directory.
func allowedAux(aux, allowDir string) (string, error) {
	if allowDir == "" {
		return "", fmt.Errorf("%w: path jobs are disabled (no allow directory configured)", ErrBadSpec)
	}
	root, err := filepath.Abs(allowDir)
	if err != nil {
		return "", err
	}
	path := aux
	if !filepath.IsAbs(path) {
		path = filepath.Join(root, path)
	}
	path = filepath.Clean(path)
	rel, err := filepath.Rel(root, path)
	if err != nil || rel == ".." || strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
		return "", fmt.Errorf("%w: path %q is outside the allowed directory", ErrBadSpec, aux)
	}
	return path, nil
}

// loadInline writes an inline Bookshelf bundle to a temp directory,
// synthesizing an .aux when absent, and reads it back as a design.
func loadInline(files map[string]string) (*db.Design, error) {
	dir, err := os.MkdirTemp("", "placerd-job-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	aux := ""
	names := make([]string, 0, len(files))
	for name, content := range files {
		base := filepath.Base(name)
		if base != name || name == "." || name == string(filepath.Separator) {
			return nil, fmt.Errorf("%w: inline file name %q must be a bare file name", ErrBadSpec, name)
		}
		if err := os.WriteFile(filepath.Join(dir, base), []byte(content), 0o644); err != nil {
			return nil, err
		}
		if strings.HasSuffix(base, ".aux") {
			aux = base
		} else {
			names = append(names, base)
		}
	}
	if aux == "" {
		aux = "inline.aux"
		sort.Strings(names) // map order is random; keep the bundle deterministic
		line := "RowBasedPlacement : " + strings.Join(names, " ") + "\n"
		if err := os.WriteFile(filepath.Join(dir, aux), []byte(line), 0o644); err != nil {
			return nil, err
		}
	}
	d, err := bookshelf.ReadDesign(filepath.Join(dir, aux))
	if err != nil {
		return nil, classifyLoadErr(err)
	}
	return d, nil
}
