// Package fleet turns N placerd processes into one fault-tolerant
// placement service: a coordinator that owns the fleet-wide job table and
// a worker agent that registers a placerd with the coordinator and keeps
// it alive there with heartbeats.
//
// The coordinator assigns jobs to workers via expiring leases. A lease is
// renewed whenever the owning worker makes progress (every event on the
// job's proxied SSE stream) and whenever the worker's heartbeat reports
// the job as still active. A job whose lease lapses — its worker died,
// was partitioned away, or silently lost the job — is taken back and
// requeued with capped exponential backoff; after a per-job retry budget
// of reassignments is exhausted the job is marked failed. Reassigned jobs
// resume from the last checkpoint the coordinator managed to fetch from
// the previous worker (GET /jobs/{id}/checkpoint, polled while the job
// runs) and start fresh when none was journaled.
//
// The coordinator's public /jobs API is served by the same handlers as a
// single placerd (serve.NewServer over the Coordinator as its backend) —
// submit/status/cancel, SSE progress, artifact download — so clients
// cannot tell a fleet from one daemon. The SSE stream is stitched
// coordinator-side: events proxied from every attempt land in one
// contiguous per-job serve.Broker, so ?from= replay works across
// reassignments without gaps. Fingerprint-based dedup (internal/store)
// is consulted at the coordinator, so an identical submission
// short-circuits fleet-wide without touching a worker.
//
// The lease state machine:
//
//	queued ──assign──► running(worker w, lease t) ──terminal──► done/failed/canceled
//	  ▲                      │
//	  └──requeue(backoff)────┘  lease lapse, worker lost, stream broken
//	        │
//	        └──────► failed     retry budget exhausted
package fleet

import (
	"errors"
	"log/slog"
	"net/http"
	"time"
)

// ErrUnknownWorker is returned for heartbeats and deregistrations from
// workers the coordinator does not know (HTTP 404: the worker must
// re-register). Job-level errors are serve's sentinels (serve.ErrBadSpec,
// serve.ErrQueueFull, serve.ErrShuttingDown, serve.ErrUnknownJob), so
// both daemons answer them with the same status codes.
var ErrUnknownWorker = errors.New("fleet: unknown worker")

// Options configures a Coordinator. The zero value is serviceable for
// local fleets.
type Options struct {
	// QueueSize bounds the number of jobs waiting for a worker (default
	// 64). Submissions beyond it are rejected with serve.ErrQueueFull.
	QueueSize int
	// LeaseTTL is how long an assignment stays valid without any sign of
	// life from its worker (default 15s). Every proxied progress event and
	// every heartbeat that reports the job active renews the lease.
	LeaseTTL time.Duration
	// HeartbeatEvery is the heartbeat interval advertised to workers at
	// registration (default 2s).
	HeartbeatEvery time.Duration
	// LostAfter is how long a worker may miss heartbeats before it is
	// declared lost and its jobs are requeued (default 3×HeartbeatEvery).
	LostAfter time.Duration
	// RetryBudget is the number of reassignments a job may consume before
	// it is marked failed (default 3). The first assignment is free: a job
	// runs at most 1+RetryBudget times.
	RetryBudget int
	// BackoffBase and BackoffMax shape the capped exponential backoff
	// between reassignments (defaults 500ms and 15s): the n-th requeue
	// waits min(BackoffBase·2ⁿ⁻¹, BackoffMax).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Tick is the scheduler's wake interval for lease/liveness sweeps
	// (default 250ms, floored well below LeaseTTL in tests).
	Tick time.Duration
	// AllowDir, when non-empty, permits Spec.Aux path jobs (the
	// coordinator loads designs itself to compute dedup fingerprints, so
	// it applies the same allowlist as a worker).
	AllowDir string
	// Workers is the per-job kernel worker default used for dedup-key
	// parity with the workers' own Options.Workers.
	Workers int
	// StateDir, when non-empty, opens a content-addressed artifact store
	// under StateDir/store: completed results are cached there and
	// identical submissions are answered fleet-wide without running.
	StateDir string
	// StoreMaxBytes bounds the artifact cache (0 = store.DefaultMaxBytes,
	// negative disables eviction). Ignored without StateDir.
	StoreMaxBytes int64
	// Logger receives fleet lifecycle logs (nil = discard).
	Logger *slog.Logger
	// Client issues all coordinator→worker HTTP requests (nil =
	// http.DefaultClient). Streaming requests manage their own deadlines
	// through contexts, so the client should not set a global timeout.
	Client *http.Client
}

func (o Options) withDefaults() Options {
	if o.QueueSize <= 0 {
		o.QueueSize = 64
	}
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 15 * time.Second
	}
	if o.HeartbeatEvery <= 0 {
		o.HeartbeatEvery = 2 * time.Second
	}
	if o.LostAfter <= 0 {
		o.LostAfter = 3 * o.HeartbeatEvery
	}
	if o.RetryBudget < 0 {
		o.RetryBudget = 0
	} else if o.RetryBudget == 0 {
		o.RetryBudget = 3
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 500 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 15 * time.Second
	}
	if o.Tick <= 0 {
		o.Tick = 250 * time.Millisecond
	}
	if o.Logger == nil {
		o.Logger = slog.New(slog.DiscardHandler)
	}
	if o.Client == nil {
		o.Client = http.DefaultClient
	}
	return o
}

// backoff is the capped exponential reassignment delay after `attempts`
// completed assignment attempts.
func (o Options) backoff(attempts int) time.Duration {
	d := o.BackoffBase
	for i := 1; i < attempts && d < o.BackoffMax; i++ {
		d *= 2
	}
	return min(d, o.BackoffMax)
}
