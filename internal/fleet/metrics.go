package fleet

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"repro/internal/obs/hist"
	"repro/internal/serve"
)

// fleetStats aggregates the coordinator counters /metrics exports as the
// placerd_fleet_* series.
type fleetStats struct {
	jobsDone          atomic.Int64
	jobsFailed        atomic.Int64
	jobsCanceled      atomic.Int64
	reassignments     atomic.Int64
	retriesExhausted  atomic.Int64
	workersLost       atomic.Int64
	eventsProxied     atomic.Int64
	checkpointFetches atomic.Int64
	latency           *hist.Histogram
}

func (s *fleetStats) init() {
	s.latency = hist.New(hist.LatencySeconds())
}

func (s *fleetStats) finish(state serve.State, dur time.Duration) {
	switch state {
	case serve.StateDone:
		s.jobsDone.Add(1)
	case serve.StateFailed:
		s.jobsFailed.Add(1)
	case serve.StateCanceled:
		s.jobsCanceled.Add(1)
	}
	s.latency.Observe(dur.Seconds())
}

// WriteMetrics renders the coordinator's Prometheus text exposition.
func (c *Coordinator) WriteMetrics(w io.Writer) {
	workers := c.Workers()
	live, lost := 0, 0
	for _, wk := range workers {
		if wk.Live {
			live++
		} else {
			lost++
		}
	}
	running := 0
	for _, j := range c.List() {
		if j.State() == serve.StateRunning {
			running++
		}
	}

	fmt.Fprintf(w, "# HELP placerd_fleet_workers Registered workers by liveness.\n")
	fmt.Fprintf(w, "# TYPE placerd_fleet_workers gauge\n")
	fmt.Fprintf(w, "placerd_fleet_workers{live=\"true\"} %d\n", live)
	fmt.Fprintf(w, "placerd_fleet_workers{live=\"false\"} %d\n", lost)
	fmt.Fprintf(w, "# HELP placerd_fleet_workers_lost_total Workers declared lost after missed heartbeats or deregistration.\n")
	fmt.Fprintf(w, "# TYPE placerd_fleet_workers_lost_total counter\n")
	fmt.Fprintf(w, "placerd_fleet_workers_lost_total %d\n", c.stats.workersLost.Load())
	fmt.Fprintf(w, "# HELP placerd_fleet_queue_depth Jobs waiting for a worker.\n")
	fmt.Fprintf(w, "# TYPE placerd_fleet_queue_depth gauge\n")
	fmt.Fprintf(w, "placerd_fleet_queue_depth %d\n", c.QueueDepth())
	fmt.Fprintf(w, "# HELP placerd_fleet_queue_capacity Submission bound (beyond it: 429).\n")
	fmt.Fprintf(w, "# TYPE placerd_fleet_queue_capacity gauge\n")
	fmt.Fprintf(w, "placerd_fleet_queue_capacity %d\n", c.QueueCap())
	fmt.Fprintf(w, "# HELP placerd_fleet_jobs_running Jobs currently leased to workers.\n")
	fmt.Fprintf(w, "# TYPE placerd_fleet_jobs_running gauge\n")
	fmt.Fprintf(w, "placerd_fleet_jobs_running %d\n", running)
	fmt.Fprintf(w, "# HELP placerd_fleet_jobs_total Fleet jobs finished, by terminal state.\n")
	fmt.Fprintf(w, "# TYPE placerd_fleet_jobs_total counter\n")
	fmt.Fprintf(w, "placerd_fleet_jobs_total{state=\"done\"} %d\n", c.stats.jobsDone.Load())
	fmt.Fprintf(w, "placerd_fleet_jobs_total{state=\"failed\"} %d\n", c.stats.jobsFailed.Load())
	fmt.Fprintf(w, "placerd_fleet_jobs_total{state=\"canceled\"} %d\n", c.stats.jobsCanceled.Load())
	fmt.Fprintf(w, "# HELP placerd_fleet_reassignments_total Jobs taken back from a worker and requeued (lease lapse, lost worker, broken stream).\n")
	fmt.Fprintf(w, "# TYPE placerd_fleet_reassignments_total counter\n")
	fmt.Fprintf(w, "placerd_fleet_reassignments_total %d\n", c.stats.reassignments.Load())
	fmt.Fprintf(w, "# HELP placerd_fleet_retries_exhausted_total Jobs failed because the retry budget ran out.\n")
	fmt.Fprintf(w, "# TYPE placerd_fleet_retries_exhausted_total counter\n")
	fmt.Fprintf(w, "placerd_fleet_retries_exhausted_total %d\n", c.stats.retriesExhausted.Load())
	fmt.Fprintf(w, "# HELP placerd_fleet_events_proxied_total Worker SSE events stitched into coordinator streams.\n")
	fmt.Fprintf(w, "# TYPE placerd_fleet_events_proxied_total counter\n")
	fmt.Fprintf(w, "placerd_fleet_events_proxied_total %d\n", c.stats.eventsProxied.Load())
	fmt.Fprintf(w, "# HELP placerd_fleet_checkpoint_fetches_total Checkpoints pulled from workers for reassignment resume.\n")
	fmt.Fprintf(w, "# TYPE placerd_fleet_checkpoint_fetches_total counter\n")
	fmt.Fprintf(w, "placerd_fleet_checkpoint_fetches_total %d\n", c.stats.checkpointFetches.Load())

	if c.store != nil {
		st := c.store.Stats()
		fmt.Fprintf(w, "# HELP placerd_fleet_store_hits_total Fleet artifact-store lookups served from cache.\n")
		fmt.Fprintf(w, "# TYPE placerd_fleet_store_hits_total counter\n")
		fmt.Fprintf(w, "placerd_fleet_store_hits_total %d\n", st.Hits)
		fmt.Fprintf(w, "# HELP placerd_fleet_store_misses_total Fleet artifact-store lookups that missed.\n")
		fmt.Fprintf(w, "# TYPE placerd_fleet_store_misses_total counter\n")
		fmt.Fprintf(w, "placerd_fleet_store_misses_total %d\n", st.Misses)
		fmt.Fprintf(w, "# HELP placerd_fleet_store_entries Entries currently cached fleet-wide.\n")
		fmt.Fprintf(w, "# TYPE placerd_fleet_store_entries gauge\n")
		fmt.Fprintf(w, "placerd_fleet_store_entries %d\n", st.Entries)
		fmt.Fprintf(w, "# HELP placerd_fleet_store_bytes Artifact bytes currently cached fleet-wide.\n")
		fmt.Fprintf(w, "# TYPE placerd_fleet_store_bytes gauge\n")
		fmt.Fprintf(w, "placerd_fleet_store_bytes %d\n", st.Bytes)
	}

	fmt.Fprintf(w, "# HELP placerd_fleet_job_duration_seconds Fleet job wall time from first assignment to terminal state.\n")
	fmt.Fprintf(w, "# TYPE placerd_fleet_job_duration_seconds histogram\n")
	c.stats.latency.WriteProm(w, "placerd_fleet_job_duration_seconds", "")
}
