package serve

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/obs"
	"repro/internal/obs/hist"
)

// stats aggregates the operational counters /metrics exports.
type stats struct {
	running  atomic.Int64
	done     atomic.Int64
	failed   atomic.Int64
	canceled atomic.Int64
	resumed  atomic.Int64 // jobs resumed from a journaled checkpoint
	latency  *hist.Histogram

	// stages histograms per-stage placement seconds, keyed by the root
	// span name the flow emits (gp, routability, legalize, dp, route, …).
	stageMu sync.Mutex
	stages  map[string]*hist.Histogram
}

func (s *stats) finish(state State, dur time.Duration) {
	switch state {
	case StateDone:
		s.done.Add(1)
	case StateFailed:
		s.failed.Add(1)
	case StateCanceled:
		s.canceled.Add(1)
	}
	s.latency.Observe(dur.Seconds())
}

// observeStages folds a finished job's report into the per-stage
// duration histograms: one observation per top-level stage span.
func (s *stats) observeStages(rep *obs.Report) {
	if rep == nil {
		return
	}
	s.stageMu.Lock()
	defer s.stageMu.Unlock()
	for _, sp := range rep.Spans {
		h := s.stages[sp.Name]
		if h == nil {
			if s.stages == nil {
				s.stages = make(map[string]*hist.Histogram)
			}
			h = hist.New(hist.LatencySeconds())
			s.stages[sp.Name] = h
		}
		h.Observe(sp.DurMS / 1e3)
	}
}

// buildInfoLabels renders the placerd_build_info label set once: the Go
// toolchain version plus the VCS revision when the binary carries one
// (shared with the -version flag through internal/buildinfo).
var buildInfoLabels = sync.OnceValue(func() string {
	return fmt.Sprintf("go_version=%q,revision=%q", buildinfo.GoVersion(), buildinfo.Revision())
})

// WriteMetrics renders the Prometheus text exposition for the manager.
func (m *Manager) WriteMetrics(w io.Writer) {
	fmt.Fprintf(w, "# HELP placerd_build_info Build metadata (constant 1).\n")
	fmt.Fprintf(w, "# TYPE placerd_build_info gauge\n")
	fmt.Fprintf(w, "placerd_build_info{%s} 1\n", buildInfoLabels())
	fmt.Fprintf(w, "# HELP placerd_queue_depth Jobs waiting in the bounded FIFO queue.\n")
	fmt.Fprintf(w, "# TYPE placerd_queue_depth gauge\n")
	fmt.Fprintf(w, "placerd_queue_depth %d\n", m.QueueDepth())
	fmt.Fprintf(w, "# HELP placerd_queue_capacity Queue capacity (submissions beyond it get 429).\n")
	fmt.Fprintf(w, "# TYPE placerd_queue_capacity gauge\n")
	fmt.Fprintf(w, "placerd_queue_capacity %d\n", m.QueueCap())
	fmt.Fprintf(w, "# HELP placerd_jobs_running Jobs currently executing.\n")
	fmt.Fprintf(w, "# TYPE placerd_jobs_running gauge\n")
	fmt.Fprintf(w, "placerd_jobs_running %d\n", m.stats.running.Load())
	fmt.Fprintf(w, "# HELP placerd_jobs_total Jobs finished, by terminal state.\n")
	fmt.Fprintf(w, "# TYPE placerd_jobs_total counter\n")
	fmt.Fprintf(w, "placerd_jobs_total{state=\"done\"} %d\n", m.stats.done.Load())
	fmt.Fprintf(w, "placerd_jobs_total{state=\"failed\"} %d\n", m.stats.failed.Load())
	fmt.Fprintf(w, "placerd_jobs_total{state=\"canceled\"} %d\n", m.stats.canceled.Load())
	fmt.Fprintf(w, "# HELP placerd_jobs_resumed_total Jobs resumed from a journaled checkpoint after a restart.\n")
	fmt.Fprintf(w, "# TYPE placerd_jobs_resumed_total counter\n")
	fmt.Fprintf(w, "placerd_jobs_resumed_total %d\n", m.stats.resumed.Load())

	if m.store != nil {
		st := m.store.Stats()
		fmt.Fprintf(w, "# HELP placerd_store_hits_total Artifact-store lookups served from cache.\n")
		fmt.Fprintf(w, "# TYPE placerd_store_hits_total counter\n")
		fmt.Fprintf(w, "placerd_store_hits_total %d\n", st.Hits)
		fmt.Fprintf(w, "# HELP placerd_store_misses_total Artifact-store lookups that missed.\n")
		fmt.Fprintf(w, "# TYPE placerd_store_misses_total counter\n")
		fmt.Fprintf(w, "placerd_store_misses_total %d\n", st.Misses)
		fmt.Fprintf(w, "# HELP placerd_store_evictions_total Entries evicted to honor the store size bound.\n")
		fmt.Fprintf(w, "# TYPE placerd_store_evictions_total counter\n")
		fmt.Fprintf(w, "placerd_store_evictions_total %d\n", st.Evictions)
		fmt.Fprintf(w, "# HELP placerd_store_corruptions_total Entries quarantined after a checksum mismatch.\n")
		fmt.Fprintf(w, "# TYPE placerd_store_corruptions_total counter\n")
		fmt.Fprintf(w, "placerd_store_corruptions_total %d\n", st.Corruptions)
		fmt.Fprintf(w, "# HELP placerd_store_entries Entries currently cached.\n")
		fmt.Fprintf(w, "# TYPE placerd_store_entries gauge\n")
		fmt.Fprintf(w, "placerd_store_entries %d\n", st.Entries)
		fmt.Fprintf(w, "# HELP placerd_store_bytes Artifact bytes currently cached.\n")
		fmt.Fprintf(w, "# TYPE placerd_store_bytes gauge\n")
		fmt.Fprintf(w, "placerd_store_bytes %d\n", st.Bytes)
	}

	fmt.Fprintf(w, "# HELP placerd_job_duration_seconds Job wall-clock run time.\n")
	fmt.Fprintf(w, "# TYPE placerd_job_duration_seconds histogram\n")
	m.stats.latency.WriteProm(w, "placerd_job_duration_seconds", "")

	m.stats.stageMu.Lock()
	names := make([]string, 0, len(m.stats.stages))
	for name := range m.stats.stages {
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) > 0 {
		fmt.Fprintf(w, "# HELP placerd_stage_seconds Per-stage placement wall time, labeled by flow stage.\n")
		fmt.Fprintf(w, "# TYPE placerd_stage_seconds histogram\n")
		for _, name := range names {
			m.stats.stages[name].WriteProm(w, "placerd_stage_seconds", fmt.Sprintf("stage=%q", name))
		}
	}
	m.stats.stageMu.Unlock()

	// Go runtime gauges, sampled through the same runtime/metrics reader
	// span attribution uses.
	rt := obs.ReadRuntimeSnapshot()
	fmt.Fprintf(w, "# HELP go_goroutines Goroutines currently live.\n")
	fmt.Fprintf(w, "# TYPE go_goroutines gauge\n")
	fmt.Fprintf(w, "go_goroutines %d\n", rt.Goroutines)
	fmt.Fprintf(w, "# HELP go_heap_live_bytes Bytes of live heap objects.\n")
	fmt.Fprintf(w, "# TYPE go_heap_live_bytes gauge\n")
	fmt.Fprintf(w, "go_heap_live_bytes %d\n", rt.HeapLiveBytes)
	fmt.Fprintf(w, "# HELP go_alloc_bytes_total Cumulative heap bytes allocated.\n")
	fmt.Fprintf(w, "# TYPE go_alloc_bytes_total counter\n")
	fmt.Fprintf(w, "go_alloc_bytes_total %d\n", rt.TotalAllocBytes)
	fmt.Fprintf(w, "# HELP go_gc_cycles_total Completed GC cycles.\n")
	fmt.Fprintf(w, "# TYPE go_gc_cycles_total counter\n")
	fmt.Fprintf(w, "go_gc_cycles_total %d\n", rt.GCCycles)
	fmt.Fprintf(w, "# HELP go_gc_pause_seconds_total Approximate cumulative GC stop-the-world pause time.\n")
	fmt.Fprintf(w, "# TYPE go_gc_pause_seconds_total counter\n")
	fmt.Fprintf(w, "go_gc_pause_seconds_total %g\n", rt.GCPauseSeconds)
	fmt.Fprintf(w, "# HELP go_cpu_seconds_total Approximate process CPU time per runtime/metrics.\n")
	fmt.Fprintf(w, "# TYPE go_cpu_seconds_total counter\n")
	fmt.Fprintf(w, "go_cpu_seconds_total %g\n", rt.CPUSeconds)
}
