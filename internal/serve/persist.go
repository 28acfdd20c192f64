package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/atomicfile"
	"repro/internal/snap"
	"repro/internal/store"
)

// Durable state layout under Options.StateDir:
//
//	jobs/<id>/spec.json        submission record (id, submit time, spec)
//	jobs/<id>/events.jsonl     progress log, one Event per line
//	jobs/<id>/checkpoint.snap  latest placement checkpoint (snap codec)
//	jobs/<id>/report.json      final run report
//	jobs/<id>/result.pl        placed .pl
//	jobs/<id>/heatmaps.json    captured heatmaps (when the spec asked)
//	jobs/<id>/trace.json       Chrome trace-event rendering of the report
//	store/                     content-addressed result cache (internal/store)
//
// Everything a restarted daemon needs to answer for old jobs — status,
// artifacts, the full SSE replay — comes out of the job directory; the
// store additionally lets a resubmission of the same placement problem be
// answered without running the placer at all.
const (
	specFile       = "spec.json"
	eventsFile     = "events.jsonl"
	checkpointFile = "checkpoint.snap"
)

// Artifact file names, shared between the job journal, the artifact store
// and the fleet coordinator (which fetches them from workers and caches
// them under the same names).
const (
	ReportFile   = "report.json"
	ResultFile   = "result.pl"
	HeatmapsFile = "heatmaps.json"
	TraceFile    = "trace.json"
)

// jobRecord is the durable form of a submission (spec.json).
type jobRecord struct {
	ID        string    `json:"id"`
	Submitted time.Time `json:"submitted"`
	Spec      Spec      `json:"spec"`
}

// jobJournal persists one job's lifecycle into its state directory. All
// writes are best-effort from the serving path's point of view: journal
// I/O failures degrade durability, never the job itself.
type jobJournal struct {
	dir string

	mu sync.Mutex
	f  *os.File // events.jsonl, append-only
}

// openJobJournal creates (or reopens, after a restart) a job directory.
// Reopening appends to the existing event log, which is what keeps SSE
// sequence numbers stable across restarts.
func openJobJournal(dir string) (*jobJournal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(filepath.Join(dir, eventsFile), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &jobJournal{dir: dir, f: f}, nil
}

// writeSpec records the submission (atomic: temp + rename).
func (jj *jobJournal) writeSpec(rec jobRecord) error {
	data, err := json.MarshalIndent(&rec, "", "  ")
	if err != nil {
		return err
	}
	return atomicWriteFile(filepath.Join(jj.dir, specFile), data)
}

// appendEvent journals one progress event. Called by the broker under its
// own lock, so the on-disk order is the publish order.
func (jj *jobJournal) appendEvent(e Event) {
	data, err := json.Marshal(&e)
	if err != nil {
		return
	}
	jj.mu.Lock()
	defer jj.mu.Unlock()
	if jj.f == nil {
		return
	}
	jj.f.Write(append(data, '\n'))
}

// saveArtifact persists one artifact file (nil data is a no-op).
func (jj *jobJournal) saveArtifact(name string, data []byte) {
	if data == nil {
		return
	}
	atomicWriteFile(filepath.Join(jj.dir, name), data)
}

// checkpointPath is where the job's placement checkpoints land.
func (jj *jobJournal) checkpointPath() string {
	return filepath.Join(jj.dir, checkpointFile)
}

// close releases the event-log handle. Idempotent.
func (jj *jobJournal) close() {
	jj.mu.Lock()
	defer jj.mu.Unlock()
	if jj.f != nil {
		jj.f.Sync()
		jj.f.Close()
		jj.f = nil
	}
}

func atomicWriteFile(path string, data []byte) error {
	return atomicfile.WriteFile(path, data, 0o644)
}

// jobDir is the state directory of one job.
func (m *Manager) jobDir(id string) string {
	return filepath.Join(m.opt.StateDir, "jobs", id)
}

// initPersist opens the durable state: the artifact store and the job
// journal root, then recovers journaled jobs. It returns the recovered
// jobs that still need to run (queued or interrupted mid-run).
func (m *Manager) initPersist() ([]*Job, error) {
	jobsDir := filepath.Join(m.opt.StateDir, "jobs")
	if err := os.MkdirAll(jobsDir, 0o755); err != nil {
		return nil, err
	}
	st, err := store.Open(filepath.Join(m.opt.StateDir, "store"), store.Options{MaxBytes: m.opt.StoreMaxBytes})
	if err != nil {
		return nil, fmt.Errorf("serve: opening artifact store: %w", err)
	}
	m.store = st
	pending, err := m.recoverJobs(jobsDir)
	if err != nil {
		st.Close()
		m.store = nil
		return nil, err
	}
	return pending, nil
}

// recoverJobs rebuilds the job table from journaled state. Terminal jobs
// come back read-only with their artifacts and full event history;
// non-terminal jobs (queued, or running when the process died) are
// returned for re-enqueueing.
func (m *Manager) recoverJobs(jobsDir string) ([]*Job, error) {
	ents, err := os.ReadDir(jobsDir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, de := range ents {
		if de.IsDir() {
			names = append(names, de.Name())
		}
	}
	sort.Strings(names) // job-%06d sorts in submission order
	var pending []*Job
	for _, id := range names {
		j, runnable, err := m.recoverJob(id)
		if err != nil {
			m.opt.Logger.Warn("skipping unrecoverable job directory", "job", id, "err", err)
			continue
		}
		m.jobs[id] = j
		m.order = append(m.order, id)
		if n := idNumber(id); n > m.nextID {
			m.nextID = n
		}
		if runnable {
			pending = append(pending, j)
		}
		m.opt.Logger.Info("recovered job", "job", id, "state", j.State(), "requeued", runnable)
	}
	return pending, nil
}

// recoverJob rebuilds one job from its directory.
func (m *Manager) recoverJob(id string) (j *Job, runnable bool, err error) {
	dir := m.jobDir(id)
	data, err := os.ReadFile(filepath.Join(dir, specFile))
	if err != nil {
		return nil, false, err
	}
	var rec jobRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, false, fmt.Errorf("bad %s: %w", specFile, err)
	}

	events := readEventLog(filepath.Join(dir, eventsFile))
	last := StateQueued
	errMsg := ""
	cached := false
	for _, e := range events {
		if e.Type == EventState {
			last = e.State
			errMsg = e.Error
			if e.Cached {
				cached = true
			}
		}
	}
	j = &Job{ID: id, Spec: rec.Spec, broker: newBrokerFrom(events)}
	j.submitted = rec.Submitted
	j.cached = cached
	j.congSource, j.switchover = m.effectiveConfig(rec.Spec).ResolvedCongestion()

	if last.Terminal() {
		j.state = last
		j.errMsg = errMsg
		j.report = readFileOrNil(filepath.Join(dir, ReportFile))
		j.pl = readFileOrNil(filepath.Join(dir, ResultFile))
		j.trace = readFileOrNil(filepath.Join(dir, TraceFile))
		if hb := readFileOrNil(filepath.Join(dir, HeatmapsFile)); hb != nil {
			json.Unmarshal(hb, &j.heatmaps)
		}
		j.broker.Close()
		return j, false, nil
	}

	// Interrupted job: reopen the journal (the event log keeps appending,
	// so SSE sequence numbers continue where the dead process stopped) and
	// re-enqueue. A checkpoint, when present and decodable, lets the run
	// resume mid-flow instead of starting over.
	jj, err := openJobJournal(dir)
	if err != nil {
		return nil, false, err
	}
	j.journal = jj
	j.broker.persist = jj.appendEvent
	j.state = StateQueued
	if m.opt.Runner == nil {
		d, lerr := m.loadDesign(rec.Spec)
		if lerr != nil {
			j.finish(StateFailed, fmt.Sprintf("design reload after restart failed: %v", lerr))
			return j, false, nil
		}
		j.design = d
		if key, kerr := m.dedupKey(d, rec.Spec); kerr == nil {
			j.storeKey = key
		}
		if sb, rerr := os.ReadFile(filepath.Join(dir, checkpointFile)); rerr == nil {
			if st, derr := snap.Decode(sb); derr == nil {
				j.resume = st
			} else {
				m.opt.Logger.Warn("ignoring corrupt checkpoint", "job", id, "err", derr)
			}
		}
	}
	return j, true, nil
}

// readEventLog parses events.jsonl, stopping at the first malformed line
// (a torn write from the crash that the recovery is cleaning up after).
func readEventLog(path string) []Event {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	var out []Event
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(line, &e); err != nil {
			break
		}
		out = append(out, e)
	}
	return out
}

func readFileOrNil(path string) []byte {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	return data
}

// idNumber extracts the numeric suffix of a job-%06d identifier.
func idNumber(id string) int {
	n, err := strconv.Atoi(strings.TrimPrefix(id, "job-"))
	if err != nil {
		return 0
	}
	return n
}

// closePersist releases the artifact store's single-writer lock so a
// successor process (or test) can reopen the state directory.
func (m *Manager) closePersist() {
	if m.store != nil {
		m.store.Close()
	}
}
