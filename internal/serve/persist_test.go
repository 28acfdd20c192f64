package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/snap"
	"repro/internal/store"
)

// persistSpec is the real-placement job spec the durability tests share:
// deterministic (fixed worker count) and fast (tiny design, no DP).
func persistSpec() Spec {
	return Spec{
		Generate: tinyGen(),
		Config:   core.Config{Workers: 1, DisableDP: true},
	}
}

func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestRestartServesTerminalJobs runs a real placement job to completion,
// shuts the manager down cleanly, reopens the same state directory as a
// fresh process would, and checks the old job is fully served from the
// journal: status, report, result and the complete SSE replay with
// working ?from= offsets.
func TestRestartServesTerminalJobs(t *testing.T) {
	dir := t.TempDir()

	m1 := mustManager(t, Options{StateDir: dir})
	j, err := m1.Submit(persistSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateDone, 60*time.Second)
	wantReport := j.Report()
	wantPl := j.ResultPl()
	evs, done, _ := j.Events(0)
	if !done || len(evs) < 3 {
		t.Fatalf("first run stream: done=%v events=%d", done, len(evs))
	}
	wantEvents := len(evs)
	shutdownNow(m1)

	// "Restart": a new manager over the same state directory.
	m2 := mustManager(t, Options{StateDir: dir})
	ts := httptest.NewServer(NewServer(m2, ServerOptions{}))
	defer ts.Close()
	defer shutdownNow(m2)

	r, err := m2.Get(j.ID)
	if err != nil {
		t.Fatalf("recovered manager lost job %s: %v", j.ID, err)
	}
	if r.State() != StateDone {
		t.Fatalf("recovered job state = %v, want done", r.State())
	}
	if !bytes.Equal(r.Report(), wantReport) {
		t.Error("recovered report differs from the original")
	}
	if !bytes.Equal(r.ResultPl(), wantPl) {
		t.Error("recovered result.pl differs from the original")
	}
	if len(j.Trace()) == 0 || !bytes.Equal(r.Trace(), j.Trace()) {
		t.Error("recovered trace missing or differs from the original")
	}

	// Full SSE replay over HTTP, then a tail via ?from= — the journaled
	// sequence numbers must line up with the SSE ids.
	code, _ := getBody(t, ts.URL+"/jobs/"+j.ID)
	if code != http.StatusOK {
		t.Fatalf("status endpoint = %d", code)
	}
	es, err := http.Get(ts.URL + "/jobs/" + j.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	replay := readSSE(t, es.Body)
	es.Body.Close()
	if len(replay) != wantEvents {
		t.Fatalf("replay after restart returned %d events, original run had %d", len(replay), wantEvents)
	}
	for i, e := range replay {
		if e.id != fmt.Sprint(i) {
			t.Fatalf("replay event %d has SSE id %q", i, e.id)
		}
	}
	if last := replay[len(replay)-1]; last.event != EventState || last.data.State != StateDone {
		t.Errorf("replay ends with %q/%v, want terminal done", last.event, last.data.State)
	}
	tail, err := http.Get(ts.URL + "/jobs/" + j.ID + fmt.Sprintf("/events?from=%d", wantEvents-1))
	if err != nil {
		t.Fatal(err)
	}
	tailEvs := readSSE(t, tail.Body)
	tail.Body.Close()
	if len(tailEvs) != 1 || tailEvs[0].id != fmt.Sprint(wantEvents-1) {
		t.Errorf("?from=%d returned %d events (first id %q), want exactly the terminal one",
			wantEvents-1, len(tailEvs), tailEvs[0].id)
	}

	// New submissions continue the ID sequence instead of reusing job IDs.
	j2, err := m2.Submit(Spec{Synth: "sb-a", Config: core.Config{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if j2.ID <= j.ID {
		t.Errorf("post-restart job ID %s does not continue after %s", j2.ID, j.ID)
	}
	if _, err := m2.Cancel(j2.ID); err != nil {
		t.Fatal(err)
	}
}

// manufactureJobDir writes the journal of a job that was mid-run when the
// process died: a spec plus an event log ending in the running state.
func manufactureJobDir(t *testing.T, stateDir, id string, spec Spec) string {
	t.Helper()
	dir := filepath.Join(stateDir, "jobs", id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	rec := jobRecord{ID: id, Submitted: time.Now().Add(-time.Minute), Spec: spec}
	sb, err := json.Marshal(&rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, specFile), sb, 0o644); err != nil {
		t.Fatal(err)
	}
	log := `{"seq":0,"type":"state","state":"queued"}` + "\n" +
		`{"seq":1,"type":"state","state":"running"}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, eventsFile), []byte(log), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// oldConfigJSON is core.Config as daemons encoded it before nine of its
// options became constants: every key, with no omitempty, so their
// spec.json files carry gamma_factor, gp_iter_per_round and the rest.
const oldConfigJSON = `{"model":"","target_density":0,"gamma_factor":0,"workers":1,` +
	`"gp_iter_per_round":0,"max_lambda_rounds":0,"overflow_stop":0,"disable_quad_init":false,` +
	`"disable_multilevel":false,"disable_routability":false,"disable_fences":false,` +
	`"disable_macro_orient":false,"disable_dp":true,"routability_iters":0,"congestion_source":"",` +
	`"route_last_rounds":0,"inflate_max":0,"inflate_exp":0,"congestion_threshold":0,"dp_passes":0,` +
	`"enable_channel_derate":false,"channel_min_span":0,"channel_derate":0,"cluster_min_objs":0}`

// TestRestartLoadsSpecWithRemovedKeys: journals written before the config
// lost those keys still load. A finished job is served from its journal,
// and an interrupted one re-runs to done under the options that remain.
func TestRestartLoadsSpecWithRemovedKeys(t *testing.T) {
	dir := t.TempDir()
	gb, err := json.Marshal(tinyGen())
	if err != nil {
		t.Fatal(err)
	}
	plant := func(id, source, log string) string {
		jobDir := filepath.Join(dir, "jobs", id)
		if err := os.MkdirAll(jobDir, 0o755); err != nil {
			t.Fatal(err)
		}
		rec := fmt.Sprintf(`{"id":%q,"submitted":"2026-01-02T03:04:05Z","spec":{%s,"config":%s}}`, id, source, oldConfigJSON)
		if err := os.WriteFile(filepath.Join(jobDir, specFile), []byte(rec), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(jobDir, eventsFile), []byte(log), 0o644); err != nil {
			t.Fatal(err)
		}
		return jobDir
	}
	doneDir := plant("job-000001", `"synth":"sb-a"`, `{"seq":0,"type":"state","state":"queued"}`+"\n"+
		`{"seq":1,"type":"state","state":"running"}`+"\n"+`{"seq":2,"type":"state","state":"done"}`+"\n")
	wantPl := []byte("UCLA pl 1.0\n")
	if err := os.WriteFile(filepath.Join(doneDir, ResultFile), wantPl, 0o644); err != nil {
		t.Fatal(err)
	}
	plant("job-000002", `"generate":`+string(gb), `{"seq":0,"type":"state","state":"queued"}`+"\n"+
		`{"seq":1,"type":"state","state":"running"}`+"\n")

	m := mustManager(t, Options{StateDir: dir})
	ts := httptest.NewServer(NewServer(m, ServerOptions{}))
	defer ts.Close()
	defer shutdownNow(m)

	code, body := getBody(t, ts.URL+"/jobs/job-000001")
	var st Status
	if err := json.Unmarshal(body, &st); code != http.StatusOK || err != nil || st.State != StateDone {
		t.Fatalf("old finished job: status %d, state %q (%v): %s", code, st.State, err, body)
	}
	if code, pl := getBody(t, ts.URL+"/jobs/job-000001/result.pl"); code != http.StatusOK || !bytes.Equal(pl, wantPl) {
		t.Errorf("old finished job: result.pl %d %q, want 200 %q", code, pl, wantPl)
	}

	j, err := m.Get("job-000002")
	if err != nil {
		t.Fatalf("old interrupted job not recovered: %v", err)
	}
	if c := j.Spec.Config; c.Workers != 1 || !c.DisableDP {
		t.Errorf("old interrupted job config = %+v, want workers 1 and disable_dp kept", c)
	}
	waitState(t, j, StateDone, 60*time.Second)
	if code, pl := getBody(t, ts.URL+"/jobs/job-000002/result.pl"); code != http.StatusOK || !bytes.HasPrefix(pl, []byte("UCLA pl")) {
		t.Errorf("old interrupted job: result.pl %d after re-run", code)
	}
}

// TestRestartRequeuesInterruptedJob recovers a journal whose event log
// stops at "running" (a crash), re-runs the job, and checks the event
// sequence continues from the journaled offset.
func TestRestartRequeuesInterruptedJob(t *testing.T) {
	dir := t.TempDir()
	manufactureJobDir(t, dir, "job-000007", Spec{Synth: "sb-a"})

	m := mustManager(t, Options{
		Runner:   func(ctx context.Context, j *Job) error { return nil },
		StateDir: dir,
	})
	defer shutdownNow(m)

	j, err := m.Get("job-000007")
	if err != nil {
		t.Fatalf("interrupted job not recovered: %v", err)
	}
	waitState(t, j, StateDone, 10*time.Second)

	evs, done, _ := j.Events(0)
	if !done {
		t.Error("stream not complete after re-run")
	}
	// Journaled queued+running, then the re-run's running+done: seqs 0..3.
	if len(evs) != 4 {
		t.Fatalf("event log has %d events after re-run, want 4 (journaled 2 + running + done)", len(evs))
	}
	for i, e := range evs {
		if e.Seq != i {
			t.Fatalf("event %d carries seq %d — restart broke ?from= offsets", i, e.Seq)
		}
	}
	if evs[3].State != StateDone {
		t.Errorf("final event state = %v, want done", evs[3].State)
	}

	// The continuation was journaled too: a second restart sees all 4.
	shutdownNow(m)
	got := readEventLog(filepath.Join(dir, "jobs", "job-000007", eventsFile))
	if len(got) != 4 {
		t.Errorf("journal holds %d events after re-run, want 4", len(got))
	}

	// ID allocation continues past the recovered job.
	m2 := mustManager(t, Options{
		Runner:   func(ctx context.Context, j *Job) error { return nil },
		StateDir: dir,
	})
	defer shutdownNow(m2)
	j2, err := m2.Submit(Spec{Synth: "sb-a"})
	if err != nil {
		t.Fatal(err)
	}
	if j2.ID != "job-000008" {
		t.Errorf("post-recovery ID = %s, want job-000008", j2.ID)
	}
	waitState(t, j2, StateDone, 10*time.Second)
}

// TestRestartResumesFromCheckpoint plants a mid-GP checkpoint in an
// interrupted job's journal and checks the restarted manager resumes the
// placement from it (rather than starting over) and completes the job.
func TestRestartResumesFromCheckpoint(t *testing.T) {
	dir := t.TempDir()
	spec := persistSpec()
	jobDir := manufactureJobDir(t, dir, "job-000001", spec)

	// Produce a genuine checkpoint of this exact job: same generated
	// design, same config, killed at the third λ round.
	d := gen.MustGenerate(*spec.Generate)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := spec.Config
	var ckBlob []byte
	cfg.Checkpoint = func(st *snap.State) {
		if st.Stage == snap.StageGP && st.Round >= 3 {
			ckBlob = snap.Encode(st)
			cancel()
		}
	}
	if _, err := core.MustNew(cfg).PlaceContext(ctx, d); !errors.Is(err, context.Canceled) {
		t.Fatalf("checkpoint producer err = %v, want canceled", err)
	}
	st, err := snap.Decode(ckBlob)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(jobDir, checkpointFile), ckBlob, 0o644); err != nil {
		t.Fatal(err)
	}

	m := mustManager(t, Options{StateDir: dir})
	ts := httptest.NewServer(NewServer(m, ServerOptions{}))
	defer ts.Close()
	defer shutdownNow(m)

	j, err := m.Get("job-000001")
	if err != nil {
		t.Fatal(err)
	}
	if j.resume == nil || j.resume.Round != st.Round {
		t.Fatalf("recovered job resume state = %+v, want checkpoint at round %d", j.resume, st.Round)
	}
	waitState(t, j, StateDone, 60*time.Second)
	if j.Report() == nil || j.ResultPl() == nil {
		t.Error("resumed job has no artifacts")
	}

	_, body := getBody(t, ts.URL+"/metrics")
	if !strings.Contains(string(body), "placerd_jobs_resumed_total 1") {
		t.Errorf("/metrics missing placerd_jobs_resumed_total 1:\n%s",
			grepLines(string(body), "resumed"))
	}
}

// TestDuplicateSubmissionServedFromStore is the dedup e2e: the second
// submission of an identical spec is answered from the artifact store —
// born done, zero placer events, byte-identical artifacts — and the store
// hit shows up in /metrics.
func TestDuplicateSubmissionServedFromStore(t *testing.T) {
	dir := t.TempDir()
	m, ts := newTestServer(t, Options{StateDir: dir})

	j1, err := m.Submit(persistSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j1, StateDone, 60*time.Second)
	if j1.Status().Cached {
		t.Fatal("first submission claims to be cached")
	}

	j2, err := m.Submit(persistSpec())
	if err != nil {
		t.Fatal(err)
	}
	// Born done: no waiting, no placer run.
	if st := j2.Status(); st.State != StateDone || !st.Cached {
		t.Fatalf("duplicate submission status = %+v, want done+cached instantly", st)
	}
	if !bytes.Equal(j2.Report(), j1.Report()) {
		t.Error("cached report differs from the original")
	}
	if !bytes.Equal(j2.ResultPl(), j1.ResultPl()) {
		t.Error("cached result.pl differs from the original")
	}
	if len(j1.Trace()) == 0 || !bytes.Equal(j2.Trace(), j1.Trace()) {
		t.Error("cached trace missing or differs from the original")
	}
	evs, done, _ := j2.Events(0)
	if !done || len(evs) != 1 || evs[0].Type != EventState || !evs[0].Cached {
		t.Fatalf("cached job stream = %d events (done=%v), want exactly one cached terminal event", len(evs), done)
	}

	// A different config is a different key: no false sharing.
	other := persistSpec()
	other.Config.MaxLambdaRounds = 3
	j3, err := m.Submit(other)
	if err != nil {
		t.Fatal(err)
	}
	if j3.Status().Cached {
		t.Fatal("different config was served from cache")
	}
	waitState(t, j3, StateDone, 60*time.Second)

	// Three entries: the two distinct (design, config) results plus the
	// eco-base index entry both runs share (same input fingerprint, so
	// the second run overwrote the first's slot).
	_, body := getBody(t, ts.URL+"/metrics")
	for _, want := range []string{
		"placerd_store_hits_total 1",
		"placerd_store_entries 3",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q:\n%s", want, grepLines(string(body), "store"))
		}
	}

	// The cached job survives a restart like any other terminal job.
	shutdownNow(m)
	m2 := mustManager(t, Options{StateDir: dir})
	defer shutdownNow(m2)
	r, err := m2.Get(j2.ID)
	if err != nil {
		t.Fatal(err)
	}
	st := r.Status()
	if st.State != StateDone || !st.Cached {
		t.Errorf("recovered cached job status = %+v, want done+cached", st)
	}
	if !bytes.Equal(r.Report(), j1.Report()) {
		t.Error("recovered cached report differs")
	}
}

// TestDedupKeyHonorsDaemonDefaults: the dedup key covers the config a job
// actually runs, daemon-level congestion defaults included. A daemon
// restarted with -congestion-source estimate must not answer with the
// route-mode result cached before the restart, and a daemon without
// defaults must still find that result (its keys did not move).
func TestDedupKeyHonorsDaemonDefaults(t *testing.T) {
	dir := t.TempDir()
	m := mustManager(t, Options{StateDir: dir})
	j1, err := m.Submit(persistSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j1, StateDone, 60*time.Second)
	shutdownNow(m)

	m2 := mustManager(t, Options{StateDir: dir, CongestionSource: "estimate"})
	j2, err := m2.Submit(persistSpec())
	if err != nil {
		t.Fatal(err)
	}
	if st := j2.Status(); st.Cached {
		t.Fatalf("estimate-default daemon served the route-mode result as cached: %+v", st)
	}
	waitState(t, j2, StateDone, 60*time.Second)
	var rep struct {
		Config core.Config `json:"config"`
	}
	if err := json.Unmarshal(j2.Report(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Config.CongestionSource != "estimate" {
		t.Errorf("report config congestion source = %q, want estimate", rep.Config.CongestionSource)
	}
	shutdownNow(m2)

	m3 := mustManager(t, Options{StateDir: dir})
	defer shutdownNow(m3)
	j3, err := m3.Submit(persistSpec())
	if err != nil {
		t.Fatal(err)
	}
	if st := j3.Status(); !st.Cached {
		t.Fatalf("default daemon missed the result cached before: %+v", st)
	}
	if !bytes.Equal(j3.Report(), j1.Report()) {
		t.Error("default daemon's cached report differs from the original run's")
	}
}

// TestStateDirLockedByLiveManager pins single-writer exclusion: two live
// managers must not share a state directory.
func TestStateDirLockedByLiveManager(t *testing.T) {
	dir := t.TempDir()
	m := mustManager(t, Options{StateDir: dir})
	defer shutdownNow(m)
	if _, err := NewManager(Options{StateDir: dir}); !errors.Is(err, store.ErrLocked) {
		t.Fatalf("second NewManager on a live state dir: err = %v, want store.ErrLocked", err)
	}
}

func grepLines(s, substr string) string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}
