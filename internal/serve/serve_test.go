package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/snap"
)

// tinyGen is a design small enough that a full placement job finishes in
// a couple of seconds even under -race.
func tinyGen() *gen.Config {
	return &gen.Config{
		Name: "serve-t", Seed: 11,
		NumStdCells: 200, NumFixedMacros: 1, NumMovableMacros: 1,
		MacroSizeRows: 4, NumModules: 2, NumFences: 1, NumTerminals: 8,
		TargetUtil: 0.5,
	}
}

func mustManager(t *testing.T, opt Options) *Manager {
	t.Helper()
	m, err := NewManager(opt)
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	return m
}

func newTestServer(t *testing.T, opt Options) (*Manager, *httptest.Server) {
	t.Helper()
	m := mustManager(t, opt)
	ts := httptest.NewServer(NewServer(m, ServerOptions{}))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		m.Shutdown(ctx)
	})
	return m, ts
}

func postJob(t *testing.T, ts *httptest.Server, spec any) (*http.Response, submitResponse) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sub submitResponse
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
			t.Fatalf("decoding submit response: %v", err)
		}
	}
	return resp, sub
}

// sseEvent is one parsed SSE message.
type sseEvent struct {
	id    string
	event string
	data  Event
}

// readSSE consumes an SSE stream until it ends, parsing every message.
func readSSE(t *testing.T, r io.Reader) []sseEvent {
	t.Helper()
	var out []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			out = append(out, cur)
			cur = sseEvent{}
		case strings.HasPrefix(line, "id: "):
			cur.id = line[len("id: "):]
		case strings.HasPrefix(line, "event: "):
			cur.event = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(line[len("data: "):]), &cur.data); err != nil {
				t.Fatalf("bad SSE data %q: %v", line, err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading SSE: %v", err)
	}
	return out
}

// TestEndToEndPlacement is the serving-layer e2e: submit a generated
// design over HTTP, follow its live SSE stream to completion, then fetch
// the versioned report, the .pl result and a heatmap.
func TestEndToEndPlacement(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, sub := postJob(t, ts, Spec{
		Generate: tinyGen(),
		Config:   core.Config{DisableDP: true},
		Heatmaps: true,
		Evaluate: true,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	if sub.ID == "" || sub.Links["events"] == "" {
		t.Fatalf("submit response incomplete: %+v", sub)
	}

	// Follow the stream to the end; the connection closes on the terminal
	// event, so a plain read-to-EOF is the whole job.
	es, err := http.Get(ts.URL + sub.Links["events"])
	if err != nil {
		t.Fatal(err)
	}
	defer es.Body.Close()
	if ct := es.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events Content-Type = %q", ct)
	}
	events := readSSE(t, es.Body)

	var gp, route, states int
	last := sseEvent{}
	for i, e := range events {
		if fmt.Sprint(i) != e.id {
			t.Errorf("event %d has SSE id %q (ids must be the seq for resume)", i, e.id)
		}
		switch e.event {
		case EventGP:
			gp++
		case EventRoute:
			route++
		case EventState:
			states++
		default:
			t.Errorf("unknown SSE event type %q", e.event)
		}
		last = e
	}
	if gp < 1 {
		t.Errorf("streamed %d gp round events, want >= 1", gp)
	}
	if route < 1 {
		t.Errorf("streamed %d route round events, want >= 1", route)
	}
	if last.event != EventState || last.data.State != StateDone {
		t.Fatalf("stream ended with %q/%v, want terminal done state (events: %d)", last.event, last.data.State, len(events))
	}

	// Replay: a late joiner gets the identical full log; ?from resumes.
	replay, err := http.Get(ts.URL + sub.Links["events"])
	if err != nil {
		t.Fatal(err)
	}
	full := readSSE(t, replay.Body)
	replay.Body.Close()
	if len(full) != len(events) {
		t.Errorf("replay returned %d events, live stream had %d", len(full), len(events))
	}
	tail, err := http.Get(ts.URL + sub.Links["events"] + fmt.Sprintf("?from=%d", len(events)-1))
	if err != nil {
		t.Fatal(err)
	}
	tailEvs := readSSE(t, tail.Body)
	tail.Body.Close()
	if len(tailEvs) != 1 || tailEvs[0].data.State != StateDone {
		t.Errorf("?from resume returned %d events, want exactly the terminal one", len(tailEvs))
	}

	// Report: golden schema v1, not canceled, with routed metrics.
	rr, err := http.Get(ts.URL + sub.Links["report"])
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Body.Close()
	if rr.StatusCode != http.StatusOK {
		t.Fatalf("report status = %d", rr.StatusCode)
	}
	var rep struct {
		Version  int    `json:"version"`
		Tool     string `json:"tool"`
		Canceled bool   `json:"canceled"`
		Metrics  *struct {
			HPWL float64 `json:"hpwl"`
		} `json:"metrics"`
	}
	if err := json.NewDecoder(rr.Body).Decode(&rep); err != nil {
		t.Fatalf("report is not JSON: %v", err)
	}
	if rep.Version != 1 || rep.Tool != "placerd" || rep.Canceled {
		t.Errorf("report header = %+v, want version 1, tool placerd, not canceled", rep)
	}
	if rep.Metrics == nil || rep.Metrics.HPWL <= 0 {
		t.Errorf("report metrics missing or empty: %+v", rep.Metrics)
	}

	// Chrome trace: span names in the trace's complete events must match
	// the report's top-level stages, and resource attribution must be
	// present (placerd always samples).
	tr, err := http.Get(ts.URL + sub.Links["trace"])
	if err != nil {
		t.Fatal(err)
	}
	traceBody, _ := io.ReadAll(tr.Body)
	tr.Body.Close()
	if tr.StatusCode != http.StatusOK {
		t.Fatalf("trace status = %d", tr.StatusCode)
	}
	var trace struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(traceBody, &trace); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	spanNames := map[string]bool{}
	for _, ev := range trace.TraceEvents {
		if ev.Ph == "X" {
			spanNames[ev.Name] = true
		}
	}
	for _, stage := range []string{"lower", "gp", "legalize"} {
		if !spanNames[stage] {
			t.Errorf("trace has no %q complete event (X events: %v)", stage, spanNames)
		}
	}
	var repFull struct {
		Attribution map[string]*struct {
			WallMS float64 `json:"wall_ms"`
		} `json:"attribution"`
	}
	rr2, err := http.Get(ts.URL + sub.Links["report"])
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(rr2.Body).Decode(&repFull)
	rr2.Body.Close()
	if repFull.Attribution["gp"] == nil || repFull.Attribution["gp"].WallMS <= 0 {
		t.Errorf("report attribution missing gp stage: %+v", repFull.Attribution)
	}

	// Placement result.
	pr, err := http.Get(ts.URL + sub.Links["result"])
	if err != nil {
		t.Fatal(err)
	}
	pl, _ := io.ReadAll(pr.Body)
	pr.Body.Close()
	if pr.StatusCode != http.StatusOK || !bytes.HasPrefix(pl, []byte("UCLA pl")) {
		t.Errorf("result.pl status=%d prefix=%q", pr.StatusCode, string(pl[:min(len(pl), 20)]))
	}

	// Heatmaps: the final congestion map is always captured when the
	// design has a route grid.
	hr, err := http.Get(ts.URL + "/jobs/" + sub.ID + "/heatmaps")
	if err != nil {
		t.Fatal(err)
	}
	var labels struct {
		Labels []string `json:"labels"`
	}
	json.NewDecoder(hr.Body).Decode(&labels)
	hr.Body.Close()
	if len(labels.Labels) < 1 {
		t.Fatalf("no heatmaps captured")
	}
	sv, err := http.Get(ts.URL + "/jobs/" + sub.ID + "/heatmaps/" + labels.Labels[0])
	if err != nil {
		t.Fatal(err)
	}
	svg, _ := io.ReadAll(sv.Body)
	sv.Body.Close()
	if sv.StatusCode != http.StatusOK || !bytes.Contains(svg, []byte("<svg")) {
		t.Errorf("heatmap %q: status=%d, not SVG", labels.Labels[0], sv.StatusCode)
	}

	// Status endpoint agrees.
	sr, err := http.Get(ts.URL + "/jobs/" + sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	var st submitResponse
	json.NewDecoder(sr.Body).Decode(&st)
	sr.Body.Close()
	if st.State != StateDone || st.Events != len(events) {
		t.Errorf("status = %+v, want done with %d events", st.Status, len(events))
	}

	// The completed run must have fed the per-stage duration histograms,
	// and /metrics carries build info plus runtime gauges.
	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metricsBody, _ := io.ReadAll(mr.Body)
	mr.Body.Close()
	if ct := mr.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("/metrics Content-Type = %q", ct)
	}
	for _, want := range []string{
		"placerd_build_info{go_version=",
		`placerd_stage_seconds_count{stage="gp"} 1`,
		`placerd_stage_seconds_bucket{stage="gp",le="+Inf"} 1`,
		"go_goroutines ",
		"go_heap_live_bytes ",
	} {
		if !strings.Contains(string(metricsBody), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestPprofGated pins that the profiling endpoints only exist when the
// deployment opted in.
func TestPprofGated(t *testing.T) {
	m := mustManager(t, Options{Runner: func(ctx context.Context, j *Job) error { return nil }})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		m.Shutdown(ctx)
	})
	off := httptest.NewServer(NewServer(m, ServerOptions{}))
	defer off.Close()
	resp, err := http.Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof disabled: GET /debug/pprof/ = %d, want 404", resp.StatusCode)
	}

	on := httptest.NewServer(NewServer(m, ServerOptions{Pprof: true}))
	defer on.Close()
	resp, err = http.Get(on.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte("goroutine")) {
		t.Errorf("pprof enabled: GET /debug/pprof/ = %d, want index page", resp.StatusCode)
	}
}

// blockingRunner returns a Runner that signals when each job starts and
// blocks until released or canceled.
func blockingRunner(started chan<- string, release <-chan struct{}) func(context.Context, *Job) error {
	return func(ctx context.Context, j *Job) error {
		started <- j.ID
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

func TestQueueFullBackpressure(t *testing.T) {
	started := make(chan string, 8)
	release := make(chan struct{})
	defer close(release)
	_, ts := newTestServer(t, Options{
		QueueSize: 1, Jobs: 1,
		Runner: blockingRunner(started, release),
	})

	// First job occupies the worker; second fills the one queue slot.
	if resp, _ := postJob(t, ts, Spec{Synth: "sb-a"}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job 1 status = %d", resp.StatusCode)
	}
	<-started // job 1 is running, queue is empty
	if resp, _ := postJob(t, ts, Spec{Synth: "sb-a"}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job 2 status = %d", resp.StatusCode)
	}
	resp, _ := postJob(t, ts, Spec{Synth: "sb-a"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("job 3 status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response carries no Retry-After header")
	}
}

func TestCancelRunningJobOverHTTP(t *testing.T) {
	before := runtime.NumGoroutine()
	started := make(chan string, 1)
	m, ts := newTestServer(t, Options{
		Runner: blockingRunner(started, nil),
	})
	_, sub := postJob(t, ts, Spec{Synth: "sb-a"})
	<-started

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+sub.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel status = %d, want 202", resp.StatusCode)
	}

	j, _ := m.Get(sub.ID)
	waitState(t, j, StateCanceled, 5*time.Second)
	if msg := j.Err(); !strings.Contains(msg, "context canceled") {
		t.Errorf("canceled job error = %q", msg)
	}

	// The worker, SSE plumbing and job context must all wind down: allow
	// the runtime a moment to settle, then compare goroutine counts.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+3 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before+3 {
		t.Errorf("goroutines grew from %d to %d after cancel", before, n)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	started := make(chan string, 8)
	release := make(chan struct{})
	m, ts := newTestServer(t, Options{
		QueueSize: 4, Jobs: 1,
		Runner: blockingRunner(started, release),
	})
	_, first := postJob(t, ts, Spec{Synth: "sb-a"})
	<-started
	_, second := postJob(t, ts, Spec{Synth: "sb-a"})

	if _, err := m.Cancel(second.ID); err != nil {
		t.Fatal(err)
	}
	j2, _ := m.Get(second.ID)
	if st := j2.State(); st != StateCanceled {
		t.Fatalf("queued job state after cancel = %v, want canceled immediately", st)
	}

	close(release) // let job 1 finish; the worker must skip the canceled job 2
	j1, _ := m.Get(first.ID)
	waitState(t, j1, StateDone, 5*time.Second)
	if st := j2.State(); st != StateCanceled {
		t.Errorf("canceled job was run anyway: state = %v", st)
	}
}

func TestPanicRecovery(t *testing.T) {
	m, _ := newTestServer(t, Options{
		Runner: func(ctx context.Context, j *Job) error {
			if j.Spec.Seed == 666 {
				panic("boom")
			}
			return nil
		},
	})
	bad, err := m.Submit(Spec{Synth: "sb-a", Seed: 666})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, bad, StateFailed, 5*time.Second)
	if msg := bad.Err(); !strings.Contains(msg, "panicked: boom") {
		t.Errorf("panic job error = %q", msg)
	}
	// The worker survived the panic and still serves jobs.
	good, err := m.Submit(Spec{Synth: "sb-a"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, good, StateDone, 5*time.Second)
}

func TestGracefulShutdownDrains(t *testing.T) {
	started := make(chan string, 8)
	release := make(chan struct{})
	m := mustManager(t, Options{
		QueueSize: 4, Jobs: 1,
		Runner: blockingRunner(started, release),
	})
	j1, err := m.Submit(Spec{Synth: "sb-a"})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	j2, err := m.Submit(Spec{Synth: "sb-a"})
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		done <- m.Shutdown(ctx)
	}()

	// Draining: new submissions are refused, queued work still runs.
	waitFor(t, 5*time.Second, func() bool {
		_, err := m.Submit(Spec{Synth: "sb-a"})
		return errors.Is(err, ErrShuttingDown)
	})
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("Shutdown = %v, want clean drain", err)
	}
	if j1.State() != StateDone || j2.State() != StateDone {
		t.Errorf("after drain: j1=%v j2=%v, want both done", j1.State(), j2.State())
	}
}

func TestShutdownDeadlineCancelsStragglers(t *testing.T) {
	started := make(chan string, 1)
	m := mustManager(t, Options{
		Runner: blockingRunner(started, nil), // only cancelable via ctx
	})
	j, err := m.Submit(Spec{Synth: "sb-a"})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := m.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want deadline exceeded", err)
	}
	waitState(t, j, StateCanceled, 5*time.Second)
}

func TestSubmitRejectsBadSpecs(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	cases := []struct {
		name string
		body string
		want int
	}{
		{"not json", "{", http.StatusBadRequest},
		{"unknown field", `{"bogus": 1}`, http.StatusBadRequest},
		{"no design source", `{}`, http.StatusBadRequest},
		{"two design sources", `{"synth": "sb-a", "generate": {}}`, http.StatusBadRequest},
		{"unknown benchmark", `{"synth": "nope"}`, http.StatusBadRequest},
		{"path jobs disabled", `{"aux": "x.aux"}`, http.StatusBadRequest},
		{"bad placer config", `{"synth": "sb-a", "config": {"Model": "bogus"}}`, http.StatusBadRequest},
		{"removed config key", `{"synth":"sb-a","config":{"gamma_factor":0.8}}`, http.StatusBadRequest},
		{"workers over the cap", `{"synth":"sb-a","config":{"workers":1073741824}}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s: status = %d, want %d", c.name, resp.StatusCode, c.want)
		}
	}
	for _, path := range []string{"/jobs/job-999999", "/jobs/job-999999/events", "/jobs/job-999999/report"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestSubmitRejectsNonFiniteCheckpoint: a client checkpoint carrying a
// NaN coordinate is a bad spec (400 naming the float), not an accepted
// job that later fails with a panic stack in its error.
func TestSubmitRejectsNonFiniteCheckpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	d := gen.MustGenerate(*tinyGen())
	n := len(d.Cells)
	st := &snap.State{Design: d.Name, Fingerprint: d.Fingerprint(), Stage: snap.StageGP, Round: 2,
		Lambda: 1, Mu: 1, X: make([]float64, n), Y: make([]float64, n),
		Orient: make([]uint8, n), Inflate: make([]float64, n)}
	for i, c := range d.Cells {
		st.X[i], st.Y[i], st.Inflate[i] = c.Pos.X, c.Pos.Y, 1
	}
	st.X[n/2] = math.NaN()
	body, err := json.Marshal(Spec{Generate: tinyGen(), Checkpoint: snap.Encode(st)})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "non-finite") {
		t.Errorf("NaN checkpoint: status %d, body %s; want 400 naming the non-finite float", resp.StatusCode, msg)
	}
}

// TestSubmitGeneratedEdgeCaseAnswers: gen.Congested(400, 1) draws local
// nets wider than the index window near the ends of the cell list; the
// submission must still be answered promptly (it once spun forever in
// the generator, wedging the handler and the server's shutdown).
func TestSubmitGeneratedEdgeCaseAnswers(t *testing.T) {
	m, ts := newTestServer(t, Options{})
	cfg := gen.Congested(400, 1)
	body, err := json.Marshal(Spec{Generate: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Timeout: 30 * time.Second}
	resp, err := client.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /jobs: %v", err)
	}
	var sub submitResponse
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || err != nil {
		t.Fatalf("POST /jobs = %d (%v), want 202", resp.StatusCode, err)
	}
	// Only the answer matters here; don't spend the cleanup on placing it.
	if _, err := m.Cancel(sub.ID); err != nil {
		t.Fatal(err)
	}
}

func TestAuxPathAllowlist(t *testing.T) {
	m := mustManager(t, Options{AllowDir: t.TempDir()})
	defer shutdownNow(m)
	for _, aux := range []string{"../../etc/passwd", "/etc/passwd", "a/../../b.aux"} {
		if _, err := m.Submit(Spec{Aux: aux}); !errors.Is(err, ErrBadSpec) {
			t.Errorf("Submit(aux=%q) err = %v, want ErrBadSpec", aux, err)
		}
	}
}

func TestInlineFilesRejectNestedNames(t *testing.T) {
	m := mustManager(t, Options{})
	defer shutdownNow(m)
	_, err := m.Submit(Spec{Files: map[string]string{"../x.nodes": ""}})
	if !errors.Is(err, ErrBadSpec) {
		t.Errorf("nested inline name: err = %v, want ErrBadSpec", err)
	}
}

// TestMalformedInlineDesignIs400 pins the 400-vs-500 contract: a broken
// .nodes line surfaces as ErrBadSpec with file:line context.
func TestMalformedInlineDesignIs400(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	spec := Spec{Files: map[string]string{
		"t.nodes": "UCLA nodes 1.0\nc0 4\n", // missing height
		"t.nets":  "UCLA nets 1.0\n",
	}}
	resp, _ := postJob(t, ts, spec)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed .nodes: status = %d, want 400", resp.StatusCode)
	}
}

func TestMetricsAndHealthz(t *testing.T) {
	m, ts := newTestServer(t, Options{
		Runner: func(ctx context.Context, j *Job) error { return nil },
	})
	j, err := m.Submit(Spec{Synth: "sb-a"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateDone, 5*time.Second)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`placerd_jobs_total{state="done"} 1`,
		"placerd_queue_capacity 16",
		"placerd_job_duration_seconds_count 1",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status string `json:"status"`
	}
	json.NewDecoder(hz.Body).Decode(&health)
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK || health.Status != "ok" {
		t.Errorf("/healthz = %d %q", hz.StatusCode, health.Status)
	}
}

func TestListOrdersBySubmission(t *testing.T) {
	started := make(chan string, 8)
	release := make(chan struct{})
	defer close(release)
	m, _ := newTestServer(t, Options{
		QueueSize: 8, Jobs: 1,
		Runner: blockingRunner(started, release),
	})
	var ids []string
	for i := 0; i < 3; i++ {
		j, err := m.Submit(Spec{Synth: "sb-a"})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	jobs := m.List()
	if len(jobs) != 3 {
		t.Fatalf("List returned %d jobs", len(jobs))
	}
	for i, j := range jobs {
		if j.ID != ids[i] {
			t.Errorf("List[%d] = %s, want %s (submission order)", i, j.ID, ids[i])
		}
	}
}

func waitState(t *testing.T, j *Job, want State, timeout time.Duration) {
	t.Helper()
	waitFor(t, timeout, func() bool { return j.State() == want })
	if st := j.State(); st != want {
		t.Fatalf("job %s state = %v, want %v (err %q)", j.ID, st, want, j.Err())
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached before timeout")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func shutdownNow(m *Manager) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	m.Shutdown(ctx)
}
