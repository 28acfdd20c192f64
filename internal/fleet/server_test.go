package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
)

func newCoordServer(t *testing.T, opt Options) (*Coordinator, *httptest.Server) {
	t.Helper()
	c := mustCoordinator(t, opt)
	ts := httptest.NewServer(NewServer(c, serve.ServerOptions{}))
	t.Cleanup(ts.Close)
	return c, ts
}

func postSpec(t *testing.T, url string, spec serve.Spec) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, data
}

// TestAgentLifecycle exercises the real wire protocol end to end: a
// worker joins through its fleet agent, runs a job submitted over the
// coordinator's HTTP API, and leaves gracefully.
func TestAgentLifecycle(t *testing.T) {
	c, cts := newCoordServer(t, testOptions())

	mgr, err := serve.NewManager(serve.Options{Runner: completingRunner(nil)})
	if err != nil {
		t.Fatal(err)
	}
	wts := httptest.NewServer(serve.NewServer(mgr, serve.ServerOptions{}))
	t.Cleanup(func() {
		wts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		mgr.Shutdown(ctx)
	})
	agent, err := StartAgent(AgentOptions{
		Coordinator: cts.URL,
		Advertise:   wts.URL,
		Capacity:    1,
		Manager:     mgr,
	})
	if err != nil {
		t.Fatalf("StartAgent: %v", err)
	}

	liveWorkers := func() int {
		n := 0
		for _, ws := range c.Workers() {
			if ws.Live {
				n++
			}
		}
		return n
	}
	deadline := time.Now().Add(30 * time.Second)
	for liveWorkers() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if liveWorkers() != 1 {
		t.Fatal("agent never registered")
	}
	if agent.WorkerID() == "" {
		t.Fatal("agent has no worker id after registration")
	}

	resp, data := postSpec(t, cts.URL, tinySpec())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, data)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &sub); err != nil {
		t.Fatal(err)
	}
	j, err := c.Get(sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, serve.StateDone)

	// /fleet/workers over HTTP.
	wresp, err := http.Get(cts.URL + "/fleet/workers")
	if err != nil {
		t.Fatal(err)
	}
	var workers []WorkerStatus
	if err := json.NewDecoder(wresp.Body).Decode(&workers); err != nil {
		t.Fatal(err)
	}
	wresp.Body.Close()
	if len(workers) != 1 || !workers[0].Live || workers[0].Addr != wts.URL {
		t.Fatalf("workers = %+v", workers)
	}

	// Graceful leave: the worker deregisters and shows as not live.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := agent.Close(ctx); err != nil {
		t.Fatalf("agent.Close: %v", err)
	}
	if liveWorkers() != 0 {
		t.Error("worker still live after graceful deregistration")
	}
}

// readSSEIDs parses an SSE stream to completion, returning the event ids
// and types in order.
func readSSEIDs(t *testing.T, r io.Reader) (ids []int, types []string) {
	t.Helper()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			id, err := strconv.Atoi(line[len("id: "):])
			if err != nil {
				t.Fatalf("bad SSE id line %q", line)
			}
			ids = append(ids, id)
		case strings.HasPrefix(line, "event: "):
			types = append(types, line[len("event: "):])
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading SSE: %v", err)
	}
	return ids, types
}

// TestServerSSEFromReplay covers ?from= semantics on the coordinator's
// stitched stream: mid-log replay, exactly-at-end, past-end, and the
// negative rejection — on a job whose log spans a reassignment.
func TestServerSSEFromReplay(t *testing.T) {
	c, cts := newCoordServer(t, testOptions())
	started := make(chan string, 2)
	w1 := startWorker(t, c, serve.Options{Runner: func(ctx context.Context, j *serve.Job) error {
		started <- j.ID
		<-ctx.Done()
		return ctx.Err()
	}})
	startWorker(t, c, serve.Options{Runner: completingRunner(nil)})

	j, err := c.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	<-started
	w1.stopHeartbeat()
	waitState(t, j, serve.StateDone)
	total := j.log.Len()
	if total < 6 {
		t.Fatalf("stitched log has %d events, want ≥6 (two attempts)", total)
	}

	// Replay from the middle: ids continue exactly from the offset.
	resp, err := http.Get(cts.URL + "/jobs/" + j.ID + "/events?from=3")
	if err != nil {
		t.Fatal(err)
	}
	ids, _ := readSSEIDs(t, resp.Body)
	resp.Body.Close()
	if len(ids) != total-3 {
		t.Fatalf("from=3 replayed %d events, want %d", len(ids), total-3)
	}
	for i, id := range ids {
		if id != 3+i {
			t.Fatalf("from=3 ids = %v: want contiguous from 3 across the reassignment", ids)
		}
	}

	// Exactly at the end of a terminal job: clean empty stream.
	resp, err = http.Get(cts.URL + "/jobs/" + j.ID + "/events?from=" + strconv.Itoa(total))
	if err != nil {
		t.Fatal(err)
	}
	ids, _ = readSSEIDs(t, resp.Body)
	resp.Body.Close()
	if len(ids) != 0 {
		t.Fatalf("from=end replayed %v, want nothing", ids)
	}

	// Past the end of a terminal job: also a clean empty stream.
	resp, err = http.Get(cts.URL + "/jobs/" + j.ID + "/events?from=" + strconv.Itoa(total+100))
	if err != nil {
		t.Fatal(err)
	}
	ids, _ = readSSEIDs(t, resp.Body)
	resp.Body.Close()
	if len(ids) != 0 {
		t.Fatalf("from=past-end replayed %v, want nothing", ids)
	}

	// Negative offsets are a client mistake.
	resp, err = http.Get(cts.URL + "/jobs/" + j.ID + "/events?from=-1")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("from=-1 = %d, want 400", resp.StatusCode)
	}
}

// TestServerQueueFullBody checks the coordinator's 429 contract: the
// Retry-After header plus live queue gauges in the JSON error body.
func TestServerQueueFullBody(t *testing.T) {
	opt := testOptions()
	opt.QueueSize = 1
	_, cts := newCoordServer(t, opt) // no workers: jobs stay queued

	if resp, data := postSpec(t, cts.URL, tinySpec()); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit 1 = %d: %s", resp.StatusCode, data)
	}
	resp, data := postSpec(t, cts.URL, tinySpec())
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit 2 = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	var eb serve.ErrorBody
	if err := json.Unmarshal(data, &eb); err != nil {
		t.Fatalf("429 body: %v", err)
	}
	if eb.QueueDepth != 1 || eb.QueueCap != 1 {
		t.Errorf("429 body gauges = depth %d cap %d, want 1/1", eb.QueueDepth, eb.QueueCap)
	}
}

// TestServerRejectsClientCheckpoint: the checkpoint field is
// fleet-internal; the public API must refuse it.
func TestServerRejectsClientCheckpoint(t *testing.T) {
	_, cts := newCoordServer(t, testOptions())
	spec := tinySpec()
	spec.Checkpoint = []byte("RPSN-bogus")
	resp, data := postSpec(t, cts.URL, spec)
	if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(data, []byte("fleet-internal")) {
		t.Fatalf("submit with checkpoint = %d %s, want 400 fleet-internal", resp.StatusCode, data)
	}
}

// TestServerMetrics spot-checks the placerd_fleet_* exposition.
func TestServerMetrics(t *testing.T) {
	c, cts := newCoordServer(t, testOptions())
	startWorker(t, c, serve.Options{Runner: completingRunner(nil)})
	j, err := c.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, serve.StateDone)

	resp, err := http.Get(cts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`placerd_fleet_workers{live="true"} 1`,
		`placerd_fleet_jobs_total{state="done"} 1`,
		"placerd_fleet_reassignments_total 0",
		"placerd_fleet_job_duration_seconds_count 1",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
