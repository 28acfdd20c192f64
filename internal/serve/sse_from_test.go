package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"testing"
)

// terminalJob submits a no-op job and waits until it is done, returning
// its id and total event count (queued, running, done = 3).
func terminalJob(t *testing.T, m *Manager) (string, int) {
	t.Helper()
	j, err := m.Submit(Spec{Synth: "sb-a"})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j)
	return j.ID, j.broker.Len()
}

func waitTerminal(t *testing.T, j *Job) {
	t.Helper()
	from := 0
	for {
		evs, done, sig := j.Events(from)
		from += len(evs)
		if done {
			return
		}
		<-sig
	}
}

// TestSSEFromNegativeRejected: a negative offset is a client mistake and
// must be a 400, not an open stream.
func TestSSEFromNegativeRejected(t *testing.T) {
	m, ts := newTestServer(t, Options{Runner: func(ctx context.Context, j *Job) error { return nil }})
	id, _ := terminalJob(t, m)
	for _, q := range []string{"-1", "-999", "notanumber"} {
		resp, err := http.Get(ts.URL + "/jobs/" + id + "/events?from=" + q)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("from=%s status = %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestSSEFromAtEndTerminal: from == len on a terminal job must complete
// immediately with an empty replay — the client is already caught up.
func TestSSEFromAtEndTerminal(t *testing.T) {
	m, ts := newTestServer(t, Options{Runner: func(ctx context.Context, j *Job) error { return nil }})
	id, total := terminalJob(t, m)
	resp, err := http.Get(ts.URL + "/jobs/" + id + "/events?from=" + strconv.Itoa(total))
	if err != nil {
		t.Fatal(err)
	}
	evs := readSSE(t, resp.Body)
	resp.Body.Close()
	if len(evs) != 0 {
		t.Errorf("from=%d on terminal job replayed %d events, want 0", total, len(evs))
	}
}

// TestSSEFromPastEndTerminal: an offset beyond the log of a terminal job
// also ends cleanly with nothing — not a hang, not an error.
func TestSSEFromPastEndTerminal(t *testing.T) {
	m, ts := newTestServer(t, Options{Runner: func(ctx context.Context, j *Job) error { return nil }})
	id, total := terminalJob(t, m)
	resp, err := http.Get(ts.URL + "/jobs/" + id + "/events?from=" + strconv.Itoa(total+50))
	if err != nil {
		t.Fatal(err)
	}
	evs := readSSE(t, resp.Body)
	resp.Body.Close()
	if len(evs) != 0 {
		t.Errorf("from=past-end on terminal job replayed %d events, want 0", len(evs))
	}
}

// TestSSEFromPastEndLive: an offset at the current end of a LIVE job must
// block until events with seq ≥ from are published, then deliver exactly
// those — no replay of earlier events, no skips.
func TestSSEFromPastEndLive(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{})
	m, ts := newTestServer(t, Options{Runner: blockingRunner(started, release)})
	j, err := m.Submit(Spec{Synth: "sb-a"})
	if err != nil {
		t.Fatal(err)
	}
	<-started // events so far: queued (0), running (1)

	// Subscribe at the live end: seq 2 does not exist yet.
	resp, err := http.Get(ts.URL + "/jobs/" + j.ID + "/events?from=2")
	if err != nil {
		t.Fatal(err)
	}
	close(release) // job finishes → done event gets seq 2
	evs := readSSE(t, resp.Body)
	resp.Body.Close()
	if len(evs) != 1 {
		t.Fatalf("live from=end delivered %d events, want exactly the terminal one", len(evs))
	}
	if evs[0].data.Seq != 2 || evs[0].data.Type != EventState || evs[0].data.State != StateDone {
		t.Errorf("live from=end delivered %+v, want seq 2 state done", evs[0].data)
	}
}

// TestQueueFullBody: the 429 rejection must carry the live queue gauges
// in its JSON body (alongside the Retry-After header) so clients can
// size their backoff.
func TestQueueFullBody(t *testing.T) {
	started := make(chan string, 4)
	release := make(chan struct{})
	defer close(release)
	_, ts := newTestServer(t, Options{
		QueueSize: 2, Jobs: 1,
		Runner: blockingRunner(started, release),
	})

	if resp, _ := postJob(t, ts, Spec{Synth: "sb-a"}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job 1 = %d", resp.StatusCode)
	}
	<-started // running; queue empty
	for i := 2; i <= 3; i++ {
		if resp, _ := postJob(t, ts, Spec{Synth: "sb-a"}); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("job %d = %d", i, resp.StatusCode)
		}
	}

	body, _ := json.Marshal(Spec{Synth: "sb-a"})
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
	var eb ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if eb.QueueDepth != 2 || eb.QueueCap != 2 {
		t.Errorf("429 body gauges = depth %d cap %d, want 2/2", eb.QueueDepth, eb.QueueCap)
	}
	if eb.Error == "" {
		t.Error("429 body has no error message")
	}
}
