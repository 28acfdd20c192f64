package fleet

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
)

// apiAnswer is the part of a response the parity contract covers.
type apiAnswer struct {
	Code        int
	ContentType string
	RetryAfter  bool
	Keys        []string // top-level JSON body keys (nil for non-JSON bodies)
}

func answerOf(rec *httptest.ResponseRecorder) apiAnswer {
	a := apiAnswer{
		Code:        rec.Code,
		ContentType: rec.Header().Get("Content-Type"),
		RetryAfter:  rec.Header().Get("Retry-After") != "",
	}
	var body map[string]any
	if json.Unmarshal(rec.Body.Bytes(), &body) == nil {
		a.Keys = []string{}
		for k := range body {
			a.Keys = append(a.Keys, k)
		}
		sort.Strings(a.Keys)
	}
	return a
}

func do(h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rec
}

// TestAPIParity runs the same request list against a single placerd
// (Manager backend) and a coordinator with one worker, both driving the
// same Runner, and requires the same answer from both: status code,
// Content-Type, Retry-After presence and error-body keys.
func TestAPIParity(t *testing.T) {
	wedge := func(ctx context.Context, j *serve.Job) error {
		<-ctx.Done()
		return ctx.Err()
	}
	apiOpt := serve.ServerOptions{MaxBodyBytes: 64 << 10}

	mgr, err := serve.NewManager(serve.Options{Runner: wedge, QueueSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, j := range mgr.List() {
			mgr.Cancel(j.ID)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		mgr.Shutdown(ctx)
	})
	// Without a Runner, Submit loads the design — the step the
	// environmental-failure row needs. It fails before enqueuing, so
	// nothing is ever placed.
	loader, err := serve.NewManager(serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		loader.Shutdown(ctx)
	})

	opt := testOptions()
	opt.QueueSize = 1
	c := mustCoordinator(t, opt)
	startWorker(t, c, serve.Options{Runner: wedge})

	coordAPI := NewServer(c, apiOpt)
	type daemon struct {
		name         string
		api, loadAPI http.Handler
		running      func(id string) bool
		ids          []string
	}
	daemons := []*daemon{
		{
			name: "placerd", api: serve.NewServer(mgr, apiOpt), loadAPI: serve.NewServer(loader, apiOpt),
			running: func(id string) bool { j, err := mgr.Get(id); return err == nil && j.State() == serve.StateRunning },
		},
		{
			name: "coordinator", api: coordAPI, loadAPI: coordAPI,
			running: func(id string) bool { j, err := c.Get(id); return err == nil && j.State() == serve.StateRunning },
		},
	}

	// Job 0 wedges on the only execution slot, job 1 waits behind it: the
	// queue (capacity 1) is now full on both daemons.
	spec, err := json.Marshal(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range daemons {
		for i := 0; i < 2; i++ {
			rec := do(d.api, http.MethodPost, "/jobs", string(spec))
			var st serve.Status
			if rec.Code != http.StatusAccepted || json.Unmarshal(rec.Body.Bytes(), &st) != nil {
				t.Fatalf("%s: submit %d = %d: %s", d.name, i, rec.Code, rec.Body)
			}
			d.ids = append(d.ids, st.ID)
			if i == 0 {
				deadline := time.Now().Add(30 * time.Second)
				for !d.running(st.ID) {
					if time.Now().After(deadline) {
						t.Fatalf("%s: job %s never started", d.name, st.ID)
					}
					time.Sleep(5 * time.Millisecond)
				}
			}
		}
	}

	huge := `{"files":{"a.nodes":"` + strings.Repeat("x", 128<<10) + `"}}`
	inline := `{"files":{"a.nodes":"UCLA nodes 1.0\n"}}`
	cases := []struct {
		name, method, path, body string
		loads                    bool // needs a backend that loads designs
		want                     int
	}{
		{name: "unknown job", method: http.MethodGet, path: "/jobs/job-999999", want: http.StatusNotFound},
		{name: "malformed JSON", method: http.MethodPost, path: "/jobs", body: "{", want: http.StatusBadRequest},
		{name: "two design sources", method: http.MethodPost, path: "/jobs", body: `{"synth":"sb-a","generate":{}}`, want: http.StatusBadRequest},
		{name: "body over MaxBodyBytes", method: http.MethodPost, path: "/jobs", body: huge, want: http.StatusRequestEntityTooLarge},
		{name: "negative events offset", method: http.MethodGet, path: "/jobs/{0}/events?from=-1", want: http.StatusBadRequest},
		{name: "report of a queued job", method: http.MethodGet, path: "/jobs/{1}/report", want: http.StatusConflict},
		{name: "heatmap list", method: http.MethodGet, path: "/jobs/{0}/heatmaps", want: http.StatusOK},
		{name: "checkpoint", method: http.MethodGet, path: "/jobs/{0}/checkpoint", want: http.StatusNotFound},
		{name: "queue full", method: http.MethodPost, path: "/jobs", body: string(spec), want: http.StatusTooManyRequests},
		{name: "unwritable TMPDIR", method: http.MethodPost, path: "/jobs", body: inline, loads: true, want: http.StatusInternalServerError},
	}
	for _, tc := range cases {
		if tc.loads {
			t.Setenv("TMPDIR", filepath.Join(t.TempDir(), "missing"))
		}
		var answers []apiAnswer
		for _, d := range daemons {
			h := d.api
			if tc.loads {
				h = d.loadAPI
			}
			path := strings.NewReplacer("{0}", d.ids[0], "{1}", d.ids[1]).Replace(tc.path)
			rec := do(h, tc.method, path, tc.body)
			a := answerOf(rec)
			if a.Code != tc.want {
				t.Errorf("%s on %s: status %d, want %d (%s)", tc.name, d.name, a.Code, tc.want, rec.Body)
			}
			answers = append(answers, a)
		}
		if !reflect.DeepEqual(answers[0], answers[1]) {
			t.Errorf("%s: placerd answered %+v, coordinator %+v", tc.name, answers[0], answers[1])
		}
	}
}
