package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
)

// FuzzSubmit pins the submission decoder's contract: whatever the body,
// POST /jobs answers 202 or a 4xx with a JSON error body — a malformed
// spec is the client's mistake, never a 5xx and never a panic. The
// manager has a Runner, so no design is ever loaded or placed and each
// input costs microseconds.
func FuzzSubmit(f *testing.F) {
	seed := func(spec Spec) {
		b, err := json.Marshal(spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	seed(Spec{Generate: tinyGen()})
	ck, err := os.ReadFile(filepath.Join("..", "snap", "testdata", "v2.snap"))
	if err != nil {
		f.Fatalf("reading checkpoint seed: %v", err)
	}
	seed(Spec{Generate: tinyGen(), Checkpoint: ck})
	seed(Spec{Synth: "sb-a", BaseFingerprint: "not-hex"})
	f.Add([]byte(`{"synth":"sb-a","config":{"disable_dp":true,"bogus":1},"extra":[1,2]}`))

	noop := func(ctx context.Context, j *Job) error { return nil }
	f.Fuzz(func(t *testing.T, body []byte) {
		m, err := NewManager(Options{Runner: noop})
		if err != nil {
			t.Fatal(err)
		}
		defer shutdownNow(m)
		rec := httptest.NewRecorder()
		NewServer(m, ServerOptions{}).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/jobs", bytes.NewReader(body)))
		if rec.Code == http.StatusAccepted {
			return
		}
		if rec.Code < 400 || rec.Code >= 500 {
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body)
		}
		var eb ErrorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Error == "" {
			t.Fatalf("status %d without a JSON error body (%v): %q", rec.Code, err, rec.Body)
		}
	})
}
