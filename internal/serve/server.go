package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"

	"repro/internal/obs"
	"repro/internal/viz"
)

// ServerOptions tunes the HTTP layer.
type ServerOptions struct {
	// MaxBodyBytes bounds submission bodies (default 32 MiB; inline
	// Bookshelf bundles can be large).
	MaxBodyBytes int64
	// RetryAfterSec is the Retry-After hint on 429 responses (default 2).
	RetryAfterSec int
	// Pprof mounts net/http/pprof under /debug/pprof/. Off by default:
	// profiling endpoints expose internals and cost CPU, so enabling them
	// is a deployment decision (cmd/placerd -pprof).
	Pprof bool
}

func (o ServerOptions) withDefaults() ServerOptions {
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 32 << 20
	}
	if o.RetryAfterSec <= 0 {
		o.RetryAfterSec = 2
	}
	return o
}

// JobView is what the /jobs API reads from one job. *Job implements it,
// and so does the fleet coordinator's job.
type JobView interface {
	Status() Status
	Events(from int) ([]Event, bool, <-chan struct{})
	Report() []byte
	ResultPl() []byte
	Trace() []byte
	Heatmaps() []obs.Heatmap
	CheckpointBytes() []byte
}

// Backend is the job table the /jobs API serves: *Manager on a single
// placerd, the fleet coordinator in a fleet. Its errors use this
// package's sentinels (ErrBadSpec, ErrQueueFull, ErrShuttingDown,
// ErrUnknownJob), which the server maps onto HTTP status codes.
type Backend[J JobView] interface {
	Submit(spec Spec) (J, error)
	Get(id string) (J, error)
	List() []J
	Cancel(id string) (J, error)
	QueueDepth() int
	QueueCap() int
	// Health is the GET /healthz body.
	Health() map[string]any
	// WriteMetrics renders the GET /metrics Prometheus text exposition.
	WriteMetrics(w io.Writer)
}

// Server is the placerd HTTP API over a job backend. One handler set
// serves both a single daemon and the fleet coordinator, so clients
// cannot tell the two apart.
//
//	POST   /jobs                      submit (202; 429 when the queue is full)
//	GET    /jobs                      list job statuses
//	GET    /jobs/{id}                 one job's status
//	DELETE /jobs/{id}                 cancel (202)
//	GET    /jobs/{id}/events          SSE progress stream (?from=<seq> resumes)
//	GET    /jobs/{id}/report          final JSON run report
//	GET    /jobs/{id}/result.pl       placed .pl
//	GET    /jobs/{id}/trace           Chrome trace-event JSON (Perfetto)
//	GET    /jobs/{id}/checkpoint      latest journaled checkpoint (snap codec)
//	GET    /jobs/{id}/heatmaps        captured heatmap labels
//	GET    /jobs/{id}/heatmaps/{label} one heatmap as SVG
//	GET    /healthz                   liveness + queue gauges
//	GET    /metrics                   Prometheus text metrics
//	GET    /debug/pprof/...           net/http/pprof (ServerOptions.Pprof)
type Server[J JobView] struct {
	b   Backend[J]
	opt ServerOptions
	mux *http.ServeMux
}

// NewServer wires the API routes over b.
func NewServer[J JobView](b Backend[J], opt ServerOptions) *Server[J] {
	s := &Server[J]{b: b, opt: opt.withDefaults(), mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /jobs", s.handleList)
	s.mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /jobs/{id}/report", s.artifact("application/json", "report yet", J.Report))
	s.mux.HandleFunc("GET /jobs/{id}/result.pl", s.artifact("text/plain; charset=utf-8", "placement result", J.ResultPl))
	s.mux.HandleFunc("GET /jobs/{id}/trace", s.artifact("application/json", "trace yet", J.Trace))
	s.mux.HandleFunc("GET /jobs/{id}/checkpoint", s.handleCheckpoint)
	s.mux.HandleFunc("GET /jobs/{id}/heatmaps", s.handleHeatmapList)
	s.mux.HandleFunc("GET /jobs/{id}/heatmaps/{label}", s.handleHeatmap)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, s.b.Health())
	})
	s.mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.b.WriteMetrics(w)
	})
	if s.opt.Pprof {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s
}

func (s *Server[J]) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// HandleFunc mounts one more route on the server's mux, next to the
// /jobs API (the fleet coordinator's /fleet/* control plane).
func (s *Server[J]) HandleFunc(pattern string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, h)
}

// WriteJSON answers with v as indented JSON.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// ErrorBody is the JSON body of every API error.
type ErrorBody struct {
	Error string `json:"error"`
	// QueueDepth and QueueCap are set on 429 queue-full rejections so a
	// client can size its backoff against how congested the daemon is.
	QueueDepth int `json:"queue_depth,omitempty"`
	QueueCap   int `json:"queue_cap,omitempty"`
}

// WriteError maps backend errors onto HTTP semantics: client mistakes
// are 400, a full queue is 429 with a Retry-After hint and the live queue
// gauges in the body, drain is 503, unknown jobs are 404, everything else
// (environmental failures such as an unwritable temp directory) is 500.
func (s *Server[J]) WriteError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	body := ErrorBody{Error: err.Error()}
	switch {
	case errors.Is(err, ErrBadSpec):
		code = http.StatusBadRequest
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", strconv.Itoa(s.opt.RetryAfterSec))
		code = http.StatusTooManyRequests
		body.QueueDepth = s.b.QueueDepth()
		body.QueueCap = s.b.QueueCap()
	case errors.Is(err, ErrShuttingDown):
		code = http.StatusServiceUnavailable
	case errors.Is(err, ErrUnknownJob):
		code = http.StatusNotFound
	}
	WriteJSON(w, code, body)
}

// submitResponse is the 202 body of a successful submission.
type submitResponse struct {
	Status
	Links map[string]string `json:"links"`
}

func jobLinks(id string) map[string]string {
	base := "/jobs/" + id
	return map[string]string{
		"self":       base,
		"events":     base + "/events",
		"report":     base + "/report",
		"result":     base + "/result.pl",
		"trace":      base + "/trace",
		"checkpoint": base + "/checkpoint",
	}
}

func (s *Server[J]) handleSubmit(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.opt.MaxBodyBytes)
	var spec Spec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			WriteJSON(w, http.StatusRequestEntityTooLarge, ErrorBody{Error: err.Error()})
			return
		}
		s.WriteError(w, fmt.Errorf("%w: %w", ErrBadSpec, err))
		return
	}
	j, err := s.b.Submit(spec)
	if err != nil {
		s.WriteError(w, err)
		return
	}
	st := j.Status()
	WriteJSON(w, http.StatusAccepted, submitResponse{Status: st, Links: jobLinks(st.ID)})
}

func (s *Server[J]) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.b.List()
	out := make([]Status, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.Status())
	}
	WriteJSON(w, http.StatusOK, out)
}

func (s *Server[J]) job(w http.ResponseWriter, r *http.Request) (J, bool) {
	j, err := s.b.Get(r.PathValue("id"))
	if err != nil {
		s.WriteError(w, err)
		return j, false
	}
	return j, true
}

func (s *Server[J]) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.job(w, r); ok {
		st := j.Status()
		WriteJSON(w, http.StatusOK, submitResponse{Status: st, Links: jobLinks(st.ID)})
	}
}

func (s *Server[J]) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, err := s.b.Cancel(r.PathValue("id"))
	if err != nil {
		s.WriteError(w, err)
		return
	}
	WriteJSON(w, http.StatusAccepted, j.Status())
}

// handleEvents streams the job's progress log as Server-Sent Events:
// full replay from ?from=<seq> (default 0), then live tail until the
// job reaches a terminal state or the client disconnects. Each message
// carries the event seq as SSE id, the type as SSE event name, and the
// JSON payload as data.
func (s *Server[J]) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		WriteJSON(w, http.StatusInternalServerError, ErrorBody{Error: "streaming unsupported"})
		return
	}
	from := 0
	if q := r.URL.Query().Get("from"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 0 {
			s.WriteError(w, fmt.Errorf("%w: bad from=%q", ErrBadSpec, q))
			return
		}
		from = v
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	for {
		evs, done, sig := j.Events(from)
		for i := range evs {
			data, err := json.Marshal(&evs[i])
			if err != nil {
				return
			}
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", evs[i].Seq, evs[i].Type, data)
		}
		from += len(evs)
		fl.Flush()
		if done {
			return
		}
		select {
		case <-sig:
		case <-r.Context().Done():
			return
		}
	}
}

// artifact serves one job artifact, or 409 while the job has none.
func (s *Server[J]) artifact(contentType, missing string, get func(J) []byte) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		j, ok := s.job(w, r)
		if !ok {
			return
		}
		data := get(j)
		if data == nil {
			st := j.Status()
			WriteJSON(w, http.StatusConflict, ErrorBody{Error: fmt.Sprintf("job %s has no %s (state %s)", st.ID, missing, st.State)})
			return
		}
		w.Header().Set("Content-Type", contentType)
		w.Write(data)
	}
}

// handleCheckpoint serves the job's latest journaled placement checkpoint
// (snap codec bytes). The fleet coordinator polls its workers' copy while
// a job runs so a reassignment after worker death can resume from the
// last journaled round instead of starting over. The coordinator's own
// jobs never have one here: fetched checkpoints only travel to the next
// assignment, so there the route is a JSON 404.
func (s *Server[J]) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	ck := j.CheckpointBytes()
	if ck == nil {
		WriteJSON(w, http.StatusNotFound, ErrorBody{Error: fmt.Sprintf("job %s has no checkpoint", j.Status().ID)})
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(ck)
}

// handleHeatmapList lists the job's captured heatmap labels (empty on the
// fleet coordinator, which does not proxy heatmaps from its workers).
func (s *Server[J]) handleHeatmapList(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	heats := j.Heatmaps()
	labels := make([]string, 0, len(heats))
	for _, h := range heats {
		labels = append(labels, h.Label)
	}
	WriteJSON(w, http.StatusOK, map[string]any{"labels": labels})
}

func (s *Server[J]) handleHeatmap(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	label := r.PathValue("label")
	for _, h := range j.Heatmaps() {
		if h.Label == label {
			var svg bytes.Buffer
			if err := viz.HeatmapSVG(&svg, h.NX, h.NY, h.Cong, 800); err != nil {
				WriteJSON(w, http.StatusInternalServerError, ErrorBody{Error: err.Error()})
				return
			}
			w.Header().Set("Content-Type", "image/svg+xml")
			w.Write(svg.Bytes())
			return
		}
	}
	WriteJSON(w, http.StatusNotFound, ErrorBody{Error: fmt.Sprintf("job %s has no heatmap %q", j.Status().ID, label)})
}
