package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/serve"
)

// NewServer is the coordinator's HTTP API: the /jobs API, served by the
// same handlers as a single placerd (serve.NewServer over c), plus the
// worker-facing control plane on the same mux:
//
//	POST   /fleet/register      worker registration
//	POST   /fleet/heartbeat     worker liveness + active job set
//	GET    /fleet/workers       worker registry snapshot
//	DELETE /fleet/workers/{id}  graceful worker deregistration
//
// On the coordinator, GET /jobs/{id}/heatmaps lists no labels (heatmaps
// are not proxied from workers) and GET /jobs/{id}/checkpoint is a JSON
// 404 (fetched checkpoints are fleet-internal).
func NewServer(c *Coordinator, opt serve.ServerOptions) *serve.Server[*Job] {
	s := serve.NewServer(c, opt)
	cp := controlPlane{c: c, api: s}
	s.HandleFunc("POST /fleet/register", cp.handleRegister)
	s.HandleFunc("POST /fleet/heartbeat", cp.handleHeartbeat)
	s.HandleFunc("GET /fleet/workers", cp.handleWorkers)
	s.HandleFunc("DELETE /fleet/workers/{id}", cp.handleDeregister)
	return s
}

// controlPlane serves the /fleet/* routes.
type controlPlane struct {
	c   *Coordinator
	api *serve.Server[*Job]
}

// decode reads a bounded JSON control-plane request, answering 400 when
// it does not parse.
func (cp controlPlane) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, 1<<20)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		cp.api.WriteError(w, fmt.Errorf("%w: %w", serve.ErrBadSpec, err))
		return false
	}
	return true
}

// fail answers ErrUnknownWorker with a 404, which tells the worker's
// agent to register again under a fresh identity; every other error
// takes the /jobs API's mapping.
func (cp controlPlane) fail(w http.ResponseWriter, err error) {
	if errors.Is(err, ErrUnknownWorker) {
		serve.WriteJSON(w, http.StatusNotFound, serve.ErrorBody{Error: err.Error()})
		return
	}
	cp.api.WriteError(w, err)
}

func (cp controlPlane) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req registerRequest
	if !cp.decode(w, r, &req) {
		return
	}
	wk, err := cp.c.Register(req.Addr, req.Capacity)
	if err != nil {
		cp.fail(w, err)
		return
	}
	serve.WriteJSON(w, http.StatusOK, registerResponse{
		WorkerID:    wk.ID,
		HeartbeatMS: cp.c.opt.HeartbeatEvery.Milliseconds(),
		LeaseMS:     cp.c.opt.LeaseTTL.Milliseconds(),
	})
}

func (cp controlPlane) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req heartbeatRequest
	if !cp.decode(w, r, &req) {
		return
	}
	if err := cp.c.Heartbeat(req.WorkerID, req.Active); err != nil {
		cp.fail(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (cp controlPlane) handleWorkers(w http.ResponseWriter, r *http.Request) {
	serve.WriteJSON(w, http.StatusOK, cp.c.Workers())
}

func (cp controlPlane) handleDeregister(w http.ResponseWriter, r *http.Request) {
	if err := cp.c.Deregister(r.PathValue("id")); err != nil {
		cp.fail(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}
