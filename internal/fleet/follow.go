package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/serve"
)

// follow runs one assignment attempt end to end: submit the job to the
// worker (with the latest checkpoint injected), proxy its SSE progress
// stream into the coordinator-side event log (renewing the lease on every
// event), poll its checkpoint while running, and on a terminal state
// fetch artifacts / requeue / fail as the outcome demands. The context is
// canceled once the scheduler takes the job away from this attempt.
func (c *Coordinator) follow(ctx context.Context, j *Job, workerID, addr string, attempt int, ck []byte) {
	wjob, err := c.submitToWorker(ctx, j, addr, ck)
	if err != nil {
		if ctx.Err() != nil {
			return // attempt already revoked; the scheduler owns the job now
		}
		if permanent, msg := isPermanentSubmitError(err); permanent {
			c.finishJob(j, serve.StateFailed, fmt.Sprintf("worker %s rejected spec: %s", workerID, msg))
			return
		}
		c.requeue(j, fmt.Sprintf("submit to worker %s failed: %v", workerID, err))
		return
	}
	j.mu.Lock()
	if j.attempts != attempt {
		j.mu.Unlock()
		go c.cancelWorkerJob(addr, wjob)
		return
	}
	j.workerJob = wjob
	cancelPending := j.canceled
	j.mu.Unlock()
	if cancelPending {
		// Cancel arrived before the worker job id was known; deliver it now.
		go c.cancelWorkerJob(addr, wjob)
	}

	pollCtx, stopPoll := context.WithCancel(ctx)
	defer stopPoll()
	go c.pollCheckpoint(pollCtx, j, addr, wjob)

	terminal, streamErr := c.streamEvents(ctx, j, workerID, addr, wjob, attempt, len(ck) > 0)
	if terminal {
		return
	}
	if ctx.Err() != nil {
		return // revoked mid-stream; nothing to decide here
	}
	c.requeue(j, fmt.Sprintf("progress stream from worker %s broke: %v", workerID, streamErr))
}

// permanentSubmitError marks a worker 400: resubmitting the same spec
// elsewhere cannot succeed, so the job fails immediately.
type permanentSubmitError struct{ msg string }

func (e *permanentSubmitError) Error() string { return e.msg }

func isPermanentSubmitError(err error) (bool, string) {
	if pe, ok := err.(*permanentSubmitError); ok {
		return true, pe.msg
	}
	return false, ""
}

// submitToWorker posts the job spec (checkpoint injected) to the worker's
// placerd API and returns the worker-side job id.
func (c *Coordinator) submitToWorker(ctx context.Context, j *Job, addr string, ck []byte) (string, error) {
	spec := j.Spec
	spec.Checkpoint = ck
	body, err := json.Marshal(spec)
	if err != nil {
		return "", &permanentSubmitError{msg: err.Error()}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, addr+"/jobs", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.opt.Client.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	switch {
	case resp.StatusCode == http.StatusAccepted:
		var st struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(data, &st); err != nil || st.ID == "" {
			return "", fmt.Errorf("bad submit response: %v", err)
		}
		return st.ID, nil
	case resp.StatusCode == http.StatusBadRequest:
		return "", &permanentSubmitError{msg: errorMessage(data, resp.StatusCode)}
	default:
		return "", fmt.Errorf("submit: %s", errorMessage(data, resp.StatusCode))
	}
}

// errorMessage extracts the JSON error body, falling back to the code.
func errorMessage(data []byte, code int) string {
	var eb serve.ErrorBody
	if json.Unmarshal(data, &eb) == nil && eb.Error != "" {
		return eb.Error
	}
	return fmt.Sprintf("HTTP %d", code)
}

// pollCheckpoint periodically fetches the worker's journaled checkpoint
// for the job so a reassignment after worker death resumes from the last
// round the dead worker managed to persist.
func (c *Coordinator) pollCheckpoint(ctx context.Context, j *Job, addr, wjob string) {
	t := time.NewTicker(c.opt.HeartbeatEvery)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, addr+"/jobs/"+wjob+"/checkpoint", nil)
		if err != nil {
			return
		}
		resp, err := c.opt.Client.Do(req)
		if err != nil {
			continue // transient; the lease machinery decides liveness
		}
		if resp.StatusCode == http.StatusOK {
			if data, err := io.ReadAll(io.LimitReader(resp.Body, 256<<20)); err == nil {
				j.setCheckpoint(data)
				c.stats.checkpointFetches.Add(1)
			}
		}
		resp.Body.Close()
	}
}

// streamEvents follows the worker job's SSE stream, republishing progress
// into the coordinator's stitched per-job log and renewing the lease on
// every event. Returns terminal=true when the stream delivered a terminal
// state this attempt handled (done/failed/user-cancel); false means the
// stream broke and the caller must requeue.
func (c *Coordinator) streamEvents(ctx context.Context, j *Job, workerID, addr, wjob string, attempt int, resumed bool) (terminal bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, addr+"/jobs/"+wjob+"/events", nil)
	if err != nil {
		return false, err
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := c.opt.Client.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		return false, fmt.Errorf("events: %s", errorMessage(data, resp.StatusCode))
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	var data []byte
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "data:"):
			data = []byte(strings.TrimSpace(strings.TrimPrefix(line, "data:")))
		case line == "" && data != nil:
			var ev serve.Event
			payload := data
			data = nil
			if json.Unmarshal(payload, &ev) != nil {
				continue
			}
			j.renewLease(attempt, c.opt.LeaseTTL)
			c.stats.eventsProxied.Add(1)
			if done, ok := c.handleWorkerEvent(ctx, j, workerID, addr, wjob, attempt, resumed, ev); ok {
				return done, nil
			}
		}
	}
	return false, firstErr(sc.Err(), io.ErrUnexpectedEOF)
}

func firstErr(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// handleWorkerEvent routes one proxied worker event. ok=true means the
// event was terminal and fully handled (the bool result mirrors it for
// streamEvents' return).
func (c *Coordinator) handleWorkerEvent(ctx context.Context, j *Job, workerID, addr, wjob string, attempt int, resumed bool, ev serve.Event) (terminal, ok bool) {
	switch ev.Type {
	case serve.EventState:
		switch ev.State {
		case serve.StateQueued:
			// The coordinator already published its own queued event.
			return false, false
		case serve.StateRunning:
			j.publishRunning(workerID, attempt)
			return false, false
		case serve.StateDone:
			c.completeFromWorker(ctx, j, workerID, addr, wjob, attempt, resumed, ev.Cached)
			return true, true
		case serve.StateFailed:
			// A worker-reported failure is deterministic (bad placement run,
			// per-job panic): rerunning elsewhere would fail the same way.
			c.finishJob(j, serve.StateFailed, fmt.Sprintf("worker %s: %s", workerID, ev.Error))
			return true, true
		case serve.StateCanceled:
			j.mu.Lock()
			userCancel := j.canceled
			j.mu.Unlock()
			if userCancel {
				c.finishJob(j, serve.StateCanceled, "canceled")
				return true, true
			}
			// The worker canceled on its own (drain, per-job timeout racing a
			// reassignment): infrastructure trouble, not a client verdict.
			c.requeue(j, fmt.Sprintf("worker %s canceled the job (drain or local timeout)", workerID))
			return true, true
		}
		return false, false
	case serve.EventGP, serve.EventRoute:
		j.publishProxied(ev, workerID, attempt)
		return false, false
	default:
		return false, false
	}
}

// completeFromWorker finishes a done job: fetch the artifacts, stamp
// fleet attribution into the report, cache the result in the artifact
// store, and publish the terminal event.
func (c *Coordinator) completeFromWorker(ctx context.Context, j *Job, workerID, addr, wjob string, attempt int, resumed, cached bool) {
	report := c.fetchArtifact(ctx, addr+"/jobs/"+wjob+"/report")
	pl := c.fetchArtifact(ctx, addr+"/jobs/"+wjob+"/result.pl")
	trace := c.fetchArtifact(ctx, addr+"/jobs/"+wjob+"/trace")
	if report != nil {
		report = annotateReport(report, map[string]any{
			"worker":  workerID,
			"addr":    addr,
			"attempt": attempt,
			"resumed": resumed,
		})
	}
	j.mu.Lock()
	j.report, j.pl, j.trace = report, pl, trace
	storeKey := j.storeKey
	j.mu.Unlock()

	if c.store != nil && storeKey != "" && report != nil && pl != nil {
		arts := map[string][]byte{
			serve.ReportFile: report,
			serve.ResultFile: pl,
		}
		if trace != nil {
			arts[serve.TraceFile] = trace
		}
		if err := c.store.Put(storeKey, arts); err != nil {
			c.opt.Logger.Warn("artifact store put failed", "job", j.ID, "err", err)
		}
	}
	if cached {
		j.mu.Lock()
		j.cached = true
		j.mu.Unlock()
	}
	c.finishJob(j, serve.StateDone, "")
}

// fetchArtifact downloads one artifact with brief retries (the worker
// writes artifacts just before publishing the terminal event, so a 409
// here is a race worth a couple of retries — or a mock runner that simply
// produced none, which is fine: nil).
func (c *Coordinator) fetchArtifact(ctx context.Context, url string) []byte {
	for try := 0; try < 3; try++ {
		if try > 0 {
			select {
			case <-ctx.Done():
				return nil
			case <-time.After(100 * time.Millisecond):
			}
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return nil
		}
		resp, err := c.opt.Client.Do(req)
		if err != nil {
			continue
		}
		if resp.StatusCode == http.StatusOK {
			data, rerr := io.ReadAll(io.LimitReader(resp.Body, 1<<30))
			resp.Body.Close()
			if rerr == nil {
				return data
			}
			continue
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusNotFound {
			return nil
		}
	}
	return nil
}
