package fleet

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/serve"
)

// TestFleetProcessE2E is the full fault-tolerance drill with real
// processes: build placerd, start a coordinator and two joined workers,
// submit a placement job, SIGKILL the worker that owns it mid-run, and
// assert the coordinator reassigns the job and it completes — with a
// gapless stitched SSE log and a final .pl byte-identical to an
// uninterrupted run (workers run without -state-dir, so the reassigned
// attempt is a fresh, deterministic rerun).
func TestFleetProcessE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("process e2e skipped in -short mode")
	}

	bin := filepath.Join(t.TempDir(), "placerd")
	build := exec.Command("go", "build", "-o", bin, "repro/cmd/placerd")
	build.Dir = "../.."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building placerd: %v\n%s", err, out)
	}

	// Fast fault detection: 300ms heartbeats → lost after ~900ms.
	coord := startProc(t, bin, "-coordinator", "-addr", "127.0.0.1:0",
		"-lease", "3s", "-heartbeat", "300ms")
	coordURL := "http://" + coord.waitAddr(t)

	w1 := startProc(t, bin, "-addr", "127.0.0.1:0", "-join", coordURL)
	w2 := startProc(t, bin, "-addr", "127.0.0.1:0", "-join", coordURL)
	w1URL := "http://" + w1.waitAddr(t)
	w2URL := "http://" + w2.waitAddr(t)

	// Both workers registered and live.
	waitUntil(t, 30*time.Second, "2 live workers", func() bool {
		return len(liveWorkers(t, coordURL)) == 2
	})

	// A design big enough that the kill lands mid-run with room to spare.
	spec := serve.Spec{
		Generate: &gen.Config{
			Name: "fleet-e2e", Seed: 3,
			NumStdCells: 1200, NumFixedMacros: 2, NumMovableMacros: 2,
			MacroSizeRows: 6, NumModules: 4, NumFences: 2, NumTerminals: 16,
			TargetUtil: 0.55,
		},
		Config: core.Config{DisableDP: true},
	}
	body, _ := json.Marshal(spec)
	resp, err := http.Post(coordURL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, data)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &sub); err != nil {
		t.Fatal(err)
	}

	// Wait for the job to be running AND producing gp progress, so the
	// kill is guaranteed to land mid-placement.
	var owner string
	waitUntil(t, 60*time.Second, "job running with gp progress", func() bool {
		st := jobStatus(t, coordURL, sub.ID)
		owner = st.Worker
		return st.State == "running" && st.Events >= 4 // queued, assign, running, gp…
	})

	// Map the owning worker id to its process and SIGKILL it.
	ownerAddr := ""
	for _, w := range liveWorkers(t, coordURL) {
		if w.ID == owner {
			ownerAddr = w.Addr
		}
	}
	var victim, survivor *proc
	var survivorURL string
	switch ownerAddr {
	case w1URL:
		victim, survivor, survivorURL = w1, w2, w2URL
	case w2URL:
		victim, survivor, survivorURL = w2, w1, w1URL
	default:
		t.Fatalf("owner %s has unknown addr %q (workers %s / %s)", owner, ownerAddr, w1URL, w2URL)
	}
	t.Logf("killing owner %s (%s)", owner, ownerAddr)
	if err := victim.cmd.Process.Kill(); err != nil {
		t.Fatalf("SIGKILL: %v", err)
	}

	// The coordinator must detect the death, reassign, and the job must
	// complete on the survivor.
	waitUntil(t, 180*time.Second, "job done after reassignment", func() bool {
		return jobStatus(t, coordURL, sub.ID).State == "done"
	})
	st := jobStatus(t, coordURL, sub.ID)
	if st.Worker == owner {
		t.Errorf("job finished on the killed worker %s", owner)
	}
	if st.Attempts != 2 {
		t.Errorf("attempts = %d, want 2", st.Attempts)
	}
	_ = survivor

	// Stitched SSE replay: contiguous ids, two assigns, one requeue.
	sse, err := http.Get(coordURL + "/jobs/" + sub.ID + "/events?from=0")
	if err != nil {
		t.Fatal(err)
	}
	ids, types := readSSEIDs(t, sse.Body)
	sse.Body.Close()
	for i, id := range ids {
		if id != i {
			t.Fatalf("SSE ids not contiguous at %d (id %d)", i, id)
		}
	}
	var assigns, requeues int
	for _, ty := range types {
		switch ty {
		case EventAssign:
			assigns++
		case EventRequeue:
			requeues++
		}
	}
	if assigns != 2 || requeues != 1 {
		t.Errorf("stitched stream has %d assigns / %d requeues, want 2/1 (types %v)", assigns, requeues, types)
	}

	// The fleet result must be byte-identical to an uninterrupted
	// single-node run of the same spec on the survivor.
	fleetPl := getBytes(t, coordURL+"/jobs/"+sub.ID+"/result.pl")
	resp2, err := http.Post(survivorURL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data2, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("direct submit = %d: %s", resp2.StatusCode, data2)
	}
	var sub2 struct {
		ID string `json:"id"`
	}
	json.Unmarshal(data2, &sub2)
	waitUntil(t, 180*time.Second, "direct job done", func() bool {
		return jobStatus(t, survivorURL, sub2.ID).State == "done"
	})
	directPl := getBytes(t, survivorURL+"/jobs/"+sub2.ID+"/result.pl")
	if !bytes.Equal(fleetPl, directPl) {
		t.Errorf("fleet .pl (%d bytes) differs from uninterrupted run (%d bytes)", len(fleetPl), len(directPl))
	}

	// The report attributes the run to the surviving worker, attempt 2.
	var rep struct {
		Fleet struct {
			Worker  string `json:"worker"`
			Attempt int    `json:"attempt"`
		} `json:"fleet"`
	}
	if err := json.Unmarshal(getBytes(t, coordURL+"/jobs/"+sub.ID+"/report"), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Fleet.Worker != st.Worker || rep.Fleet.Attempt != 2 {
		t.Errorf("report fleet attribution = %+v, want worker %s attempt 2", rep.Fleet, st.Worker)
	}
}

// proc is one spawned placerd process with its parsed listen address.
type proc struct {
	cmd  *exec.Cmd
	name string

	mu   sync.Mutex
	addr string
	logs []string
}

var addrRe = regexp.MustCompile(`\baddr=([0-9A-Za-z.\[\]:]+:[0-9]+)`)

func startProc(t *testing.T, bin string, args ...string) *proc {
	t.Helper()
	p := &proc{cmd: exec.Command(bin, args...), name: strings.Join(args, " ")}
	stderr, err := p.cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.cmd.Start(); err != nil {
		t.Fatalf("starting placerd %s: %v", p.name, err)
	}
	go func() {
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			p.logs = append(p.logs, line)
			if p.addr == "" && strings.Contains(line, "listening") {
				if m := addrRe.FindStringSubmatch(line); m != nil {
					p.addr = m[1]
				}
			}
			p.mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		p.cmd.Process.Kill()
		p.cmd.Wait()
		if t.Failed() {
			p.mu.Lock()
			t.Logf("=== logs of placerd %s ===\n%s", p.name, strings.Join(p.logs, "\n"))
			p.mu.Unlock()
		}
	})
	return p
}

func (p *proc) waitAddr(t *testing.T) string {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		p.mu.Lock()
		addr := p.addr
		p.mu.Unlock()
		if addr != "" {
			return addr
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("placerd %s never logged its listen address", p.name)
	return ""
}

func waitUntil(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func liveWorkers(t *testing.T, coordURL string) []WorkerStatus {
	t.Helper()
	resp, err := http.Get(coordURL + "/fleet/workers")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var all []WorkerStatus
	if err := json.NewDecoder(resp.Body).Decode(&all); err != nil {
		t.Fatal(err)
	}
	live := all[:0]
	for _, w := range all {
		if w.Live {
			live = append(live, w)
		}
	}
	return live
}

func jobStatus(t *testing.T, base, id string) serve.Status {
	t.Helper()
	resp, err := http.Get(base + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s/jobs/%s = %d: %s", base, id, resp.StatusCode, body)
	}
	var st serve.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func getBytes(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", url, resp.StatusCode, data)
	}
	return data
}
