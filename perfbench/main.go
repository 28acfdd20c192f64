// Command perfbench is the repository's end-to-end benchmark: one process
// that runs one closed-loop workload against the placer's public API,
// checks every result it produces, and prints its metrics as one JSON
// object on the last line of standard output.
//
// Workloads (BENCHMARK.json records why each exists):
//
//	flow-sb-a                the full default flow on sb-a, read from Bookshelf, workers=1
//	flow-congested-estimate  gen.Congested(3000) with the estimator driving 4 rounds, workers=2
//	eco-sb-a                 streams of 100 ECO deltas repaired against a placed sb-a, workers=1
//
// Usage, from the repository root (run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload flow-sb-a --seed 1 --seconds 20 --trace 0
//
// Each workload places one fixed design, so every run does the same
// placement work; --seed selects eco-sb-a's delta stream, so a seed always
// yields the same inputs. With --trace 0
// the result carries the end-to-end metrics, measured with telemetry off.
// With --trace 1 the run alternates untraced and traced operations and
// reports the per-layer breakdown of the traced ones plus the tracing
// overhead. Failed checks are printed to standard error and counted in the
// result; the exit code is nonzero only when the benchmark itself cannot
// run (bad flags, unreadable inputs, missing sources).
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"repro/internal/buildinfo"
)

// maxProcs pins the Go scheduler to the two threads every workload is
// sized for, whatever the host offers, so runs on different machines
// schedule the same way.
const maxProcs = 2

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var (
		name    = fl.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
		seed    = fl.Int64("seed", 1, "input seed; selects the ECO delta stream")
		seconds = fl.Float64("seconds", 20, "measure for at least this many seconds")
		trace   = fl.Int("trace", 0, "1 reports the traced per-layer breakdown instead of the end-to-end metrics")
		root    = fl.String("root", ".", "repository root; scratch files go under <root>/.bench_build")
	)
	if err := fl.Parse(args); err != nil {
		return err
	}
	w, ok := workloadByName(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	digest, err := sourceDigest(*root)
	if err != nil {
		return err
	}
	runtime.GOMAXPROCS(maxProcs)

	scratch := filepath.Join(*root, ".bench_build")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(scratch, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	runContext := map[string]any{
		"workload":      w.name,
		"seed":          *seed,
		"seconds":       *seconds,
		"trace":         *trace,
		"workers":       w.workers,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    buildinfo.GoVersion(),
		"revision":      buildinfo.Revision(),
		"source_sha256": digest,
	}
	if err := json.NewEncoder(stdout).Encode(map[string]any{"context": runContext}); err != nil {
		return err
	}

	r := &runner{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1, dir: dir, log: stderr}
	res, err := r.run()
	if err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(res)
}

// sourceDigest hashes every Go source and go.mod under root (paths and
// contents), identifying the code under test when the checkout carries no
// VCS metadata. It fails when root holds no Go module, which is how the
// benchmark refuses to run outside a full checkout.
func sourceDigest(root string) (string, error) {
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		return "", fmt.Errorf("no Go module at %s: %w", root, err)
	}
	var paths []string
	err := filepath.WalkDir(root, func(p string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() && (e.Name() == ".bench_build" || e.Name() == ".git") {
			return filepath.SkipDir
		}
		if !e.IsDir() && (strings.HasSuffix(p, ".go") || e.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return "", err
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}
