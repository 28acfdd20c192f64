package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bookshelf"
	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/route"
	"repro/internal/viz"
)

func TestVariantName(t *testing.T) {
	cases := []struct {
		cfg  core.Config
		want string
	}{
		{core.Config{}, "wa"},
		{core.Config{Model: "lse"}, "lse"},
		{core.Config{DisableRoutability: true}, "wa-blind"},
		{core.Config{DisableRoutability: true, DisableFences: true}, "wa-blind-flat"},
		{core.Config{Model: "lse", DisableMultilevel: true}, "lse-1lvl"},
	}
	for _, c := range cases {
		if got := variantName(c.cfg); got != c.want {
			t.Errorf("variantName(%+v) = %q, want %q", c.cfg, got, c.want)
		}
	}
}

func TestLoadDesignSynth(t *testing.T) {
	d, err := loadDesign("", "sb-a", 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != "sb-a" {
		t.Errorf("name = %q", d.Name)
	}
	if _, err := loadDesign("", "nope", 0); err == nil {
		t.Error("unknown synth accepted")
	}
	if _, err := loadDesign("", "", 0); err == nil {
		t.Error("no input accepted")
	}
	if _, err := loadDesign("x.aux", "sb-a", 0); err == nil {
		t.Error("both inputs accepted")
	}
}

func TestLoadDesignSeedOverride(t *testing.T) {
	a, err := loadDesign("", "sb-a", 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := loadDesign("", "sb-a", 999)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Cells {
		if a.Cells[i].Pos != b.Cells[i].Pos {
			same = false
			break
		}
	}
	if same {
		t.Error("seed override had no effect")
	}
}

// TestTraceMatchesReport runs the -report/-trace pipeline the CLI wires
// up (recorder with resource sampling → full placement → report + Chrome
// trace) on a tiny design, then cross-checks the two outputs: every
// top-level span in the report must appear as an "X" complete event in
// the trace with ts/dur equal to the report's start/duration (report is
// milliseconds, trace microseconds).
func TestTraceMatchesReport(t *testing.T) {
	d, err := gen.Generate(gen.Config{
		Name: "trace-t", Seed: 7,
		NumStdCells: 200, NumFixedMacros: 1, NumMovableMacros: 1,
		MacroSizeRows: 4, NumModules: 2, NumFences: 1, NumTerminals: 8,
		TargetUtil: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := obs.CLI{Tool: "placer", Report: "r.json", Trace: "t.json"}.Recorder()
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{DisableDP: true, Workers: 1, Obs: rec}
	placer, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := placer.PlaceContext(context.Background(), d); err != nil {
		t.Fatal(err)
	}

	rep := rec.BuildReport()
	rep.Tool = "placer"
	dir := t.TempDir()
	repPath := filepath.Join(dir, "r.json")
	trPath := filepath.Join(dir, "t.json")
	if err := rep.WriteFile(repPath); err != nil {
		t.Fatal(err)
	}
	if err := rep.WriteChromeTraceFile(trPath); err != nil {
		t.Fatal(err)
	}

	var gotRep struct {
		Spans []struct {
			Name    string  `json:"name"`
			StartMS float64 `json:"start_ms"`
			DurMS   float64 `json:"dur_ms"`
		} `json:"spans"`
		Attribution map[string]*struct {
			WallMS       float64 `json:"wall_ms"`
			AllocObjects int64   `json:"alloc_objects"`
		} `json:"attribution"`
	}
	repData, err := os.ReadFile(repPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(repData, &gotRep); err != nil {
		t.Fatalf("report is not JSON: %v", err)
	}
	if len(gotRep.Spans) == 0 {
		t.Fatal("report has no spans")
	}
	if gotRep.Attribution["gp"] == nil || gotRep.Attribution["gp"].WallMS <= 0 {
		t.Errorf("report attribution missing gp: %+v", gotRep.Attribution)
	}

	var trace struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	trData, err := os.ReadFile(trPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(trData, &trace); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	type key struct {
		name string
		ts   float64
	}
	durs := map[key]float64{}
	for _, ev := range trace.TraceEvents {
		if ev.Ph == "X" {
			durs[key{ev.Name, ev.Ts}] = ev.Dur
		}
	}
	for _, sp := range gotRep.Spans {
		dur, ok := durs[key{sp.Name, sp.StartMS * 1e3}]
		if !ok {
			t.Errorf("span %q (start %.3fms) has no matching trace event", sp.Name, sp.StartMS)
			continue
		}
		if dur != sp.DurMS*1e3 {
			t.Errorf("span %q: trace dur %.1fus, report %.3fms", sp.Name, dur, sp.DurMS)
		}
	}
}

func TestWritePl(t *testing.T) {
	b := db.NewBuilder("t", geom.NewRect(0, 0, 10, 10))
	ci := b.AddStdCell("a", 2, 2)
	fx := b.AddMacro("m", 3, 3, true)
	b.AddTerminal("p", geom.Point{X: 0, Y: 7})
	d := b.MustDesign()
	d.Cells[ci].Pos = geom.Point{X: 1.5, Y: 2}
	d.Cells[fx].Pos = geom.Point{X: 5, Y: 5}
	path := filepath.Join(t.TempDir(), "out.pl")
	if err := writePlFile(path, d); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := string(data)
	if !strings.Contains(out, "a 1.5 2 : N") {
		t.Errorf("movable cell line missing: %q", out)
	}
	if !strings.Contains(out, "m 5 5 : N /FIXED\n") {
		t.Errorf("fixed macro line missing: %q", out)
	}
	// A zero-area terminal is written the way bookshelf.WritePl, placerd's
	// result.pl and every pinned .pl digest write it.
	if !strings.Contains(out, "p 0 7 : N /FIXED_NI\n") {
		t.Errorf("terminal line missing: %q", out)
	}
}

// TestTimeoutWritesCanceledReport drives the placer's -timeout path: the
// run must fail with the deadline and still write a report and a trace,
// the report naming the tool and carrying the canceled marker.
func TestTimeoutWritesCanceledReport(t *testing.T) {
	dir := t.TempDir()
	report, trace := filepath.Join(dir, "r.json"), filepath.Join(dir, "t.json")
	err := runWithArgs("-synth", "sb-a", "-timeout", "200ms", "-out", dir, "-report", report, "-trace", trace)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("run = %v, want the deadline", err)
	}
	checkCanceledReport(t, report, "placer")
	if _, err := os.Stat(trace); err != nil {
		t.Errorf("no trace after the timeout: %v", err)
	}
}

// TestSVGDrawsTheEvaluatedGrid requires -svg to draw the grid the
// evaluation routed rather than route again: the congestion plot equals
// viz.CongestionSVG over a freshly routed grid of the placed design, and
// the report holds routing rounds under the evaluation's label alone.
// Without -evaluate the plot still gets its one route.
func TestSVGDrawsTheEvaluatedGrid(t *testing.T) {
	src := t.TempDir()
	aux, err := bookshelf.WriteDesign(gen.MustGenerate(gen.SmallSuite()[0]), src)
	if err != nil {
		t.Fatal(err)
	}
	for _, evaluate := range []bool{true, false} {
		out := t.TempDir()
		report := filepath.Join(out, "r.json")
		err := runWithArgs("-aux", aux, "-no-routability", "-no-dp", "-workers", "1",
			"-evaluate="+strconv.FormatBool(evaluate), "-svg", "-write-bookshelf", "-out", out, "-report", report)
		if err != nil {
			t.Fatal(err)
		}
		placed, err := bookshelf.ReadDesign(filepath.Join(out, filepath.Base(aux)))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(out, placed.Name+".congestion.svg"))
		if err != nil {
			t.Fatal(err)
		}
		g, err := route.NewGrid(placed)
		if err != nil {
			t.Fatal(err)
		}
		route.NewRouter(g, route.RouterOptions{Workers: 1}).RouteDesign(placed)
		var want bytes.Buffer
		if err := viz.CongestionSVG(&want, g, 800); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("evaluate=%v: congestion SVG differs from a freshly routed grid's", evaluate)
		}
		raw, err := os.ReadFile(report)
		if err != nil {
			t.Fatal(err)
		}
		var rep struct {
			RouteTrace []struct {
				Context string `json:"context"`
				Round   int    `json:"round"`
			} `json:"route_trace"`
		}
		if err := json.Unmarshal(raw, &rep); err != nil {
			t.Fatal(err)
		}
		starts := 0
		for _, r := range rep.RouteTrace {
			if r.Context != "evaluate" {
				t.Errorf("evaluate=%v: report holds a routing round labelled %q", evaluate, r.Context)
			}
			if r.Round == 0 {
				starts++
			}
		}
		runs := 0
		if evaluate {
			runs = 1
		}
		if starts != runs {
			t.Errorf("evaluate=%v: report holds %d traced routing runs, want %d", evaluate, starts, runs)
		}
	}
}

// TestProfileFlags requires -cpuprofile and -memprofile to write
// non-empty profiles.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	aux, err := bookshelf.WriteDesign(gen.MustGenerate(gen.SmallSuite()[0]), dir)
	if err != nil {
		t.Fatal(err)
	}
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	err = runWithArgs("-aux", aux, "-no-routability", "-no-dp", "-evaluate=false", "-workers", "1",
		"-out", dir, "-cpuprofile", cpu, "-memprofile", mem)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s: %v, want a non-empty file", p, err)
		}
	}
}

// runWithArgs runs the placer's command line args on a fresh flag set.
func runWithArgs(args ...string) error {
	oldArgs, oldFlags := os.Args, flag.CommandLine
	defer func() { os.Args, flag.CommandLine = oldArgs, oldFlags }()
	os.Args = append([]string{"placer"}, args...)
	flag.CommandLine = flag.NewFlagSet("placer", flag.ContinueOnError)
	return run()
}

// checkCanceledReport requires the run report at path to name tool and
// to be marked canceled.
func checkCanceledReport(t *testing.T, path, tool string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no report after the timeout: %v", err)
	}
	var rep struct {
		Tool     string `json:"tool"`
		Canceled bool   `json:"canceled"`
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Tool != tool || !rep.Canceled {
		t.Errorf("report has tool %q, canceled %v; want %q, true", rep.Tool, rep.Canceled, tool)
	}
}
