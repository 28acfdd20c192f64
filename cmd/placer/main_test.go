package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/gen"
	"repro/internal/geom"
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
	rec, err := buildRecorder("r.json", "t.json", "", false, "")
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
