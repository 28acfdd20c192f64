package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bookshelf"
	"repro/internal/db"
	"repro/internal/eco"
	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/route"
	"repro/internal/viz"
)

func TestApplyPl(t *testing.T) {
	b := db.NewBuilder("t", geom.NewRect(0, 0, 100, 100))
	a := b.AddStdCell("a", 2, 2)
	c := b.AddStdCell("c", 2, 2)
	d := b.MustDesign()

	pl := `UCLA pl 1.0
# a comment
a 10 20 : FS
c 30.5 40 : N /FIXED
ghost 1 2 : N
`
	path := filepath.Join(t.TempDir(), "p.pl")
	if err := os.WriteFile(path, []byte(pl), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := applyPl(d, path); err != nil {
		t.Fatal(err)
	}
	if d.Cells[a].Pos != (geom.Point{X: 10, Y: 20}) || d.Cells[a].Orient != db.FS {
		t.Errorf("cell a = %v/%v", d.Cells[a].Pos, d.Cells[a].Orient)
	}
	if d.Cells[c].Pos != (geom.Point{X: 30.5, Y: 40}) {
		t.Errorf("cell c = %v", d.Cells[c].Pos)
	}

	// A malformed number is an error naming the line, not a skipped line.
	bad := filepath.Join(t.TempDir(), "bad.pl")
	if err := os.WriteFile(bad, []byte("UCLA pl 1.0\na 1O 20 : N\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var pe *bookshelf.ParseError
	if err := applyPl(d, bad); !errors.As(err, &pe) || pe.Line != 2 {
		t.Errorf("applyPl(malformed number) = %v, want a *ParseError at line 2", err)
	}
}

// TestPlReadersAgree feeds lines the .pl readers once disagreed on
// through each of them: the design reader, the ECO base reader and the
// -pl override must read the same position, orientation and (where they
// keep it) fixed marker.
func TestPlReadersAgree(t *testing.T) {
	cases := []struct {
		line   string
		orient db.Orient
		fixed  bool
	}{
		{"cellA 0 0 /FIXED", db.N, true},
		{"cellA 0 0 : /FIXED", db.N, true},
		{"cellA 0 0 : N # /FIXED", db.N, false},
		{"cellA 0 0 FS /FIXED", db.FS, true},
	}
	for _, tc := range cases {
		t.Run(tc.line, func(t *testing.T) {
			dir := t.TempDir()
			write := func(name, content string) string {
				path := filepath.Join(dir, name)
				if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
					t.Fatal(err)
				}
				return path
			}
			pl := "UCLA pl 1.0\n" + tc.line + "\n"
			aux := write("t.aux", "RowBasedPlacement : t.nodes t.nets t.pl\n")
			write("t.nodes", "UCLA nodes 1.0\ncellA 4 2\n")
			write("t.nets", "UCLA nets 1.0\n")
			plPath := write("t.pl", pl)

			d, err := bookshelf.ReadDesign(aux)
			if err != nil {
				t.Fatal(err)
			}
			if c := d.Cells[0]; c.Pos != (geom.Point{}) || c.Orient != tc.orient || c.Fixed != tc.fixed {
				t.Errorf("ReadDesign: pos %v orient %v fixed %v, want (0,0) %v %v", c.Pos, c.Orient, c.Fixed, tc.orient, tc.fixed)
			}

			base, err := eco.ReadPl(strings.NewReader(pl))
			if err != nil {
				t.Fatal(err)
			}
			if cp := base.Cells["cellA"]; cp != (eco.CellPlace{Orient: tc.orient, Fixed: tc.fixed}) {
				t.Errorf("eco.ReadPl: %+v, want orient %v fixed %v at (0,0)", cp, tc.orient, tc.fixed)
			}

			b := db.NewBuilder("t", geom.NewRect(0, 0, 100, 100))
			ci := b.AddStdCell("cellA", 4, 2)
			ed := b.MustDesign()
			ed.Cells[ci].Pos = geom.Point{X: 5, Y: 5}
			ed.Cells[ci].Orient = db.FW
			if err := applyPl(ed, plPath); err != nil {
				t.Fatal(err)
			}
			if c := ed.Cells[ci]; c.Pos != (geom.Point{}) || c.Orient != tc.orient {
				t.Errorf("applyPl: pos %v orient %v, want (0,0) %v", c.Pos, c.Orient, tc.orient)
			}
		})
	}
}

func TestApplyPlMissingFile(t *testing.T) {
	b := db.NewBuilder("t", geom.NewRect(0, 0, 10, 10))
	b.AddStdCell("a", 1, 1)
	d := b.MustDesign()
	if err := applyPl(d, "/nonexistent/file.pl"); err == nil {
		t.Error("missing file accepted")
	}
}

// TestTimeoutWritesCanceledReport drives evaluate's -timeout path on a
// design with a routing grid: the run must fail with the deadline and
// still write a report naming the tool, marked canceled, with the
// routing knobs as its config.
func TestTimeoutWritesCanceledReport(t *testing.T) {
	dir := t.TempDir()
	aux, err := bookshelf.WriteDesign(gen.MustGenerate(gen.SmallSuite()[0]), dir)
	if err != nil {
		t.Fatal(err)
	}
	report := filepath.Join(dir, "r.json")
	if err := runWithArgs("-aux", aux, "-timeout", "1ns", "-workers", "1", "-report", report); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("run = %v, want the deadline", err)
	}
	raw, err := os.ReadFile(report)
	if err != nil {
		t.Fatalf("no report after the timeout: %v", err)
	}
	var rep struct {
		Tool     string         `json:"tool"`
		Canceled bool           `json:"canceled"`
		Config   map[string]int `json:"config"`
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Tool != "evaluate" || !rep.Canceled || rep.Config["workers"] != 1 {
		t.Errorf("report has tool %q, canceled %v, config %v; want evaluate, true, workers 1", rep.Tool, rep.Canceled, rep.Config)
	}
}

// TestSVGDrawsTheScoredGrid requires -svg to draw the grid the score was
// routed on rather than route again: the file equals viz.CongestionSVG
// over a freshly routed grid, and the report holds routing rounds under
// the evaluation's label alone.
func TestSVGDrawsTheScoredGrid(t *testing.T) {
	dir := t.TempDir()
	aux, err := bookshelf.WriteDesign(gen.MustGenerate(gen.SmallSuite()[0]), dir)
	if err != nil {
		t.Fatal(err)
	}
	svg, report := filepath.Join(dir, "c.svg"), filepath.Join(dir, "r.json")
	if err := runWithArgs("-aux", aux, "-workers", "1", "-svg", svg, "-report", report); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(svg)
	if err != nil {
		t.Fatal(err)
	}
	d, err := bookshelf.ReadDesign(aux)
	if err != nil {
		t.Fatal(err)
	}
	g, err := route.NewGrid(d)
	if err != nil {
		t.Fatal(err)
	}
	route.NewRouter(g, route.RouterOptions{Workers: 1}).RouteDesign(d)
	var want bytes.Buffer
	if err := viz.CongestionSVG(&want, g, 800); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Error("-svg differs from the congestion plot of a freshly routed grid")
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
			t.Errorf("report holds a routing round labelled %q", r.Context)
		}
		if r.Round == 0 {
			starts++
		}
	}
	if starts != 1 {
		t.Errorf("report holds %d routing runs, want the evaluation's alone", starts)
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
	if err := runWithArgs("-aux", aux, "-workers", "1", "-cpuprofile", cpu, "-memprofile", mem); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s: %v, want a non-empty file", p, err)
		}
	}
}

// runWithArgs runs evaluate's command line args on a fresh flag set.
func runWithArgs(args ...string) error {
	oldArgs, oldFlags := os.Args, flag.CommandLine
	defer func() { os.Args, flag.CommandLine = oldArgs, oldFlags }()
	os.Args = append([]string{"evaluate"}, args...)
	flag.CommandLine = flag.NewFlagSet("evaluate", flag.ContinueOnError)
	return run()
}
