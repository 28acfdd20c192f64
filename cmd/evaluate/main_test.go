package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bookshelf"
	"repro/internal/db"
	"repro/internal/eco"
	"repro/internal/geom"
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
