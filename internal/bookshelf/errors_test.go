package bookshelf

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/db"
)

// TestMalformedNodesLineCarriesContext pins the typed-error contract the
// serving layer's 400-vs-500 classification builds on: a broken .nodes
// line must surface as a *ParseError naming the file and line.
func TestMalformedNodesLineCarriesContext(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("t.aux", "RowBasedPlacement : t.nodes t.nets\n")
	write("t.nodes", "UCLA nodes 1.0\nc0 4 2\nc1 4\n") // line 3: missing height
	write("t.nets", "UCLA nets 1.0\n")

	_, err := ReadDesign(filepath.Join(dir, "t.aux"))
	if err == nil {
		t.Fatal("ReadDesign accepted a malformed .nodes line")
	}
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v (%T), want a wrapped *ParseError", err, err)
	}
	if !strings.HasSuffix(pe.File, "t.nodes") || pe.Line != 3 {
		t.Errorf("ParseError locates %s:%d, want t.nodes:3", pe.File, pe.Line)
	}
	if !strings.Contains(err.Error(), "t.nodes:3") {
		t.Errorf("error text %q does not carry file:line", err)
	}
	if !IsBadInput(err) {
		t.Error("IsBadInput(parse error) = false, want true")
	}
}

func TestIsBadInputClassification(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"parse error", &ParseError{File: "x", Line: 1, Msg: "bad"}, true},
		{"wrapped parse error", errors.Join(errors.New("ctx"), &ParseError{}), true},
		{"missing file", fs.ErrNotExist, true},
		{"invalid design", ErrInvalidDesign, true},
		{"environmental", errors.New("disk on fire"), false},
	}
	for _, c := range cases {
		if got := IsBadInput(c.err); got != c.want {
			t.Errorf("IsBadInput(%s) = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestMissingAuxIsBadInput: a nonexistent path is the client's mistake,
// not the server's.
func TestMissingAuxIsBadInput(t *testing.T) {
	_, err := ReadDesign(filepath.Join(t.TempDir(), "nope.aux"))
	if err == nil {
		t.Fatal("ReadDesign accepted a missing .aux")
	}
	if !IsBadInput(err) {
		t.Errorf("IsBadInput(%v) = false, want true", err)
	}
}

// TestOverlongLineIsParseError: a line past the scanner's limit must
// fail the read as bad input at that line, not end the file early. A
// 17 MiB comment between node a and nodes b and c once loaded one cell
// with no error.
func TestOverlongLineIsParseError(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("t.aux", "RowBasedPlacement : t.nodes t.nets\n")
	write("t.nodes", "UCLA nodes 1.0\na 4 2\n# "+strings.Repeat("x", 17<<20)+"\nb 4 2\nc 4 2\n")
	write("t.nets", "UCLA nets 1.0\n")

	d, err := ReadDesign(filepath.Join(dir, "t.aux"))
	var pe *ParseError
	if !errors.As(err, &pe) {
		cells := -1
		if d != nil {
			cells = len(d.Cells)
		}
		t.Fatalf("err = %v (%T) with %d cells, want a *ParseError", err, err, cells)
	}
	if pe.File != "t.nodes" || pe.Line != 3 {
		t.Errorf("ParseError locates %s:%d, want t.nodes:3", pe.File, pe.Line)
	}
	if !IsBadInput(err) {
		t.Error("IsBadInput(over-long line) = false, want true")
	}
}

// TestFailedReadIsWrapped: a read that fails mid-.nets must come back as
// that failure, wrapped with the file name, and not as bad input or a
// shorter netlist.
func TestFailedReadIsWrapped(t *testing.T) {
	errDisk := errors.New("disk on fire")
	r := &reader{design: &db.Design{}, cellIdx: map[string]int{}}
	if err := r.readNodes(strings.NewReader("UCLA nodes 1.0\na 4 2\nb 4 2\n"), "t.nodes"); err != nil {
		t.Fatal(err)
	}
	for _, prefix := range []string{
		"UCLA nets 1.0\nNetDegree : 2 n0\na I\nb O\n", // between nets
		"UCLA nets 1.0\nNetDegree : 2 n0\na I\n",      // inside a net
	} {
		r.design.Nets, r.design.Pins = nil, nil
		err := r.readNets(io.MultiReader(strings.NewReader(prefix), iotest.ErrReader(errDisk)), "t.nets")
		if !errors.Is(err, errDisk) || !strings.HasPrefix(err.Error(), "t.nets: ") {
			t.Errorf("%q then a failed read: err = %v, want the read error wrapped with the file name", prefix, err)
		}
		if IsBadInput(err) {
			t.Errorf("%q then a failed read: IsBadInput = true, want false", prefix)
		}
	}
}
