package bookshelf

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/db"
)

// The fuzz targets pin down the reader's error contract: malformed input of
// any shape must come back as a *ParseError — never a panic. Each target
// seeds from the golden Bookshelf bundle plus hand-written near-miss inputs
// (empty value lists, truncated sections, giant counts) that previously
// reached unguarded vals[0] indexing.

// requireParseError fails the fuzz run when a reader returned an error that
// is not (wrapping) a *ParseError.
func requireParseError(t *testing.T, err error) {
	t.Helper()
	if err == nil {
		return
	}
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("malformed input produced non-ParseError: %v", err)
	}
}

// seedGolden adds the golden file for ext (e.g. ".nets") to the corpus.
func seedGolden(f *testing.F, ext string) {
	data, err := os.ReadFile(filepath.Join("testdata", "golden", "golden"+ext))
	if err != nil {
		f.Fatalf("reading golden seed: %v", err)
	}
	f.Add(string(data))
}

// fuzzReader builds a reader preloaded with a few nodes so nets, route and
// hier content can resolve cell names, mirroring the state ReadDesign has
// after .nodes parsing.
func fuzzReader() *reader {
	r := &reader{
		design:   &db.Design{Name: "fuzz"},
		cellIdx:  make(map[string]int),
		fenceIdx: make(map[string]int),
	}
	for i, n := range []string{"a", "b", "c"} {
		r.cellIdx[n] = i
		r.design.Cells = append(r.design.Cells, db.Cell{
			Name: n, BaseW: 2, BaseH: 2,
			Kind: db.StdCell, Region: db.NoRegion, Module: db.NoModule, Inflate: 1,
		})
	}
	return r
}

func FuzzReadAux(f *testing.F) {
	seedGolden(f, ".aux")
	f.Add("RowBasedPlacement : d.nodes d.nets d.pl d.scl d.wts d.route\n")
	f.Add("d.nodes d.nets\n")
	f.Add("RowBasedPlacement :\n")
	f.Add("")
	f.Add("#comment only\n")
	f.Fuzz(func(t *testing.T, data string) {
		_, err := ParseAux(strings.NewReader(data), "fuzz.aux")
		requireParseError(t, err)
	})
}

func FuzzReadNets(f *testing.F) {
	seedGolden(f, ".nets")
	f.Add("UCLA nets 1.0\nNetDegree : 2 n0\na I : 0 0\nb O : 0.5 -0.5\n")
	f.Add("UCLA nets 1.0\nNetDegree :\n")
	f.Add("UCLA nets 1.0\nNetDegree : 1 x\nq\n")
	f.Add("UCLA nets 1.0\nNetDegree : 999999999 big\na\n")
	f.Add("UCLA nets 1.0\nNetDegree : 2 t\na I :\nb O : z z\n")
	f.Fuzz(func(t *testing.T, data string) {
		r := fuzzReader()
		requireParseError(t, r.readNets(strings.NewReader(data), "fuzz.nets"))
	})
}

func FuzzReadScl(f *testing.F) {
	seedGolden(f, ".scl")
	f.Add("UCLA scl 1.0\nNumRows : 1\nCoreRow Horizontal\nCoordinate :\nEnd\n")
	f.Add("UCLA scl 1.0\nCoreRow Horizontal\nSubrowOrigin : 0 NumSites :\nEnd\n")
	f.Add("UCLA scl 1.0\nCoreRow Horizontal\nHeight :\nSitewidth :\nEnd\n")
	f.Fuzz(func(t *testing.T, data string) {
		r := fuzzReader()
		requireParseError(t, r.readScl(strings.NewReader(data), "fuzz.scl"))
	})
}

func FuzzReadRoute(f *testing.F) {
	seedGolden(f, ".route")
	f.Add("route 1.0\nGrid : 2 2 2\nBlockagePorosity :\n")
	f.Add("route 1.0\nNumNiTerminals :\n")
	f.Add("route 1.0\nNumBlockageNodes : 1\na\n")
	f.Add("route 1.0\nGrid :\n")
	f.Fuzz(func(t *testing.T, data string) {
		r := fuzzReader()
		requireParseError(t, r.readRoute(strings.NewReader(data), "fuzz.route"))
	})
}

func FuzzReadPl(f *testing.F) {
	seedGolden(f, ".pl")
	f.Add("UCLA pl 1.0\na 0 0 /FIXED\nb 0 0 : /FIXED\nc 0 0 : N # /FIXED\n")
	f.Add("UCLA pl 1.0\na 1O 20 : N\n")
	f.Add("UCLA pl 1.0\nghost 1 2 : N\n")
	f.Add("UCLA pl 1.0\na 1\n")
	f.Add("a 1 2 : N\n")
	f.Fuzz(func(t *testing.T, data string) {
		r := fuzzReader()
		requireParseError(t, r.readPl(strings.NewReader(data), "fuzz.pl"))
	})
}

func FuzzReadHier(f *testing.F) {
	seedGolden(f, ".hier")
	f.Add("UCLA hier 1.0\nModule top : parent -1 fence -\nNumCells :\n")
	f.Add("UCLA hier 1.0\nModule top : parent -1 fence -\nNumCells : 1\na\n")
	f.Add("UCLA hier 1.0\nModule top : parent 5 fence -\nNumCells : 0\n")
	f.Fuzz(func(t *testing.T, data string) {
		r := fuzzReader()
		requireParseError(t, r.readHier(strings.NewReader(data), "fuzz.hier"))
	})
}

// TestEmptyValueLines locks in the ParseError (not panic) behavior for
// "Key :" lines with no value, the regression the fuzz targets first found.
func TestEmptyValueLines(t *testing.T) {
	cases := []struct {
		name string
		run  func(r *reader, in string) error
		in   string
	}{
		{"scl-coordinate", func(r *reader, in string) error { return r.readScl(strings.NewReader(in), "t.scl") },
			"UCLA scl 1.0\nCoreRow Horizontal\nCoordinate :\nEnd\n"},
		{"scl-height", func(r *reader, in string) error { return r.readScl(strings.NewReader(in), "t.scl") },
			"UCLA scl 1.0\nCoreRow Horizontal\nHeight :\nEnd\n"},
		{"scl-sitewidth", func(r *reader, in string) error { return r.readScl(strings.NewReader(in), "t.scl") },
			"UCLA scl 1.0\nCoreRow Horizontal\nSitewidth :\nEnd\n"},
		{"scl-subroworigin", func(r *reader, in string) error { return r.readScl(strings.NewReader(in), "t.scl") },
			"UCLA scl 1.0\nCoreRow Horizontal\nSubrowOrigin :\nEnd\n"},
		{"route-blockageporosity", func(r *reader, in string) error { return r.readRoute(strings.NewReader(in), "t.route") },
			"route 1.0\nBlockagePorosity :\n"},
		{"route-niterminals", func(r *reader, in string) error { return r.readRoute(strings.NewReader(in), "t.route") },
			"route 1.0\nNumNiTerminals :\n"},
		{"route-blockagenodes", func(r *reader, in string) error { return r.readRoute(strings.NewReader(in), "t.route") },
			"route 1.0\nNumBlockageNodes :\n"},
		{"hier-numcells", func(r *reader, in string) error { return r.readHier(strings.NewReader(in), "t.hier") },
			"UCLA hier 1.0\nModule top : parent -1 fence -\nNumCells :\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.run(fuzzReader(), tc.in)
			if err == nil {
				t.Fatal("want error for empty value list, got nil")
			}
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("want *ParseError, got %T: %v", err, err)
			}
		})
	}
}
