// Package bookshelf reads and writes the UCLA/ISPD Bookshelf placement
// format used by the DAC-2012-era routability contests: .aux, .nodes,
// .nets, .wts, .pl, .scl and the DAC-2012 .route file.
//
// Bookshelf has no standard encoding for fence regions or logical
// hierarchy, which this placer needs for hierarchical mixed-size designs.
// Two documented extension files fill the gap:
//
//	.fence — fence regions:
//	    UCLA fence 1.0
//	    NumFences : F
//	    FenceName NumRects : K
//	        x1 y1 x2 y2
//	        ...
//
//	.hier — hierarchy tree and membership:
//	    UCLA hier 1.0
//	    NumModules : M
//	    Module <name> : parent <index|-1> fence <fenceName|->
//	        NumCells : C
//	        cellName
//	        ...
//
// Both files are optional; designs without them load as flat, fence-free
// netlists. Reading and then writing a design reproduces it exactly up to
// float formatting, which the round-trip tests pin down.
//
// Pin offsets in .nets are measured from the node center (Bookshelf
// convention); the database stores offsets from the lower-left corner, and
// the reader/writer convert.
package bookshelf

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"strconv"
	"strings"
)

// ErrInvalidDesign marks input that parsed but failed design validation
// (dangling references, inconsistent geometry, ...). It is wrapped into
// the reader's validation failures so errors.Is can classify them.
var ErrInvalidDesign = errors.New("invalid design")

// IsBadInput reports whether err stems from malformed or inconsistent
// design input — a parse error, a missing design file, or a validation
// failure — as opposed to an environmental failure. The placerd job
// server maps bad input to HTTP 400 and everything else to 500.
func IsBadInput(err error) bool {
	var pe *ParseError
	return errors.As(err, &pe) || errors.Is(err, fs.ErrNotExist) || errors.Is(err, ErrInvalidDesign)
}

// scanner wraps line-based parsing with position tracking, comment
// stripping and the "Key : values" splitting that all Bookshelf files use.
type scanner struct {
	s    *bufio.Scanner
	file string
	line int
	cur  string
}

func newScanner(r io.Reader, file string) *scanner {
	s := bufio.NewScanner(r)
	s.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	return &scanner{s: s, file: file}
}

// next advances to the next non-empty, non-comment line, returning false at
// EOF or when reading fails (err says which). Leading/trailing whitespace
// is trimmed; '#' comments are stripped.
func (sc *scanner) next() bool {
	for sc.s.Scan() {
		sc.line++
		ln := sc.s.Text()
		if i := strings.IndexByte(ln, '#'); i >= 0 {
			ln = ln[:i]
		}
		ln = strings.TrimSpace(ln)
		if ln == "" {
			continue
		}
		sc.cur = ln
		return true
	}
	return false
}

// err returns why next returned false: nil at the end of the input, a
// *ParseError for a line past the scanner's limit (the input's fault),
// or the failed read, wrapped with the file name. Every reader checks
// it once its lines run out, so no input is silently cut short.
func (sc *scanner) err() error {
	err := sc.s.Err()
	if errors.Is(err, bufio.ErrTooLong) {
		return &ParseError{File: sc.file, Line: sc.line + 1, Msg: err.Error()}
	}
	if err != nil {
		return fmt.Errorf("%s: %w", sc.file, err)
	}
	return nil
}

// endf is errf for input that ran out where a line was expected: the
// scanner's own error when reading stopped before the end, else the
// *ParseError.
func (sc *scanner) endf(format string, args ...any) error {
	if err := sc.err(); err != nil {
		return err
	}
	return sc.errf(format, args...)
}

// ParseError locates a syntax or consistency error in a Bookshelf file.
// Every malformed-input error the reader produces is (or wraps) one of
// these, so callers — the placerd job server in particular — can
// distinguish bad input (HTTP 400) from environmental failures (500) with
// errors.As, and surface the offending file and line to the user.
type ParseError struct {
	File string
	Line int
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("%s:%d: %s", e.File, e.Line, e.Msg)
}

// errf builds a *ParseError tagged with the scanner's file and line.
func (sc *scanner) errf(format string, args ...any) error {
	return &ParseError{File: sc.file, Line: sc.line, Msg: fmt.Sprintf(format, args...)}
}

// keyValue splits "Key : v1 v2" into key and value fields. ok is false when
// the line has no colon.
func keyValue(line string) (key string, vals []string, ok bool) {
	i := strings.IndexByte(line, ':')
	if i < 0 {
		return "", nil, false
	}
	return strings.TrimSpace(line[:i]), strings.Fields(line[i+1:]), true
}

func parseFloat(sc *scanner, tok string) (float64, error) {
	v, err := strconv.ParseFloat(tok, 64)
	if err != nil {
		return 0, sc.errf("bad number %q", tok)
	}
	return v, nil
}

func parseInt(sc *scanner, tok string) (int, error) {
	v, err := strconv.Atoi(tok)
	if err != nil {
		return 0, sc.errf("bad integer %q", tok)
	}
	return v, nil
}

// parseFloat1 parses the first value of a "Key : value" line, failing with
// a ParseError — instead of an index panic — when the value list is empty.
func parseFloat1(sc *scanner, key string, vals []string) (float64, error) {
	if len(vals) == 0 {
		return 0, sc.errf("%s needs a value", key)
	}
	return parseFloat(sc, vals[0])
}

// parseInt1 is parseFloat1 for integers.
func parseInt1(sc *scanner, key string, vals []string) (int, error) {
	if len(vals) == 0 {
		return 0, sc.errf("%s needs a value", key)
	}
	return parseInt(sc, vals[0])
}

// expectHeader consumes the "UCLA <kind> 1.0" (or "<kind> 1.0") header line.
func (sc *scanner) expectHeader(kind string) error {
	if !sc.next() {
		return sc.endf("missing %s header", kind)
	}
	f := strings.Fields(sc.cur)
	// Accept "UCLA kind x.y" and "kind x.y".
	if len(f) >= 2 && strings.EqualFold(f[0], "UCLA") {
		f = f[1:]
	}
	if len(f) < 1 || !strings.EqualFold(f[0], kind) {
		return sc.errf("expected %s header, got %q", kind, sc.cur)
	}
	return nil
}

// Files names the per-extension members of one Bookshelf design.
type Files struct {
	Nodes, Nets, Wts, Pl, Scl, Route, Fence, Hier string
}

// classify assigns a file name to its slot by extension.
func (f *Files) classify(name string) {
	switch {
	case strings.HasSuffix(name, ".nodes"):
		f.Nodes = name
	case strings.HasSuffix(name, ".nets"):
		f.Nets = name
	case strings.HasSuffix(name, ".wts"):
		f.Wts = name
	case strings.HasSuffix(name, ".pl"):
		f.Pl = name
	case strings.HasSuffix(name, ".scl"):
		f.Scl = name
	case strings.HasSuffix(name, ".route"):
		f.Route = name
	case strings.HasSuffix(name, ".fence"):
		f.Fence = name
	case strings.HasSuffix(name, ".hier"):
		f.Hier = name
	}
}

// ParseAux parses the .aux directory file and returns the member file names.
func ParseAux(r io.Reader, name string) (Files, error) {
	sc := newScanner(r, name)
	var files Files
	if !sc.next() {
		return files, sc.endf("empty aux file")
	}
	_, vals, ok := keyValue(sc.cur)
	if !ok {
		// Some aux files omit the "RowBasedPlacement :" prefix.
		vals = strings.Fields(sc.cur)
	}
	for _, v := range vals {
		files.classify(v)
	}
	if files.Nodes == "" || files.Nets == "" {
		return files, sc.errf("aux file must reference .nodes and .nets")
	}
	return files, nil
}
