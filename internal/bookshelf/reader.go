package bookshelf

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/db"
	"repro/internal/geom"
)

// ReadDesign loads a complete design given the path of its .aux file.
func ReadDesign(auxPath string) (*db.Design, error) {
	f, err := os.Open(auxPath)
	if err != nil {
		return nil, err
	}
	files, err := ParseAux(f, filepath.Base(auxPath))
	f.Close()
	if err != nil {
		return nil, err
	}
	dir := filepath.Dir(auxPath)
	r := &reader{dir: dir}
	name := strings.TrimSuffix(filepath.Base(auxPath), ".aux")
	return r.read(name, files)
}

type reader struct {
	dir string

	design   *db.Design
	cellIdx  map[string]int
	fenceIdx map[string]int
}

func (r *reader) open(name string) (*os.File, error) {
	return os.Open(filepath.Join(r.dir, name))
}

func (r *reader) read(name string, files Files) (*db.Design, error) {
	r.design = &db.Design{Name: name}
	r.cellIdx = make(map[string]int)
	r.fenceIdx = make(map[string]int)

	steps := []struct {
		file string
		fn   func(io.Reader, string) error
	}{
		{files.Nodes, r.readNodes},
		{files.Nets, r.readNets},
		{files.Wts, r.readWts},
		{files.Pl, r.readPl},
		{files.Scl, r.readScl},
		{files.Route, r.readRoute},
		{files.Fence, r.readFence},
		{files.Hier, r.readHier},
	}
	for _, st := range steps {
		if st.file == "" {
			continue
		}
		f, err := r.open(st.file)
		if err != nil {
			// Optional files may be absent even when listed.
			if os.IsNotExist(err) && st.file != files.Nodes && st.file != files.Nets {
				continue
			}
			return nil, err
		}
		err = st.fn(f, st.file)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("bookshelf: %w", err)
		}
	}
	r.deriveDie()
	if err := r.design.Validate(); err != nil {
		return nil, fmt.Errorf("bookshelf: loaded design %w: %w", ErrInvalidDesign, err)
	}
	return r.design, nil
}

// deriveDie sets the die rectangle from rows when present, falling back to
// the bounding box of fixed objects and placed cells.
func (r *reader) deriveDie() {
	d := r.design
	if !d.Die.Empty() {
		return
	}
	var bb geom.Rect
	for i := range d.Rows {
		bb = bb.Union(d.Rows[i].Rect())
	}
	if bb.Empty() {
		for i := range d.Cells {
			bb = bb.Union(d.Cells[i].Rect())
		}
	}
	d.Die = bb
}

func (r *reader) readNodes(f io.Reader, name string) error {
	sc := newScanner(f, name)
	if err := sc.expectHeader("nodes"); err != nil {
		return err
	}
	for sc.next() {
		if key, _, ok := keyValue(sc.cur); ok && (strings.EqualFold(key, "NumNodes") || strings.EqualFold(key, "NumTerminals")) {
			continue
		}
		fields := strings.Fields(sc.cur)
		if len(fields) < 3 {
			return sc.errf("node line needs name width height: %q", sc.cur)
		}
		w, err := parseFloat(sc, fields[1])
		if err != nil {
			return err
		}
		h, err := parseFloat(sc, fields[2])
		if err != nil {
			return err
		}
		c := db.Cell{
			Name: fields[0], BaseW: w, BaseH: h,
			Kind: db.StdCell, Region: db.NoRegion, Module: db.NoModule, Inflate: 1,
		}
		if len(fields) >= 4 {
			switch strings.ToLower(fields[3]) {
			case "terminal":
				// Bookshelf "terminal" covers both I/O pads and fixed
				// macros; zero-area terminals become db.Terminal, the rest
				// become fixed macros. Movability is finalized by .pl.
				c.Fixed = true
				if w == 0 || h == 0 {
					c.Kind = db.Terminal
				} else {
					c.Kind = db.Macro
				}
			case "terminal_ni":
				c.Fixed = true
				c.Kind = db.Terminal
			default:
				return sc.errf("unknown node attribute %q", fields[3])
			}
		}
		if _, dup := r.cellIdx[c.Name]; dup {
			return sc.errf("duplicate node %q", c.Name)
		}
		r.cellIdx[c.Name] = len(r.design.Cells)
		r.design.Cells = append(r.design.Cells, c)
	}
	return nil
}

func (r *reader) readNets(f io.Reader, name string) error {
	sc := newScanner(f, name)
	if err := sc.expectHeader("nets"); err != nil {
		return err
	}
	d := r.design
	for sc.next() {
		key, vals, ok := keyValue(sc.cur)
		if ok && (strings.EqualFold(key, "NumNets") || strings.EqualFold(key, "NumPins")) {
			continue
		}
		if !ok || !strings.HasPrefix(strings.ToLower(key), "netdegree") {
			return sc.errf("expected NetDegree line, got %q", sc.cur)
		}
		if len(vals) < 1 {
			return sc.errf("NetDegree needs a count")
		}
		deg, err := parseInt(sc, vals[0])
		if err != nil {
			return err
		}
		netName := fmt.Sprintf("net%d", len(d.Nets))
		if len(vals) >= 2 {
			netName = vals[1]
		}
		ni := len(d.Nets)
		net := db.Net{Name: netName, Weight: 1}
		for k := 0; k < deg; k++ {
			if !sc.next() {
				return sc.errf("net %q truncated: expected %d pins", netName, deg)
			}
			pf := strings.Fields(sc.cur)
			if len(pf) < 1 {
				return sc.errf("empty pin line")
			}
			ci, okc := r.cellIdx[pf[0]]
			if !okc {
				return sc.errf("net %q references unknown node %q", netName, pf[0])
			}
			// Format: name [I|O|B] [: dx dy]
			var dx, dy float64
			if len(pf) >= 4 && pf[2] == ":" {
				if dx, err = parseFloat(sc, pf[3]); err != nil {
					return err
				}
				if len(pf) >= 5 {
					if dy, err = parseFloat(sc, pf[4]); err != nil {
						return err
					}
				}
			}
			c := &d.Cells[ci]
			// Convert center-relative to lower-left-relative offsets.
			off := geom.Point{X: c.BaseW/2 + dx, Y: c.BaseH/2 + dy}
			pi := len(d.Pins)
			d.Pins = append(d.Pins, db.Pin{Cell: ci, Net: ni, Offset: off})
			c.Pins = append(c.Pins, pi)
			net.Pins = append(net.Pins, pi)
		}
		d.Nets = append(d.Nets, net)
	}
	return nil
}

func (r *reader) readWts(f io.Reader, name string) error {
	sc := newScanner(f, name)
	if err := sc.expectHeader("wts"); err != nil {
		return err
	}
	byName := make(map[string]int, len(r.design.Nets))
	for i := range r.design.Nets {
		byName[r.design.Nets[i].Name] = i
	}
	for sc.next() {
		fields := strings.Fields(sc.cur)
		if len(fields) < 2 {
			return sc.errf("wts line needs name weight")
		}
		w, err := parseFloat(sc, fields[1])
		if err != nil {
			return err
		}
		if ni, ok := byName[fields[0]]; ok {
			r.design.Nets[ni].Weight = w
		}
	}
	return nil
}

// PlRecord is one placement line of a .pl file:
//
//	name x y [:] [orient] [/FIXED | /FIXED_NI]
//
// Orient is N when the line names none; either fixed marker sets Fixed.
type PlRecord struct {
	Name   string
	X, Y   float64
	Orient db.Orient
	Fixed  bool
}

// ReadPl parses a .pl stream and hands each placement line to fn in file
// order; file names the stream in errors. It is the one .pl parser:
// ReadDesign, the ECO base reader and the evaluator's -pl override all
// read through it and differ only in what they do with a name. Malformed
// input, and any error fn returns, comes back as a *ParseError locating
// the line.
func ReadPl(r io.Reader, file string, fn func(PlRecord) error) error {
	sc := newScanner(r, file)
	if err := sc.expectHeader("pl"); err != nil {
		return err
	}
	for sc.next() {
		fields := strings.Fields(sc.cur)
		if len(fields) < 3 {
			return sc.errf("pl line needs name x y")
		}
		x, err := parseFloat(sc, fields[1])
		if err != nil {
			return err
		}
		y, err := parseFloat(sc, fields[2])
		if err != nil {
			return err
		}
		rec := PlRecord{Name: fields[0], X: x, Y: y}
		rest := fields[3:]
		if len(rest) > 0 && rest[0] == ":" {
			rest = rest[1:]
		}
		// A token that is not an orientation stays for the marker scan.
		if len(rest) > 0 {
			if o, ok := db.ParseOrient(rest[0]); ok {
				rec.Orient = o
				rest = rest[1:]
			}
		}
		for _, tok := range rest {
			switch strings.ToUpper(tok) {
			case "/FIXED", "/FIXED_NI":
				rec.Fixed = true
			}
		}
		if err := fn(rec); err != nil {
			return sc.errf("%v", err)
		}
	}
	// A line past the scanner's limit is the input's fault; a failed
	// read is not.
	if err := sc.s.Err(); errors.Is(err, bufio.ErrTooLong) {
		return sc.errf("%v", err)
	} else if err != nil {
		return fmt.Errorf("%s: %w", file, err)
	}
	return nil
}

func (r *reader) readPl(f io.Reader, name string) error {
	return ReadPl(f, name, func(p PlRecord) error {
		ci, ok := r.cellIdx[p.Name]
		if !ok {
			return fmt.Errorf("pl references unknown node %q", p.Name)
		}
		c := &r.design.Cells[ci]
		c.Pos = geom.Point{X: p.X, Y: p.Y}
		c.Orient = p.Orient
		if p.Fixed {
			c.Fixed = true
			if c.Kind == db.StdCell {
				c.Kind = db.Macro
			}
		}
		return nil
	})
}

func (r *reader) readScl(f io.Reader, name string) error {
	sc := newScanner(f, name)
	if err := sc.expectHeader("scl"); err != nil {
		return err
	}
	d := r.design
	var row *db.Row
	for sc.next() {
		key, vals, hasColon := keyValue(sc.cur)
		lower := strings.ToLower(strings.Fields(sc.cur)[0])
		switch {
		case hasColon && strings.EqualFold(key, "NumRows"):
			continue
		case lower == "corerow":
			d.Rows = append(d.Rows, db.Row{SiteWidth: 1})
			row = &d.Rows[len(d.Rows)-1]
		case lower == "end":
			row = nil
		case row == nil:
			continue
		case hasColon && strings.EqualFold(key, "Coordinate"):
			v, err := parseFloat1(sc, key, vals)
			if err != nil {
				return err
			}
			row.Y = v
		case hasColon && strings.EqualFold(key, "Height"):
			v, err := parseFloat1(sc, key, vals)
			if err != nil {
				return err
			}
			row.Height = v
		case hasColon && (strings.EqualFold(key, "Sitewidth") || strings.EqualFold(key, "Sitespacing")):
			v, err := parseFloat1(sc, key, vals)
			if err != nil {
				return err
			}
			if v > 0 {
				row.SiteWidth = v
			}
		case hasColon && strings.EqualFold(key, "SubrowOrigin"):
			// "SubrowOrigin : x NumSites : n"
			v, err := parseFloat1(sc, key, vals)
			if err != nil {
				return err
			}
			row.X = v
			for i := 0; i+1 < len(vals); i++ {
				if strings.EqualFold(strings.TrimSuffix(vals[i], ":"), "NumSites") {
					tok := vals[i+1]
					if tok == ":" && i+2 < len(vals) {
						tok = vals[i+2]
					}
					n, err := parseInt(sc, tok)
					if err != nil {
						return err
					}
					row.NumSites = n
				}
			}
		}
	}
	r.finishKinds()
	return nil
}

// finishKinds reclassifies movable nodes taller than one row as macros,
// which is the Bookshelf convention for mixed-size designs.
func (r *reader) finishKinds() {
	rh := r.design.RowHeight()
	if rh <= 0 {
		return
	}
	for i := range r.design.Cells {
		c := &r.design.Cells[i]
		if c.Kind == db.StdCell && c.BaseH > rh {
			c.Kind = db.Macro
		}
	}
}

func (r *reader) readRoute(f io.Reader, name string) error {
	sc := newScanner(f, name)
	if err := sc.expectHeader("route"); err != nil {
		return err
	}
	ri := &db.RouteInfo{BlockagePorosity: 0}
	parseFloats := func(vals []string) ([]float64, error) {
		out := make([]float64, 0, len(vals))
		for _, v := range vals {
			x, err := parseFloat(sc, v)
			if err != nil {
				return nil, err
			}
			out = append(out, x)
		}
		return out, nil
	}
	for sc.next() {
		key, vals, ok := keyValue(sc.cur)
		if !ok {
			return sc.errf("unexpected route line %q", sc.cur)
		}
		var err error
		switch {
		case strings.EqualFold(key, "Grid"):
			if len(vals) < 3 {
				return sc.errf("Grid needs x y layers")
			}
			if ri.GridX, err = parseInt(sc, vals[0]); err != nil {
				return err
			}
			if ri.GridY, err = parseInt(sc, vals[1]); err != nil {
				return err
			}
			if ri.Layers, err = parseInt(sc, vals[2]); err != nil {
				return err
			}
		case strings.EqualFold(key, "VerticalCapacity"):
			if ri.VertCap, err = parseFloats(vals); err != nil {
				return err
			}
		case strings.EqualFold(key, "HorizontalCapacity"):
			if ri.HorizCap, err = parseFloats(vals); err != nil {
				return err
			}
		case strings.EqualFold(key, "MinWireWidth"):
			if ri.MinWidth, err = parseFloats(vals); err != nil {
				return err
			}
		case strings.EqualFold(key, "MinWireSpacing"):
			if ri.MinSpacing, err = parseFloats(vals); err != nil {
				return err
			}
		case strings.EqualFold(key, "ViaSpacing"):
			if ri.ViaSpacing, err = parseFloats(vals); err != nil {
				return err
			}
		case strings.EqualFold(key, "GridOrigin"):
			if len(vals) < 2 {
				return sc.errf("GridOrigin needs x y")
			}
			if ri.Origin.X, err = parseFloat(sc, vals[0]); err != nil {
				return err
			}
			if ri.Origin.Y, err = parseFloat(sc, vals[1]); err != nil {
				return err
			}
		case strings.EqualFold(key, "TileSize"):
			if len(vals) < 2 {
				return sc.errf("TileSize needs w h")
			}
			if ri.TileW, err = parseFloat(sc, vals[0]); err != nil {
				return err
			}
			if ri.TileH, err = parseFloat(sc, vals[1]); err != nil {
				return err
			}
		case strings.EqualFold(key, "BlockagePorosity"):
			if ri.BlockagePorosity, err = parseFloat1(sc, key, vals); err != nil {
				return err
			}
		case strings.EqualFold(key, "NumNiTerminals"):
			n, err := parseInt1(sc, key, vals)
			if err != nil {
				return err
			}
			for k := 0; k < n; k++ {
				if !sc.next() {
					return sc.errf("NiTerminals truncated")
				}
				fields := strings.Fields(sc.cur)
				if ci, okc := r.cellIdx[fields[0]]; okc {
					ri.NiTerminals = append(ri.NiTerminals, ci)
				}
			}
		case strings.EqualFold(key, "NumBlockageNodes"):
			n, err := parseInt1(sc, key, vals)
			if err != nil {
				return err
			}
			for k := 0; k < n; k++ {
				if !sc.next() {
					return sc.errf("BlockageNodes truncated")
				}
				fields := strings.Fields(sc.cur)
				if len(fields) < 2 {
					return sc.errf("blockage needs name and layer count")
				}
				ci, okc := r.cellIdx[fields[0]]
				if !okc {
					return sc.errf("blockage references unknown node %q", fields[0])
				}
				nl, err := parseInt(sc, fields[1])
				if err != nil {
					return err
				}
				b := db.RouteBlockage{Cell: ci}
				for j := 0; j < nl && 2+j < len(fields); j++ {
					l, err := parseInt(sc, fields[2+j])
					if err != nil {
						return err
					}
					// .route layers are 1-based.
					b.Layers = append(b.Layers, l-1)
				}
				ri.Blockages = append(ri.Blockages, b)
			}
		}
	}
	r.design.Route = ri
	return nil
}

func (r *reader) readFence(f io.Reader, name string) error {
	sc := newScanner(f, name)
	if err := sc.expectHeader("fence"); err != nil {
		return err
	}
	d := r.design
	for sc.next() {
		if key, _, ok := keyValue(sc.cur); ok && strings.EqualFold(key, "NumFences") {
			continue
		}
		// "FenceName NumRects : K"
		fields := strings.Fields(sc.cur)
		if len(fields) < 4 || !strings.EqualFold(fields[1], "NumRects") {
			return sc.errf("expected 'name NumRects : K', got %q", sc.cur)
		}
		k, err := parseInt(sc, fields[3])
		if err != nil {
			return err
		}
		rg := db.Region{Name: fields[0]}
		for j := 0; j < k; j++ {
			if !sc.next() {
				return sc.errf("fence %q truncated", rg.Name)
			}
			cf := strings.Fields(sc.cur)
			if len(cf) < 4 {
				return sc.errf("fence rect needs x1 y1 x2 y2")
			}
			var v [4]float64
			for i := 0; i < 4; i++ {
				if v[i], err = parseFloat(sc, cf[i]); err != nil {
					return err
				}
			}
			rg.Rects = append(rg.Rects, geom.NewRect(v[0], v[1], v[2], v[3]))
		}
		r.fenceIdx[rg.Name] = len(d.Regions)
		d.Regions = append(d.Regions, rg)
	}
	return nil
}

func (r *reader) readHier(f io.Reader, name string) error {
	sc := newScanner(f, name)
	if err := sc.expectHeader("hier"); err != nil {
		return err
	}
	d := r.design
	for sc.next() {
		if key, _, ok := keyValue(sc.cur); ok && strings.EqualFold(key, "NumModules") {
			continue
		}
		// "Module <name> : parent <idx> fence <fenceName|->"
		fields := strings.Fields(sc.cur)
		if len(fields) < 7 || !strings.EqualFold(fields[0], "Module") {
			return sc.errf("expected Module line, got %q", sc.cur)
		}
		mname := fields[1]
		parent, err := parseInt(sc, fields[4])
		if err != nil {
			return err
		}
		region := db.NoRegion
		if fields[6] != "-" {
			ri, ok := r.fenceIdx[fields[6]]
			if !ok {
				return sc.errf("module %q references unknown fence %q", mname, fields[6])
			}
			region = ri
		}
		mi := len(d.Modules)
		if parent >= 0 {
			if parent >= mi {
				return sc.errf("module %q parent %d not yet defined", mname, parent)
			}
			d.Modules[parent].Children = append(d.Modules[parent].Children, mi)
		}
		d.Modules = append(d.Modules, db.Module{Name: mname, Parent: parent, Region: region})
		// "NumCells : C" then C cell names.
		if !sc.next() {
			return sc.errf("module %q missing NumCells", mname)
		}
		key, vals, ok := keyValue(sc.cur)
		if !ok || !strings.EqualFold(key, "NumCells") {
			return sc.errf("expected NumCells for module %q", mname)
		}
		nc, err := parseInt1(sc, key, vals)
		if err != nil {
			return err
		}
		for j := 0; j < nc; j++ {
			if !sc.next() {
				return sc.errf("module %q cell list truncated", mname)
			}
			cn := strings.TrimSpace(sc.cur)
			ci, okc := r.cellIdx[cn]
			if !okc {
				return sc.errf("module %q lists unknown cell %q", mname, cn)
			}
			d.Cells[ci].Module = mi
			d.Modules[mi].Cells = append(d.Modules[mi].Cells, ci)
		}
	}
	return nil
}
