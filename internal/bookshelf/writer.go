package bookshelf

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/db"
)

// WriteDesign writes all Bookshelf files for the design into dir, using the
// design name as the base file name, and returns the path of the .aux file.
func WriteDesign(d *db.Design, dir string) (string, error) {
	base := d.Name
	if base == "" {
		base = "design"
	}
	files := Files{
		Nodes: base + ".nodes",
		Nets:  base + ".nets",
		Wts:   base + ".wts",
		Pl:    base + ".pl",
		Scl:   base + ".scl",
	}
	if d.Route != nil {
		files.Route = base + ".route"
	}
	if len(d.Regions) > 0 {
		files.Fence = base + ".fence"
	}
	if len(d.Modules) > 0 {
		files.Hier = base + ".hier"
	}
	writers := []struct {
		file string
		fn   func(io.Writer, *db.Design) error
	}{
		{files.Nodes, writeNodes},
		{files.Nets, writeNets},
		{files.Wts, writeWts},
		{files.Pl, WritePl},
		{files.Scl, writeScl},
		{files.Route, writeRoute},
		{files.Fence, writeFence},
		{files.Hier, writeHier},
	}
	for _, w := range writers {
		if w.file == "" {
			continue
		}
		if err := writeFile(filepath.Join(dir, w.file), d, w.fn); err != nil {
			return "", err
		}
	}
	auxPath := filepath.Join(dir, base+".aux")
	f, err := os.Create(auxPath)
	if err != nil {
		return "", err
	}
	defer f.Close()
	fmt.Fprintf(f, "RowBasedPlacement : %s %s %s %s %s", files.Nodes, files.Nets, files.Wts, files.Pl, files.Scl)
	for _, extra := range []string{files.Route, files.Fence, files.Hier} {
		if extra != "" {
			fmt.Fprintf(f, " %s", extra)
		}
	}
	fmt.Fprintln(f)
	return auxPath, nil
}

func writeFile(path string, d *db.Design, fn func(io.Writer, *db.Design) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := fn(w, d); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeNodes(w io.Writer, d *db.Design) error {
	terms := 0
	for i := range d.Cells {
		if d.Cells[i].Fixed {
			terms++
		}
	}
	fmt.Fprintf(w, "UCLA nodes 1.0\n\nNumNodes : %d\nNumTerminals : %d\n", len(d.Cells), terms)
	for i := range d.Cells {
		c := &d.Cells[i]
		switch {
		case c.Kind == db.Terminal && c.Area() == 0:
			fmt.Fprintf(w, "%s %g %g terminal_NI\n", c.Name, c.BaseW, c.BaseH)
		case c.Fixed:
			fmt.Fprintf(w, "%s %g %g terminal\n", c.Name, c.BaseW, c.BaseH)
		default:
			fmt.Fprintf(w, "%s %g %g\n", c.Name, c.BaseW, c.BaseH)
		}
	}
	return nil
}

func writeNets(w io.Writer, d *db.Design) error {
	fmt.Fprintf(w, "UCLA nets 1.0\n\nNumNets : %d\nNumPins : %d\n", len(d.Nets), len(d.Pins))
	for ni := range d.Nets {
		net := &d.Nets[ni]
		fmt.Fprintf(w, "NetDegree : %d %s\n", net.Degree(), net.Name)
		for _, pi := range net.Pins {
			p := &d.Pins[pi]
			c := &d.Cells[p.Cell]
			// Convert lower-left-relative offsets back to center-relative.
			dx := p.Offset.X - c.BaseW/2
			dy := p.Offset.Y - c.BaseH/2
			fmt.Fprintf(w, "\t%s B : %g %g\n", c.Name, dx, dy)
		}
	}
	return nil
}

func writeWts(w io.Writer, d *db.Design) error {
	fmt.Fprintf(w, "UCLA wts 1.0\n\n")
	for i := range d.Nets {
		wt := d.Nets[i].Weight
		if wt == 0 {
			wt = 1
		}
		fmt.Fprintf(w, "%s %g\n", d.Nets[i].Name, wt)
	}
	return nil
}

// WritePl writes just the placement (.pl) file for the design — the
// artifact the placer CLIs and the placerd result endpoint ship.
func WritePl(w io.Writer, d *db.Design) error {
	fmt.Fprintf(w, "UCLA pl 1.0\n\n")
	for i := range d.Cells {
		c := &d.Cells[i]
		fmt.Fprintf(w, "%s %g %g : %s", c.Name, c.Pos.X, c.Pos.Y, c.Orient)
		if c.Fixed {
			if c.Kind == db.Terminal && c.Area() == 0 {
				fmt.Fprintf(w, " /FIXED_NI")
			} else {
				fmt.Fprintf(w, " /FIXED")
			}
		}
		fmt.Fprintln(w)
	}
	return nil
}

func writeScl(w io.Writer, d *db.Design) error {
	fmt.Fprintf(w, "UCLA scl 1.0\n\nNumRows : %d\n", len(d.Rows))
	for i := range d.Rows {
		r := &d.Rows[i]
		fmt.Fprintf(w, "CoreRow Horizontal\n")
		fmt.Fprintf(w, " Coordinate : %g\n", r.Y)
		fmt.Fprintf(w, " Height : %g\n", r.Height)
		fmt.Fprintf(w, " Sitewidth : %g\n", r.SiteWidth)
		fmt.Fprintf(w, " Sitespacing : %g\n", r.SiteWidth)
		fmt.Fprintf(w, " Siteorient : 1\n Sitesymmetry : 1\n")
		fmt.Fprintf(w, " SubrowOrigin : %g NumSites : %d\n", r.X, r.NumSites)
		fmt.Fprintf(w, "End\n")
	}
	return nil
}

func writeRoute(w io.Writer, d *db.Design) error {
	ri := d.Route
	fmt.Fprintf(w, "route 1.0\n\n")
	fmt.Fprintf(w, "Grid : %d %d %d\n", ri.GridX, ri.GridY, ri.Layers)
	writeFloats := func(name string, vals []float64) {
		fmt.Fprintf(w, "%s :", name)
		for _, v := range vals {
			fmt.Fprintf(w, " %g", v)
		}
		fmt.Fprintln(w)
	}
	writeFloats("VerticalCapacity", ri.VertCap)
	writeFloats("HorizontalCapacity", ri.HorizCap)
	writeFloats("MinWireWidth", ri.MinWidth)
	writeFloats("MinWireSpacing", ri.MinSpacing)
	writeFloats("ViaSpacing", ri.ViaSpacing)
	fmt.Fprintf(w, "GridOrigin : %g %g\n", ri.Origin.X, ri.Origin.Y)
	fmt.Fprintf(w, "TileSize : %g %g\n", ri.TileW, ri.TileH)
	fmt.Fprintf(w, "BlockagePorosity : %g\n", ri.BlockagePorosity)
	fmt.Fprintf(w, "NumNiTerminals : %d\n", len(ri.NiTerminals))
	for _, ci := range ri.NiTerminals {
		fmt.Fprintf(w, "\t%s 1\n", d.Cells[ci].Name)
	}
	fmt.Fprintf(w, "NumBlockageNodes : %d\n", len(ri.Blockages))
	for _, b := range ri.Blockages {
		fmt.Fprintf(w, "\t%s %d", d.Cells[b.Cell].Name, len(b.Layers))
		for _, l := range b.Layers {
			fmt.Fprintf(w, " %d", l+1)
		}
		fmt.Fprintln(w)
	}
	return nil
}

func writeFence(w io.Writer, d *db.Design) error {
	fmt.Fprintf(w, "UCLA fence 1.0\n\nNumFences : %d\n", len(d.Regions))
	for i := range d.Regions {
		rg := &d.Regions[i]
		fmt.Fprintf(w, "%s NumRects : %d\n", rg.Name, len(rg.Rects))
		for _, r := range rg.Rects {
			fmt.Fprintf(w, "\t%g %g %g %g\n", r.Lo.X, r.Lo.Y, r.Hi.X, r.Hi.Y)
		}
	}
	return nil
}

func writeHier(w io.Writer, d *db.Design) error {
	fmt.Fprintf(w, "UCLA hier 1.0\n\nNumModules : %d\n", len(d.Modules))
	for mi := range d.Modules {
		m := &d.Modules[mi]
		fence := "-"
		if m.Region != db.NoRegion {
			fence = d.Regions[m.Region].Name
		}
		fmt.Fprintf(w, "Module %s : parent %d fence %s\n", m.Name, m.Parent, fence)
		fmt.Fprintf(w, "NumCells : %d\n", len(m.Cells))
		for _, ci := range m.Cells {
			fmt.Fprintf(w, "\t%s\n", d.Cells[ci].Name)
		}
	}
	return nil
}
