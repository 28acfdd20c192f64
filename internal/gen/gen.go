// Package gen produces synthetic hierarchical mixed-size benchmark designs
// for the reproduction suite. The DAC-2012 superblue designs the paper
// family evaluates on are proprietary, so this generator fabricates
// circuits with the same structural features that drive the placement and
// routability behaviour under study:
//
//   - standard cells of varying widths plus a population of large macros
//     (some fixed as blockages, some movable), giving mixed-size dynamics
//     and macro-induced narrow channels;
//   - a logical hierarchy tree whose modules own contiguous cell ranges,
//     with fence regions assigned to a subset of modules;
//   - Rent's-rule-like connectivity: mostly short local nets within a
//     module, a tail of higher-degree nets, and a sprinkling of global
//     nets to peripheral I/O terminals;
//   - a two-layer routing grid with capacities and reduced porosity over
//     macro blockages, in the DAC-2012 .route style.
//
// Generation is deterministic for a given Config (seeded math/rand), so
// benchmark tables are reproducible run to run.
package gen

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/db"
	"repro/internal/geom"
)

// Config parameterizes one synthetic design.
type Config struct {
	Name string
	Seed int64

	// NumStdCells is the number of standard cells.
	NumStdCells int
	// NumFixedMacros and NumMovableMacros control the macro population.
	NumFixedMacros   int
	NumMovableMacros int
	// MacroSizeRows is the macro edge length in row heights (approximate;
	// individual macros vary ±40%).
	MacroSizeRows int

	// NumModules is the number of non-root hierarchy modules; NumFences of
	// them (≤ NumModules) receive fence regions.
	NumModules int
	NumFences  int

	// NumTerminals is the number of peripheral I/O pads.
	NumTerminals int

	// TargetUtil is movable area / free area; the die is sized to hit it.
	TargetUtil float64

	// AvgNetDegree shifts the net-degree distribution (typical 3–4). The
	// number of nets is chosen so total pins ≈ NumStdCells * 4.
	AvgNetDegree float64

	// LocalityWindow is the index range within which most net members are
	// drawn, as a fraction of the design size (smaller = more local nets).
	LocalityWindow float64

	// GlobalFrac is the fraction of nets drawn uniformly across the whole
	// design (default 0.12). Real circuits keep absolute net lengths
	// roughly constant as they grow, so large benchmarks use both a
	// smaller LocalityWindow and a smaller GlobalFrac.
	GlobalFrac float64

	// RowHeight and SiteWidth fix the placement fabric geometry.
	RowHeight float64
	SiteWidth float64

	// GridTilesPerRow controls routing-tile size: one g-cell spans this
	// many row heights.
	GridTilesPerRow float64
	// TrackCapacity is the per-layer routing capacity in tracks per tile.
	TrackCapacity float64
}

// Default fills unset Config fields with sensible values.
func (c Config) withDefaults() Config {
	if c.Name == "" {
		c.Name = "synth"
	}
	if c.NumStdCells <= 0 {
		c.NumStdCells = 1000
	}
	if c.MacroSizeRows <= 0 {
		c.MacroSizeRows = 8
	}
	if c.TargetUtil <= 0 || c.TargetUtil >= 1 {
		c.TargetUtil = 0.7
	}
	if c.AvgNetDegree <= 2 {
		c.AvgNetDegree = 3.5
	}
	if c.LocalityWindow <= 0 {
		c.LocalityWindow = 0.05
	}
	if c.GlobalFrac <= 0 {
		c.GlobalFrac = 0.12
	}
	if c.GlobalFrac > 0.5 {
		c.GlobalFrac = 0.5
	}
	if c.RowHeight <= 0 {
		c.RowHeight = 12
	}
	if c.SiteWidth <= 0 {
		c.SiteWidth = 1
	}
	if c.GridTilesPerRow <= 0 {
		c.GridTilesPerRow = 4
	}
	if c.TrackCapacity <= 0 {
		c.TrackCapacity = 64
	}
	if c.NumTerminals < 0 {
		c.NumTerminals = 0
	}
	if c.NumFences > c.NumModules {
		c.NumFences = c.NumModules
	}
	return c
}

// Generate builds the synthetic design described by cfg.
func Generate(cfg Config) (*db.Design, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := &generator{cfg: cfg, rng: rng}
	return g.run()
}

// MustGenerate is Generate for known-good configurations; it panics on
// error.
func MustGenerate(cfg Config) *db.Design {
	d, err := Generate(cfg)
	if err != nil {
		panic(err)
	}
	return d
}

// macroDim is the footprint of one generated macro.
type macroDim struct{ w, h float64 }

type generator struct {
	cfg Config
	rng *rand.Rand

	b        *db.Builder
	die      geom.Rect
	cells    []int // std cell indices in generation order
	modOf    []int // module of each std cell (index into modules slice)
	modules  []int // builder module indices (non-root)
	rowH     float64
	numRows  int
	rowWidth float64
}

func (g *generator) run() (*db.Design, error) {
	cfg := g.cfg

	// Standard-cell dimensions: widths 2–16 sites, one row tall.
	widths := make([]float64, cfg.NumStdCells)
	var stdArea float64
	for i := range widths {
		w := float64(2+g.rng.Intn(15)) * cfg.SiteWidth
		widths[i] = w
		stdArea += w * cfg.RowHeight
	}

	// Macro dimensions.
	macroEdge := float64(cfg.MacroSizeRows) * cfg.RowHeight
	fixedDims := make([]macroDim, cfg.NumFixedMacros)
	movDims := make([]macroDim, cfg.NumMovableMacros)
	var fixedArea, movArea float64
	dim := func() macroDim {
		f := func() float64 { return macroEdge * (0.6 + 0.8*g.rng.Float64()) }
		return macroDim{w: snap(f(), cfg.SiteWidth), h: snap(f(), cfg.RowHeight)}
	}
	for i := range fixedDims {
		fixedDims[i] = dim()
		fixedArea += fixedDims[i].w * fixedDims[i].h
	}
	for i := range movDims {
		movDims[i] = dim()
		movArea += movDims[i].w * movDims[i].h
	}

	// Die sizing: free area must hold movable area at the target
	// utilization; fixed macros add on top.
	dieArea := (stdArea+movArea)/cfg.TargetUtil + fixedArea
	side := math.Sqrt(dieArea)
	g.numRows = int(math.Ceil(side / cfg.RowHeight))
	g.rowH = cfg.RowHeight
	g.rowWidth = snap(dieArea/(float64(g.numRows)*cfg.RowHeight), cfg.SiteWidth)
	g.die = geom.NewRect(0, 0, g.rowWidth, float64(g.numRows)*cfg.RowHeight)

	g.b = db.NewBuilder(cfg.Name, g.die)
	g.b.MakeRows(cfg.RowHeight, cfg.SiteWidth)

	root := g.b.AddModule("top", db.NoModule, db.NoRegion)

	// Fixed macros first: they define blockages and channels. Place them
	// on a jittered grid with margins so channels between them exist.
	fixedIdx := g.placeFixedMacros(fixedDims)

	// Fences: carve disjoint rectangles out of macro-free die area.
	fenceIdx := g.makeFences(cfg.NumFences, stdArea, fixedIdx)

	// Modules: each non-root module owns a contiguous slice of std cells.
	g.makeModules(root, fenceIdx)

	// Standard cells, assigned to modules in contiguous ranges.
	g.makeStdCells(widths)

	// Movable macros, assigned to the root module.
	movIdx := make([]int, 0, len(movDims))
	for i, md := range movDims {
		ci := g.b.AddMacro(fmt.Sprintf("mm%d", i), md.w, md.h, false)
		movIdx = append(movIdx, ci)
	}

	// Terminals around the periphery.
	terms := g.makeTerminals(cfg.NumTerminals)

	// Connectivity.
	if err := g.makeNets(movIdx, fixedIdx, terms); err != nil {
		return nil, err
	}

	// Routing grid.
	g.makeRoute(fixedIdx)

	d, err := g.b.Design()
	if err != nil {
		return nil, err
	}
	// Initial positions: movable objects at the die center with a small
	// deterministic spread (analytical placers need non-degenerate
	// gradients), movable macros included.
	ctr := g.die.Center()
	spread := math.Min(g.die.W(), g.die.H()) * 0.1
	for _, ci := range d.Movable() {
		c := &d.Cells[ci]
		c.SetCenter(geom.Point{
			X: ctr.X + (g.rng.Float64()-0.5)*spread,
			Y: ctr.Y + (g.rng.Float64()-0.5)*spread,
		})
	}
	return d, nil
}

func snap(v, grid float64) float64 {
	if grid <= 0 {
		return v
	}
	s := math.Round(v/grid) * grid
	if s < grid {
		s = grid
	}
	return s
}

// placeFixedMacros distributes fixed macros over the die interior without
// overlaps, leaving routing channels between them.
func (g *generator) placeFixedMacros(dims []macroDim) []int {
	var placed []geom.Rect
	idx := make([]int, 0, len(dims))
	margin := 2 * g.rowH
	for i, md := range dims {
		ci := g.b.AddMacro(fmt.Sprintf("fm%d", i), md.w, md.h, true)
		idx = append(idx, ci)
		// Rejection-sample a spot; shrink ambitions after many failures.
		var r geom.Rect
		ok := false
		for try := 0; try < 400; try++ {
			x := g.die.Lo.X + margin + g.rng.Float64()*math.Max(1, g.die.W()-md.w-2*margin)
			y := g.die.Lo.Y + margin + g.rng.Float64()*math.Max(1, g.die.H()-md.h-2*margin)
			x = snap(x, g.cfg.SiteWidth)
			y = snap(y, g.rowH)
			r = geom.NewRect(x, y, x+md.w, y+md.h)
			if !g.die.ContainsRect(r) {
				continue
			}
			conflict := false
			for _, pr := range placed {
				if pr.Expand(margin).Overlaps(r) {
					conflict = true
					break
				}
			}
			if !conflict {
				ok = true
				break
			}
		}
		if !ok {
			// Deterministic raster scan without margins: take the first
			// overlap-free in-die spot.
			r, ok = g.rasterScan(md, placed)
		}
		if !ok {
			// Truly no room; clamp to the origin — the design is
			// over-constrained and tests will surface the overlap.
			r = g.die.ClampRect(geom.NewRect(0, 0, md.w, md.h))
		}
		g.setPos(ci, r.Lo)
		placed = append(placed, r)
	}
	return idx
}

// setPos fixes a cell's position during construction; fixed macros need
// their final spots before fence carving, which avoids them.
func (g *generator) setPos(ci int, p geom.Point) {
	g.b.SetCellPos(ci, p)
}

// rasterScan walks a row-height lattice over the die and returns the first
// spot where a macro of the given dimensions fits without overlapping the
// already-placed rectangles.
func (g *generator) rasterScan(md macroDim, placed []geom.Rect) (geom.Rect, bool) {
	for y := g.die.Lo.Y; y+md.h <= g.die.Hi.Y+1e-9; y += g.rowH {
		for x := g.die.Lo.X; x+md.w <= g.die.Hi.X+1e-9; x += g.rowH {
			r := geom.NewRect(snap(x, g.cfg.SiteWidth), snap(y, g.rowH),
				snap(x, g.cfg.SiteWidth)+md.w, snap(y, g.rowH)+md.h)
			if !g.die.ContainsRect(r) {
				continue
			}
			free := true
			for _, pr := range placed {
				if pr.Overlaps(r) {
					free = false
					break
				}
			}
			if free {
				return r, true
			}
		}
	}
	return geom.Rect{}, false
}

// makeFences carves NumFences disjoint rectangles out of macro-free area.
func (g *generator) makeFences(n int, stdArea float64, fixedIdx []int) []int {
	if n <= 0 {
		return nil
	}
	// Two thirds of the standard cells live in modules (see makeStdCells),
	// so one module's area share is (2/3)·stdArea / NumModules. The fence
	// starts at a comfortable 65% local utilization; when no free spot
	// exists between macros it shrinks toward an 80%-utilization floor.
	// The floor leaves real slack per row: legalization is bin packing,
	// and at 90%+ fill the per-row fragments get smaller than the widest
	// cells, stranding them outside the fence.
	moduleArea := stdArea * 2 / 3 / float64(maxInt(1, g.cfg.NumModules))
	side := math.Sqrt(moduleArea / 0.65)
	minSide := math.Sqrt(moduleArea / 0.8)
	var fences []int
	var used []geom.Rect
	for _, fi := range fixedIdx {
		used = append(used, g.b.CellRect(fi).Expand(g.rowH))
	}
	for f := 0; f < n; f++ {
		w := side * (0.95 + 0.15*g.rng.Float64())
		h := side * (0.95 + 0.15*g.rng.Float64())
		var r geom.Rect
		ok := false
		for !ok && w >= minSide*0.9 && h >= minSide*0.9 {
			for try := 0; try < 400; try++ {
				sw := snap(w, g.cfg.SiteWidth)
				sh := snap(h, g.rowH)
				x := g.die.Lo.X + g.rng.Float64()*math.Max(1, g.die.W()-sw)
				y := g.die.Lo.Y + g.rng.Float64()*math.Max(1, g.die.H()-sh)
				x = snap(x, g.cfg.SiteWidth)
				y = snap(y, g.rowH)
				r = geom.NewRect(x, y, x+sw, y+sh)
				if !g.die.ContainsRect(r) {
					continue
				}
				conflict := false
				for _, ur := range used {
					if ur.Overlaps(r) {
						conflict = true
						break
					}
				}
				if !conflict {
					ok = true
					break
				}
			}
			if !ok {
				w *= 0.92
				h *= 0.92
			}
		}
		if !ok {
			continue
		}
		used = append(used, r.Expand(g.rowH))
		fences = append(fences, g.b.AddRegion(fmt.Sprintf("fence%d", f), r))
	}
	return fences
}

// makeModules creates the module tree: NumModules children of the root,
// the first len(fences) of which are fenced.
func (g *generator) makeModules(root int, fences []int) {
	for m := 0; m < g.cfg.NumModules; m++ {
		region := db.NoRegion
		if m < len(fences) {
			region = fences[m]
		}
		mi := g.b.AddModule(fmt.Sprintf("mod%d", m), root, region)
		g.modules = append(g.modules, mi)
	}
}

// makeStdCells creates standard cells and assigns contiguous index ranges
// to modules (hierarchical netlists keep related logic adjacent).
func (g *generator) makeStdCells(widths []float64) {
	n := len(widths)
	perMod := 0
	if len(g.modules) > 0 {
		// Two thirds of the cells live in modules, the rest at the root.
		perMod = (2 * n / 3) / len(g.modules)
	}
	for i, w := range widths {
		ci := g.b.AddStdCell(fmt.Sprintf("c%d", i), w, g.rowH)
		g.cells = append(g.cells, ci)
		mod := -1
		if perMod > 0 && i/perMod < len(g.modules) {
			mod = i / perMod
			g.b.AssignModule(ci, g.modules[mod])
		}
		g.modOf = append(g.modOf, mod)
	}
}

// makeTerminals rings the die with I/O pads.
func (g *generator) makeTerminals(n int) []int {
	terms := make([]int, 0, n)
	for i := 0; i < n; i++ {
		var p geom.Point
		t := g.rng.Float64()
		switch g.rng.Intn(4) {
		case 0:
			p = geom.Point{X: g.die.Lo.X, Y: g.die.Lo.Y + t*g.die.H()}
		case 1:
			p = geom.Point{X: g.die.Hi.X, Y: g.die.Lo.Y + t*g.die.H()}
		case 2:
			p = geom.Point{X: g.die.Lo.X + t*g.die.W(), Y: g.die.Lo.Y}
		default:
			p = geom.Point{X: g.die.Lo.X + t*g.die.W(), Y: g.die.Hi.Y}
		}
		terms = append(terms, g.b.AddTerminal(fmt.Sprintf("p%d", i), p))
	}
	return terms
}

// netDegree samples the net-degree distribution: geometric-ish with mean
// near AvgNetDegree, clipped to [2, 24].
func (g *generator) netDegree() int {
	r := g.rng.Float64()
	switch {
	case r < 0.55:
		return 2
	case r < 0.75:
		return 3
	case r < 0.87:
		return 4
	default:
		d := 5 + int(g.rng.ExpFloat64()*(g.cfg.AvgNetDegree-2))
		if d > 24 {
			d = 24
		}
		return d
	}
}

// makeNets wires the design: local nets inside index windows (and hence
// mostly inside modules), global nets across modules, terminal nets, and
// macro connections. Every member-draw loop needs distinct cells, so each
// net's degree is first clamped to the number of distinct cells its draw
// can reach (computed without touching the RNG). The clamp only binds
// where the unclamped loop could never finish, so every design that
// generated before it is unchanged.
func (g *generator) makeNets(movMacros, fixedMacros, terms []int) error {
	n := len(g.cells)
	if n == 0 {
		return nil
	}
	if n < 2 && len(terms) == 0 {
		return fmt.Errorf("gen: a single standard cell with no terminals cannot form a 2-pin net")
	}
	targetPins := int(float64(n) * 4)
	window := maxInt(8, int(g.cfg.LocalityWindow*float64(n)))
	pins := 0
	netID := 0
	pinOn := func(ci int) db.Conn { return g.b.CenterConn(ci) }

	for pins < targetPins {
		deg := g.netDegree()
		conns := make([]db.Conn, 0, deg)
		seen := map[int]bool{}
		r := g.rng.Float64()
		localCut := 1 - g.cfg.GlobalFrac - 0.08 // 8% of nets reach I/O pads
		globalCut := 1 - 0.08
		switch {
		case r < localCut:
			// Local net around an anchor cell, clamped to the cells inside
			// the window (fewer near the ends of the cell list).
			anchor := g.rng.Intn(n)
			deg = min(deg, min(n-1, anchor+window)-max(0, anchor-window)+1)
			for len(conns) < deg {
				j := anchor + g.rng.Intn(2*window+1) - window
				if j < 0 || j >= n || seen[j] {
					continue
				}
				seen[j] = true
				conns = append(conns, pinOn(g.cells[j]))
			}
		case r < globalCut || len(terms) == 0:
			// Global net: uniformly random members.
			deg = min(deg, n)
			for len(conns) < deg {
				j := g.rng.Intn(n)
				if seen[j] {
					continue
				}
				seen[j] = true
				conns = append(conns, pinOn(g.cells[j]))
			}
		default:
			// I/O net: a terminal plus random cells.
			deg = min(deg, n+1)
			conns = append(conns, db.Conn{Cell: terms[g.rng.Intn(len(terms))]})
			for len(conns) < deg {
				j := g.rng.Intn(n)
				if seen[j] {
					continue
				}
				seen[j] = true
				conns = append(conns, pinOn(g.cells[j]))
			}
		}
		if len(conns) >= 2 {
			g.b.AddNet(fmt.Sprintf("n%d", netID), 1, conns...)
			netID++
			pins += len(conns)
		}
	}

	// Every macro connects to a handful of random cells.
	for _, mi := range append(append([]int{}, movMacros...), fixedMacros...) {
		deg := min(3+g.rng.Intn(4), n)
		conns := []db.Conn{g.macroConn(mi)}
		seen := map[int]bool{}
		for len(conns) < deg+1 {
			j := g.rng.Intn(n)
			if seen[j] {
				continue
			}
			seen[j] = true
			conns = append(conns, pinOn(g.cells[j]))
		}
		g.b.AddNet(fmt.Sprintf("n%d", netID), 1, conns...)
		netID++
	}
	return nil
}

// macroConn returns a pin on a random location of the macro boundary
// region rather than its center, as macro pins sit near edges in practice.
func (g *generator) macroConn(ci int) db.Conn {
	w, h := g.b.CellDims(ci)
	fx, fy := g.rng.Float64(), g.rng.Float64()
	// Push the pin toward an edge.
	if g.rng.Intn(2) == 0 {
		fx = math.Round(fx)
	} else {
		fy = math.Round(fy)
	}
	return db.Conn{Cell: ci, Offset: geom.Point{X: fx * w, Y: fy * h}}
}

// makeRoute attaches a two-layer routing grid (layer 0 horizontal, layer 1
// vertical) with macro blockages.
func (g *generator) makeRoute(fixedIdx []int) {
	tile := g.cfg.GridTilesPerRow * g.rowH
	gx := maxInt(4, int(math.Ceil(g.die.W()/tile)))
	gy := maxInt(4, int(math.Ceil(g.die.H()/tile)))
	ri := &db.RouteInfo{
		GridX: gx, GridY: gy, Layers: 2,
		HorizCap:         []float64{g.cfg.TrackCapacity, 0},
		VertCap:          []float64{0, g.cfg.TrackCapacity},
		MinWidth:         []float64{1, 1},
		MinSpacing:       []float64{1, 1},
		ViaSpacing:       []float64{0, 0},
		Origin:           g.die.Lo,
		TileW:            g.die.W() / float64(gx),
		TileH:            g.die.H() / float64(gy),
		BlockagePorosity: 0.1,
	}
	for _, ci := range fixedIdx {
		ri.Blockages = append(ri.Blockages, db.RouteBlockage{Cell: ci, Layers: []int{0, 1}})
	}
	g.b.SetRoute(ri)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
