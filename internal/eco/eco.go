package eco

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/db"
	"repro/internal/dp"
	"repro/internal/estimate"
	"repro/internal/geom"
	"repro/internal/legal"
	"repro/internal/obs"
	"repro/internal/route"
)

// ErrNeedFull is returned by Place when the diff is outside windowed
// repair's reach (a macro delta, or a dirty fraction above
// DefaultMaxDirtyFrac). Callers should fall back to a from-scratch
// core.PlaceContext run.
var ErrNeedFull = errors.New("eco: delta needs a full place")

// Options configures the windowed repair pass. The zero value is
// serviceable.
type Options struct {
	// Workers is the worker count for legalization, detailed placement
	// and the congestion estimator (≤ 0 selects the shared internal/par
	// policy). Results are byte-identical for every worker count.
	Workers int
	// MarginRows is the window expansion margin around each dirty seed in
	// row heights (default 8). Legalization fallbacks double it and retry
	// up to two times before giving up.
	MarginRows float64
	// Obs records "eco" spans and debug logs (nil = disabled).
	Obs *obs.Recorder
}

// Result reports what the repair achieved.
type Result struct {
	// ChangedCells is the number of re-placed next cells (changed+added),
	// Added/Removed the netlist churn, ReuseRatio the fraction of next
	// cells whose base position transferred untouched.
	ChangedCells int
	Added        int
	Removed      int
	ReuseRatio   float64
	// Windows are the repaired rectangles (empty for an empty diff).
	Windows []geom.Rect
	// Frozen is the number of movable cells pinned outside the windows
	// during repair; Repaired the movable std cells inside them.
	Frozen   int
	Repaired int

	Legal legal.CellResult
	DP    dp.Result

	// Final quality of the repaired placement.
	HPWL            float64
	Overlaps        int
	FenceViolations int
	OutOfDie        int

	// LegalTime and DPTime attribute the repair wall time.
	LegalTime time.Duration
	DPTime    time.Duration
}

// Place repairs next in place: it transfers base positions onto every
// matched cell, seeds added cells near their connected neighbors, grows
// repair windows around the dirty set, and re-legalizes + re-optimizes
// only the window members while everything else is frozen in place.
//
// The diff must have been computed against the same base the placement
// came from (DiffDesigns when the base netlist is available, DiffPlacement
// for a bare .pl). Place returns ErrNeedFull — leaving next's positions in
// the transferred-but-unrepaired state — when the delta is out of reach;
// callers then run the full flow instead.
//
// An empty diff transfers every position and skips the repair entirely,
// reproducing the base placement byte-for-byte regardless of worker count.
// For non-empty diffs the repair rides the legalizer's serial Abacus
// dispatch and dp's frozen-state propose / fixed-order commit, so the
// repaired placement is byte-identical for every worker count too.
func Place(next *db.Design, df *Diff, base *Placement, opt Options) (Result, error) {
	res := Result{
		ChangedCells: df.ChangedCells(),
		Added:        len(df.Added),
		Removed:      len(df.RemovedNames),
		ReuseRatio:   df.ReuseRatio(),
	}
	if len(next.Cells) == 0 {
		return res, fmt.Errorf("eco: empty design")
	}
	if df.NeedFull(DefaultMaxDirtyFrac) {
		transfer(next, df, base)
		return res, ErrNeedFull
	}
	sp := opt.Obs.StartSpan("eco")
	defer func() {
		if sp != nil {
			sp.Add("changed_cells", int64(res.ChangedCells))
			sp.Add("windows", int64(len(res.Windows)))
			sp.Add("frozen", int64(res.Frozen))
			sp.Add("repaired", int64(res.Repaired))
			sp.End()
		}
	}()

	transfer(next, df, base)
	pinBaseMacros(next, base)
	seedAdded(next, df, base)

	if df.Empty() {
		res.ReuseRatio = 1
		finishQuality(next, &res)
		return res, nil
	}

	rowH := next.RowHeight()
	if rowH <= 0 {
		rowH = 1
	}
	marginRows := opt.MarginRows
	if marginRows <= 0 {
		marginRows = 8
	}

	// Dirty seeds: the (post-transfer) footprints of every changed and
	// added cell, plus the freed footprints of removed cells.
	dirty := make(map[int]bool, df.ChangedCells())
	seeds := make([]geom.Rect, 0, df.DirtyCount())
	for _, i := range df.Changed {
		dirty[i] = true
		seeds = append(seeds, next.Cells[i].Rect())
	}
	for _, i := range df.Added {
		dirty[i] = true
		seeds = append(seeds, next.Cells[i].Rect())
	}
	seeds = append(seeds, df.RemovedRects...)

	// Re-legalize the windows with everything else frozen. Legalization
	// fallbacks mean a window was too tight to absorb its cells: widen
	// and retry before surrendering. The freeze stays in effect through
	// detailed placement so DP, too, only ever moves window members.
	var frozen []int
	t0 := time.Now()
	for attempt := 0; ; attempt++ {
		res.Windows = expandWindows(seeds, marginRows*rowH, next.Die)
		frozen = freezeOutside(next, dirty, res.Windows)
		res.Frozen = len(frozen)
		lres, lerr := legal.LegalizeCellsOpt(next, legal.Options{Workers: opt.Workers})
		if lerr != nil {
			unfreeze(next, frozen)
			return res, lerr
		}
		res.Legal = lres
		if lres.Fallbacks == 0 || attempt >= 2 {
			break
		}
		unfreeze(next, frozen)
		marginRows *= 2
		opt.Obs.Log().Debug("eco: legalize fallbacks, widening windows",
			"fallbacks", lres.Fallbacks, "margin_rows", marginRows)
	}
	res.LegalTime = time.Since(t0)
	res.Repaired = countMovableStd(next)

	// Detailed placement restricted to the windows: only unfrozen cells
	// enter the optimizer, riding the incremental wirelength cache; with
	// a routing grid present, a live probabilistic congestion estimator
	// guards moves the way the full flow's estimate mode does.
	dpOpt := dp.Options{Workers: opt.Workers, Obs: opt.Obs}
	if next.Route != nil {
		if grid, err := route.NewGrid(next); err == nil {
			dpOpt.Estimate = estimate.New(grid, estimate.Options{Workers: opt.Workers})
		}
	}
	t1 := time.Now()
	res.DP = dp.Optimize(next, dpOpt)
	res.DPTime = time.Since(t1)

	unfreeze(next, frozen)
	finishQuality(next, &res)
	return res, nil
}

func finishQuality(d *db.Design, res *Result) {
	res.HPWL = d.HPWL()
	res.Overlaps = d.OverlapViolations()
	res.FenceViolations = d.FenceViolations()
	res.OutOfDie = d.OutOfDie()
}

// transfer seeds next with the base placement: every matched movable cell
// takes the base position and orientation. Non-movable cells keep next's
// stated position — for fixed objects the position is part of the problem,
// not the solution. Changed cells get the base position too; it is their
// repair starting point.
func transfer(next *db.Design, df *Diff, base *Placement) {
	apply := func(idx []int) {
		for _, i := range idx {
			c := &next.Cells[i]
			if !c.Movable() {
				continue
			}
			cp, ok := base.Cells[c.Name]
			if !ok {
				continue
			}
			c.Pos = geom.Point{X: cp.X, Y: cp.Y}
			if cp.Orient >= db.N && cp.Orient <= db.FW {
				c.Orient = cp.Orient
			}
		}
	}
	apply(df.Unchanged)
	apply(df.Changed)
}

// pinBaseMacros re-applies the base's pinned-macro state: the full flow's
// macro legalizer pins movable macros permanently once legalized, so the
// base placement records them as fixed. Mirroring that keeps the repaired
// design byte-compatible with a full run's .pl (the /FIXED markers match)
// and keeps window repair macro-free. It runs only on the repair path —
// the ErrNeedFull fallback hands the design to a full place, which must
// see the input's own movability.
func pinBaseMacros(next *db.Design, base *Placement) {
	for i := range next.Cells {
		c := &next.Cells[i]
		if !c.Movable() || c.Kind != db.Macro {
			continue
		}
		if cp, ok := base.Cells[c.Name]; ok && cp.Fixed {
			c.Fixed = true
		}
	}
}

// seedAdded places every added cell at the centroid of its already-placed
// net neighbors (die center when it has none), clamped into its fence
// when it has one. The legalizer does the real packing; the seed just
// keeps displacement and wirelength small.
func seedAdded(next *db.Design, df *Diff, base *Placement) {
	if len(df.Added) == 0 {
		return
	}
	added := make(map[int]bool, len(df.Added))
	for _, i := range df.Added {
		added[i] = true
	}
	for _, i := range df.Added {
		c := &next.Cells[i]
		if !c.Movable() {
			continue
		}
		var sx, sy float64
		var n int
		for _, p := range c.Pins {
			net := &next.Nets[next.Pins[p].Net]
			for _, q := range net.Pins {
				oi := next.Pins[q].Cell
				if oi == i || added[oi] {
					continue
				}
				ctr := next.Cells[oi].Center()
				sx += ctr.X
				sy += ctr.Y
				n++
			}
		}
		ctr := next.Die.Center()
		if n > 0 {
			ctr = geom.Point{X: sx / float64(n), Y: sy / float64(n)}
		}
		if ri := next.CellRegion(i); ri != db.NoRegion {
			ctr = clampIntoRegion(ctr, &next.Regions[ri])
		}
		c.SetCenter(next.Die.ClampPoint(ctr))
	}
}

// clampIntoRegion moves p into the nearest fence rectangle.
func clampIntoRegion(p geom.Point, rg *db.Region) geom.Point {
	if len(rg.Rects) == 0 || rg.ContainsPoint(p) {
		return p
	}
	best := rg.Rects[0].ClampPoint(p)
	bestD := best.ManhattanDist(p)
	for _, r := range rg.Rects[1:] {
		q := r.ClampPoint(p)
		if d := q.ManhattanDist(p); d < bestD {
			best, bestD = q, d
		}
	}
	return best
}

// freezeOutside pins every movable cell that is neither dirty nor inside a
// window by setting Fixed — the one bit both the legalizer and dp key
// movability on, which turns outside cells into exact blocking obstacles.
// Movable macros are always frozen: window repair never moves macros (a
// macro delta already forces the full-place fallback). Returns the frozen
// cell indices for unfreeze.
func freezeOutside(d *db.Design, dirty map[int]bool, wins []geom.Rect) []int {
	var frozen []int
	for i := range d.Cells {
		c := &d.Cells[i]
		if !c.Movable() {
			continue
		}
		if c.Kind == db.StdCell && (dirty[i] || inAnyWindow(c.Rect(), wins)) {
			continue
		}
		c.Fixed = true
		frozen = append(frozen, i)
	}
	return frozen
}

func unfreeze(d *db.Design, frozen []int) {
	for _, i := range frozen {
		d.Cells[i].Fixed = false
	}
}

func countMovableStd(d *db.Design) int {
	n := 0
	for i := range d.Cells {
		if c := &d.Cells[i]; c.Movable() && c.Kind == db.StdCell {
			n++
		}
	}
	return n
}
