package eco

import (
	"bytes"
	"testing"

	"repro/internal/bookshelf"
	"repro/internal/db"
	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/legal"
)

// testConfig is the pinned synthetic design the repair tests run on: no
// movable macros (window repair freezes them anyway) and moderate
// utilization so legalization always converges from a centered start.
func testConfig() gen.Config {
	return gen.Config{
		Name: "eco-t", Seed: 7,
		NumStdCells: 300, NumFixedMacros: 2, NumMovableMacros: 0,
		MacroSizeRows: 4, NumModules: 3, NumFences: 2, NumTerminals: 16,
		TargetUtil: 0.6, LocalityWindow: 0.05, GlobalFrac: 0.1, TrackCapacity: 40,
	}
}

// placedBase generates the design and produces a legal "previous run"
// placement with the real legalizer (global placement is irrelevant to the
// repair contract, and skipping it keeps the test fast).
func placedBase(t *testing.T) *db.Design {
	t.Helper()
	d := gen.MustGenerate(testConfig())
	if _, err := legal.LegalizeCellsOpt(d, legal.Options{}); err != nil {
		t.Fatalf("base legalize: %v", err)
	}
	return d
}

func plBytes(t *testing.T, d *db.Design) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := bookshelf.WritePl(&buf, d); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// An empty diff must reproduce the base .pl byte-for-byte at every worker
// count — the differential determinism contract of the ECO path.
func TestEmptyDiffReproducesBasePl(t *testing.T) {
	base := placedBase(t)
	basePl := FromDesign(base)
	want := plBytes(t, base)

	for _, workers := range []int{1, 2, 8} {
		// A freshly "reloaded" copy with unplaced input positions.
		next := gen.MustGenerate(testConfig())
		df := DiffDesigns(base, next)
		if !df.Empty() {
			t.Fatalf("same generator output should diff empty, got %+v", df)
		}
		res, err := Place(next, df, basePl, Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.ReuseRatio != 1 {
			t.Errorf("workers=%d: reuse ratio = %v, want 1", workers, res.ReuseRatio)
		}
		if len(res.Windows) != 0 {
			t.Errorf("workers=%d: empty diff produced windows %v", workers, res.Windows)
		}
		if got := plBytes(t, next); !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: empty-diff ECO .pl differs from base", workers)
		}
	}
}

// A small delta must come back legal (no overlaps, no fence violations,
// nothing outside the die), reuse most of the base, and produce a
// byte-identical .pl for every worker count.
func TestWindowRepairSmallDelta(t *testing.T) {
	base := placedBase(t)
	basePl := FromDesign(base)
	pert := gen.Perturbation{Seed: 42, RemoveFrac: 0.01, AddFrac: 0.01, RewireFrac: 0.005}

	var want []byte
	for _, workers := range []int{1, 2, 8} {
		next := gen.Perturb(base, pert)
		df := DiffDesigns(base, next)
		if df.Empty() {
			t.Fatal("perturbation produced an empty diff")
		}
		if df.NeedFull() {
			t.Fatalf("small delta should be repairable: dirty %d of %d", df.DirtyCount(), len(next.Cells))
		}
		// MarginRows 2: the default 8-row margin is sized for real
		// designs and would blanket this ~19-row test die.
		res, err := Place(next, df, basePl, Options{Workers: workers, MarginRows: 2})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Overlaps != 0 || res.FenceViolations != 0 || res.OutOfDie != 0 {
			t.Fatalf("workers=%d: illegal repair: overlaps=%d fences=%d outside=%d",
				workers, res.Overlaps, res.FenceViolations, res.OutOfDie)
		}
		if len(res.Windows) == 0 {
			t.Error("expected repair windows")
		}
		if res.ReuseRatio < 0.8 {
			t.Errorf("reuse ratio = %v, want ≥ 0.8", res.ReuseRatio)
		}
		if res.Frozen == 0 {
			t.Error("expected frozen cells outside the windows")
		}
		movable := 0
		for i := range next.Cells {
			if c := &next.Cells[i]; c.Movable() && c.Kind == db.StdCell {
				movable++
			}
		}
		if res.Repaired >= movable {
			t.Errorf("repaired %d of %d movable cells — freeze did not restrict the repair", res.Repaired, movable)
		}
		got := plBytes(t, next)
		if want == nil {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: repaired .pl differs from workers=1", workers)
		}
	}
}

// Cells that start outside every window are frozen and must not move.
// Membership is judged at the base position: a cell inside a packed
// window may legitimately be displaced past the window edge, but a cell
// that began outside must stay exactly where the base put it.
func TestRepairLeavesOutsideCellsUntouched(t *testing.T) {
	base := placedBase(t)
	basePl := FromDesign(base)
	next := gen.Perturb(base, gen.Perturbation{Seed: 9, AddFrac: 0.01})
	df := DiffDesigns(base, next)
	res, err := Place(next, df, basePl, Options{MarginRows: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Frozen == 0 {
		t.Fatal("test design froze no cells — enlarge it")
	}
	outside := 0
	for i := range next.Cells {
		c := &next.Cells[i]
		if !c.Movable() || c.Kind != db.StdCell {
			continue
		}
		cp, ok := basePl.Cells[c.Name]
		if !ok {
			continue // added cell
		}
		baseRect := geom.NewRect(cp.X, cp.Y, cp.X+c.Rect().W(), cp.Y+c.Rect().H())
		if inAnyWindow(baseRect, res.Windows) {
			continue
		}
		if c.Pos.X != cp.X || c.Pos.Y != cp.Y {
			t.Fatalf("outside cell %q moved from (%g,%g) to %v", c.Name, cp.X, cp.Y, c.Pos)
		}
		outside++
	}
	if outside == 0 {
		t.Fatal("test design has no cells outside the windows — enlarge it")
	}
}

// Frozen flags must be restored even when repair succeeds or fails.
func TestFreezeRestored(t *testing.T) {
	base := placedBase(t)
	movableBefore := countMovableStd(base)
	next := gen.Perturb(base, gen.Perturbation{Seed: 3, RemoveFrac: 0.01, AddFrac: 0.01})
	df := DiffDesigns(base, next)
	if _, err := Place(next, df, FromDesign(base), Options{}); err != nil {
		t.Fatal(err)
	}
	if got := countMovableStd(next); got < movableBefore-int(0.02*float64(movableBefore))-2 {
		t.Fatalf("movable std cells after repair = %d, base had %d — freeze leaked", got, movableBefore)
	}
}

func TestReadPlRoundTrip(t *testing.T) {
	base := placedBase(t)
	pl, err := ReadPl(bytes.NewReader(plBytes(t, base)))
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Cells) != len(base.Cells) {
		t.Fatalf("parsed %d cells, want %d", len(pl.Cells), len(base.Cells))
	}
	for i := range base.Cells {
		c := &base.Cells[i]
		cp, ok := pl.Cells[c.Name]
		if !ok {
			t.Fatalf("cell %q missing from parsed placement", c.Name)
		}
		if cp.X != c.Pos.X || cp.Y != c.Pos.Y || cp.Orient != c.Orient || cp.Fixed != c.Fixed {
			t.Fatalf("cell %q: parsed %+v vs design %+v", c.Name, cp, c)
		}
	}
	// And the placement-diff of the same design against it is empty.
	if df := DiffPlacement(base, pl); !df.Empty() {
		t.Fatalf("self-diff not empty: %+v", df)
	}
}

func TestReadPlRejectsGarbage(t *testing.T) {
	for _, in := range []string{"", "not a pl file\nx 1 2\n", "UCLA pl 1.0\n\ncell 1\n"} {
		if _, err := ReadPl(bytes.NewReader([]byte(in))); err == nil {
			t.Errorf("ReadPl(%q) accepted garbage", in)
		}
	}
}
