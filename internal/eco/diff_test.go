package eco

import (
	"reflect"
	"testing"

	"repro/internal/db"
	"repro/internal/geom"
)

// testPair builds a small hand-made base design: four std cells in a row
// structure, one fixed macro, a terminal, and three nets (one of them
// net-weighted). The builder is returned so tests can derive edited
// variants with the same construction path.
func buildBase() *db.Design {
	b := db.NewBuilder("diff-base", geom.NewRect(0, 0, 100, 40))
	b.MakeRows(4, 1)
	a := b.AddStdCell("a", 4, 4)
	c2 := b.AddStdCell("b", 6, 4)
	c3 := b.AddStdCell("c", 4, 4)
	c4 := b.AddStdCell("d", 8, 4)
	m := b.AddMacro("blk", 12, 12, true)
	b.SetCellPos(m, geom.Point{X: 80, Y: 0})
	t0 := b.AddTerminal("pad", geom.Point{X: 0, Y: 40})
	b.AddNet("n1", 1, b.CenterConn(a), b.CenterConn(c2))
	b.AddNet("n2", 2, b.CenterConn(c2), b.CenterConn(c3), b.CenterConn(t0))
	b.AddNet("n3", 1, b.CenterConn(c3), b.CenterConn(c4))
	d := b.MustDesign()
	for i, ci := range []int{a, c2, c3, c4} {
		d.Cells[ci].Pos = geom.Point{X: float64(4 + 10*i), Y: 4}
	}
	return d
}

func TestDiffIdenticalIsEmpty(t *testing.T) {
	base := buildBase()
	next := base.Clone()
	df := DiffDesigns(base, next)
	if !df.Empty() {
		t.Fatalf("identical designs should diff empty, got %+v", df)
	}
	if got := df.ReuseRatio(); got != 1 {
		t.Fatalf("reuse ratio = %v, want 1", got)
	}
	if df.NetsUnchanged != 3 || df.NetsChanged+df.NetsAdded+df.NetsRemoved != 0 {
		t.Fatalf("net counts wrong: %+v", df)
	}
}

// A renamed-but-otherwise-identical cell must classify as removed+added —
// names are the identity — and must do so deterministically.
func TestDiffRenamedIdenticalCell(t *testing.T) {
	base := buildBase()
	next := base.Clone()
	ci := next.CellIndex("c")
	next.Cells[ci].Name = "c_renamed"
	next.InvalidateNameIndex()

	df := DiffDesigns(base, next)
	if len(df.Added) != 1 || next.Cells[df.Added[0]].Name != "c_renamed" {
		t.Fatalf("added = %v, want the renamed cell", df.Added)
	}
	if len(df.RemovedNames) != 1 || df.RemovedNames[0] != "c" {
		t.Fatalf("removed = %v, want [c]", df.RemovedNames)
	}
	// The rename must NOT ripple: n2 and n3 changed membership, but they
	// keep their names, so the neighbors' own pins still map to the same
	// nets and their base positions stay reusable.
	if len(df.Changed) != 0 {
		names := make([]string, 0, len(df.Changed))
		for _, i := range df.Changed {
			names = append(names, next.Cells[i].Name)
		}
		t.Errorf("rename dirtied neighbors %v, want none", names)
	}
	if df.NetsChanged != 2 {
		t.Errorf("NetsChanged = %d, want 2 (n2, n3)", df.NetsChanged)
	}
	if df.MacroDelta {
		t.Error("std-cell rename must not set MacroDelta")
	}
	// Determinism: the same inputs produce the identical diff.
	if df2 := DiffDesigns(base, next.Clone()); !reflect.DeepEqual(df, df2) {
		t.Errorf("diff is not deterministic:\n%+v\nvs\n%+v", df, df2)
	}
}

// Removing cells can strand nets at degree 1 or 0; the differ must
// classify without crashing and report the removals.
func TestDiffDegreeZeroNetAfterRemoval(t *testing.T) {
	base := buildBase()

	// Rebuild next without cells a and b: n1 drops to degree 0, n2 to
	// degree 1 (the terminal).
	b := db.NewBuilder("diff-base", geom.NewRect(0, 0, 100, 40))
	b.MakeRows(4, 1)
	c3 := b.AddStdCell("c", 4, 4)
	c4 := b.AddStdCell("d", 8, 4)
	m := b.AddMacro("blk", 12, 12, true)
	b.SetCellPos(m, geom.Point{X: 80, Y: 0})
	t0 := b.AddTerminal("pad", geom.Point{X: 0, Y: 40})
	b.AddNet("n1", 1)
	b.AddNet("n2", 2, b.CenterConn(t0))
	b.AddNet("n3", 1, b.CenterConn(c3), b.CenterConn(c4))
	next := b.MustDesign()

	df := DiffDesigns(base, next)
	if got := df.RemovedNames; len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("removed = %v, want [a b]", got)
	}
	if len(df.RemovedRects) != 2 {
		t.Fatalf("removed rects = %v", df.RemovedRects)
	}
	// c and d keep identical connectivity (n3 untouched, and c lost
	// nothing — its pins are on n2? no: c is on n2 and n3; n2 changed).
	if len(df.Added) != 0 {
		t.Errorf("added = %v, want none", df.Added)
	}
	if df.NetsChanged == 0 {
		t.Errorf("expected changed nets, got %+v", df)
	}
}

// Macro add/remove is beyond window repair: the diff must flag it and
// NeedFull must force the full-place fallback regardless of size.
func TestDiffMacroDeltaForcesFull(t *testing.T) {
	base := buildBase()

	next := base.Clone()
	next.Cells = append(next.Cells, db.Cell{
		Name: "blk2", Kind: db.Macro, BaseW: 10, BaseH: 10,
		Region: db.NoRegion, Module: db.NoModule, Inflate: 1,
	})
	next.InvalidateNameIndex()
	df := DiffDesigns(base, next)
	if !df.MacroDelta {
		t.Fatal("macro addition must set MacroDelta")
	}
	if !df.NeedFull() {
		t.Fatal("macro addition must force NeedFull")
	}
	if _, err := Place(next, df, FromDesign(base), Options{}); err != ErrNeedFull {
		t.Fatalf("Place = %v, want ErrNeedFull", err)
	}

	// Macro removal, same story.
	df2 := DiffDesigns(next, base)
	if !df2.MacroDelta || !df2.NeedFull() {
		t.Fatalf("macro removal must force full place: %+v", df2)
	}
}

func TestDiffDirtyFractionForcesFull(t *testing.T) {
	base := buildBase()
	next := base.Clone()
	// Rewire every cell: move the n1 pins to n3.
	for _, pi := range append([]int(nil), next.Nets[0].Pins...) {
		next.Nets[0].Pins = next.Nets[0].Pins[1:]
		next.Pins[pi].Net = 2
		next.Nets[2].Pins = append(next.Nets[2].Pins, pi)
	}
	df := DiffDesigns(base, next)
	if df.Empty() {
		t.Fatal("rewire must not be empty")
	}
	if !df.NeedFull() {
		t.Fatalf("dirty fraction %d/%d should exceed 0.25", df.DirtyCount(), len(next.Cells))
	}
}

// Moving a fixed object is a problem-statement change: same connectivity,
// but the cell must classify as changed so its surroundings get repaired.
func TestDiffMovedFixedCell(t *testing.T) {
	base := buildBase()
	next := base.Clone()
	mi := next.CellIndex("blk")
	next.Cells[mi].Pos = geom.Point{X: 60, Y: 20}
	df := DiffDesigns(base, next)
	found := false
	for _, i := range df.Changed {
		if next.Cells[i].Name == "blk" {
			found = true
		}
	}
	if !found {
		t.Fatalf("moved fixed macro must be in Changed: %+v", df)
	}
	if !df.MacroDelta {
		t.Fatal("moved macro must set MacroDelta")
	}
}

// Net names must not matter (mirroring the canonical fingerprint): a
// renamed net diffs empty.
func TestDiffNetRenameIgnored(t *testing.T) {
	base := buildBase()
	next := base.Clone()
	next.Nets[1].Name = "renamed_net"
	df := DiffDesigns(base, next)
	if !df.Empty() {
		t.Fatalf("net rename must diff empty, got %+v", df)
	}
}

func TestDiffPlacementNamePresence(t *testing.T) {
	base := buildBase()
	pl := FromDesign(base)

	next := base.Clone()
	ci := next.CellIndex("d")
	next.Cells[ci].Name = "d2"
	next.InvalidateNameIndex()

	df := DiffPlacement(next, pl)
	if len(df.Added) != 1 || next.Cells[df.Added[0]].Name != "d2" {
		t.Fatalf("added = %v", df.Added)
	}
	if len(df.RemovedNames) != 1 || df.RemovedNames[0] != "d" {
		t.Fatalf("removed = %v", df.RemovedNames)
	}
	// Placement-only removals carry point seeds at the recorded position.
	if r := df.RemovedRects[0]; r.W() != 0 || r.H() != 0 {
		t.Fatalf("placement-only removal rect should be a point, got %v", r)
	}
	if len(df.Unchanged) != len(next.Cells)-1 {
		t.Fatalf("unchanged = %d, want %d", len(df.Unchanged), len(next.Cells)-1)
	}
}
