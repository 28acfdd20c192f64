package db

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// bruteOverlaps is the O(n²) definition OverlapViolations must match:
// every pair of non-terminal, positive-area cells whose footprints share
// positive area counts once.
func bruteOverlaps(d *Design) int {
	count := 0
	for i := range d.Cells {
		ci := &d.Cells[i]
		if ci.Kind == Terminal || ci.Area() == 0 {
			continue
		}
		for j := i + 1; j < len(d.Cells); j++ {
			cj := &d.Cells[j]
			if cj.Kind == Terminal || cj.Area() == 0 {
				continue
			}
			if ci.Rect().Overlaps(cj.Rect()) {
				count++
			}
		}
	}
	return count
}

// randomLayout drops cells on a coarse integer grid so that touching
// edges (left/right and top/bottom) are common: one-row std cells,
// multi-row macros (some rotated, some fixed), zero-width and
// zero-height cells, and terminals with and without a footprint.
func randomLayout(rng *rand.Rand, n int) *Design {
	const die = 24
	b := NewBuilder("ov-rand", geom.NewRect(0, 0, die, die))
	b.MakeRows(2, 1)
	for k := 0; k < n; k++ {
		name := fmt.Sprintf("c%d", k)
		var ci int
		switch r := rng.Intn(10); {
		case r < 5:
			ci = b.AddStdCell(name, float64(rng.Intn(5)), 2)
		case r < 7:
			ci = b.AddMacro(name, float64(2+rng.Intn(6)), float64(2*(1+rng.Intn(3))), rng.Intn(2) == 0)
		case r < 8:
			// Degenerate footprints: zero width or zero height.
			if rng.Intn(2) == 0 {
				ci = b.AddStdCell(name, 0, 2)
			} else {
				ci = b.AddStdCell(name, 3, 0)
			}
		default:
			ci = b.AddTerminal(name, geom.Point{})
			if rng.Intn(2) == 0 {
				b.d.Cells[ci].BaseW, b.d.Cells[ci].BaseH = 3, 3
			}
		}
		b.SetCellPos(ci, geom.Point{X: float64(rng.Intn(die)), Y: float64(2 * rng.Intn(die/2))})
		if rng.Intn(4) == 0 {
			b.d.Cells[ci].Orient = E // rotated: W and H swap
		}
	}
	return b.MustDesign()
}

// TestOverlapViolationsMatchesBruteForce pins the sweep (slice active set,
// y pre-check before the area test) to the pairwise definition on random
// layouts dense enough to produce many overlaps and many exact touches.
func TestOverlapViolationsMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	total := 0
	for trial := 0; trial < 300; trial++ {
		d := randomLayout(rng, 10+rng.Intn(50))
		want := bruteOverlaps(d)
		if got := d.OverlapViolations(); got != want {
			t.Fatalf("trial %d: OverlapViolations = %d, brute force %d", trial, got, want)
		}
		total += want
	}
	if total == 0 {
		t.Fatal("random layouts produced no overlaps; the test checks nothing")
	}

	// Far out, Lo.X + W rounds back to Lo.X, so a cell's close event sorts
	// before its own open: the sweep must neither panic nor miscount.
	far := randomLayout(rng, 20)
	for i := range far.Cells[:5] {
		far.Cells[i].Pos = geom.Point{X: 1e300, Y: 0}
	}
	if got, want := far.OverlapViolations(), bruteOverlaps(far); got != want {
		t.Fatalf("far-out cells: OverlapViolations = %d, brute force %d", got, want)
	}
}
