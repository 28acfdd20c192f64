package dp

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/bookshelf"
	"repro/internal/db"
	"repro/internal/estimate"
	"repro/internal/gen"
	"repro/internal/legal"
	"repro/internal/route"
)

// legalSbA is the suite's sb-a design (2,038 cells, macros, 4 fences)
// scattered and legalized: a start state with every swap class and fence
// interaction detailed placement meets in the full flow.
func legalSbA(t *testing.T, workers int) *db.Design {
	t.Helper()
	d := scattered(gen.Suite()[0])
	if _, err := legal.LegalizeCellsOpt(d, legal.Options{Workers: workers}); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestOptimizePinnedSbA pins detailed placement's exact outcome — move
// and trial counts and the .pl digest — on fenced sb-a, with and without
// the live estimator guard, at one and two workers. The values were taken
// before the swap scan was bucketed by class and the fence test flattened;
// both are pure speedups, so any drift here is a behavior change.
func TestOptimizePinnedSbA(t *testing.T) {
	cases := []struct {
		name   string
		guard  string // "", "static" congestion map or live "estimate"
		want   Result
		wantPl string
	}{
		{"hpwl", "", Result{Swaps: 1385, Reorders: 1123, Shifts: 339, Trials: 102049}, "e93729a654d8c680"},
		{"static", "static", Result{Swaps: 1391, Reorders: 1117, Shifts: 344, Trials: 102069}, "16c3aeb6cfcc1898"},
		{"estimate", "estimate", Result{Swaps: 1388, Reorders: 1112, Shifts: 336, Trials: 102163}, "089f4885416dbd50"},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 2} {
			d := legalSbA(t, workers)
			opt := Options{Workers: workers}
			switch tc.guard {
			case "static":
				congestionFor(d, &opt)
			case "estimate":
				g, err := route.NewGrid(d)
				if err != nil {
					t.Fatal(err)
				}
				opt.Estimate = estimate.New(g, estimate.Options{Workers: workers})
			}
			res := Optimize(d, opt)
			var buf bytes.Buffer
			if err := bookshelf.WritePl(&buf, d); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			got := Result{Swaps: res.Swaps, Reorders: res.Reorders, Shifts: res.Shifts, Trials: res.Trials}
			if pl := hex.EncodeToString(sum[:8]); got != tc.want || pl != tc.wantPl {
				t.Errorf("%s workers=%d: got %+v pl %s, want %+v pl %s",
					tc.name, workers, got, pl, tc.want, tc.wantPl)
			}
		}
	}
}
