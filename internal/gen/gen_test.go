package gen

import (
	"encoding/hex"
	"fmt"
	"testing"
	"time"

	"repro/internal/bookshelf"
	"repro/internal/db"
)

func small() Config {
	return Config{
		Name: "t", Seed: 42,
		NumStdCells: 300, NumFixedMacros: 3, NumMovableMacros: 2,
		MacroSizeRows: 5, NumModules: 4, NumFences: 2, NumTerminals: 12,
		TargetUtil: 0.6,
	}
}

func TestGenerateValidDesign(t *testing.T) {
	d, err := Generate(small())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("generated design invalid: %v", err)
	}
	s := d.ComputeStats()
	if s.NumStdCells != 300 {
		t.Errorf("std cells = %d", s.NumStdCells)
	}
	if s.NumMacros != 5 {
		t.Errorf("macros = %d", s.NumMacros)
	}
	if s.NumTerms != 12 {
		t.Errorf("terminals = %d", s.NumTerms)
	}
	if s.NumRegions != 2 {
		t.Errorf("fences = %d (fence carving failed)", s.NumRegions)
	}
	if s.NumModules != 5 { // root + 4
		t.Errorf("modules = %d", s.NumModules)
	}
	if s.NumNets == 0 || s.AvgDegree < 2 {
		t.Errorf("connectivity degenerate: %+v", s)
	}
}

func TestUtilizationNearTarget(t *testing.T) {
	d := MustGenerate(small())
	u := d.Utilization()
	if u < 0.4 || u > 0.75 {
		t.Errorf("utilization %v too far from target 0.6", u)
	}
}

func TestDeterminism(t *testing.T) {
	a := MustGenerate(small())
	b := MustGenerate(small())
	if len(a.Cells) != len(b.Cells) || len(a.Nets) != len(b.Nets) || len(a.Pins) != len(b.Pins) {
		t.Fatal("sizes differ between identical configs")
	}
	for i := range a.Cells {
		if a.Cells[i].Pos != b.Cells[i].Pos || a.Cells[i].BaseW != b.Cells[i].BaseW {
			t.Fatalf("cell %d differs between runs", i)
		}
	}
	for i := range a.Nets {
		if len(a.Nets[i].Pins) != len(b.Nets[i].Pins) {
			t.Fatalf("net %d differs between runs", i)
		}
	}
	c := small()
	c.Seed = 43
	d2 := MustGenerate(c)
	same := true
	for i := range a.Cells {
		if a.Cells[i].Pos != d2.Cells[i].Pos {
			same = false
			break
		}
	}
	if same && len(a.Cells) == len(d2.Cells) {
		t.Error("different seeds produced identical placements")
	}
}

func TestFixedMacrosDoNotOverlap(t *testing.T) {
	cfg := small()
	cfg.NumFixedMacros = 6
	d := MustGenerate(cfg)
	var rects []int
	for i := range d.Cells {
		if d.Cells[i].Kind == db.Macro && d.Cells[i].Fixed {
			rects = append(rects, i)
		}
	}
	if len(rects) != 6 {
		t.Fatalf("expected 6 fixed macros, got %d", len(rects))
	}
	for i := 0; i < len(rects); i++ {
		for j := i + 1; j < len(rects); j++ {
			ri, rj := d.Cells[rects[i]].Rect(), d.Cells[rects[j]].Rect()
			if ri.Overlaps(rj) {
				t.Errorf("fixed macros %d and %d overlap: %v %v", i, j, ri, rj)
			}
		}
	}
	for _, ci := range rects {
		if !d.Die.ContainsRect(d.Cells[ci].Rect()) {
			t.Errorf("fixed macro %q outside die", d.Cells[ci].Name)
		}
	}
}

func TestFencesAvoidFixedMacros(t *testing.T) {
	d := MustGenerate(small())
	for ri := range d.Regions {
		for _, fr := range d.Regions[ri].Rects {
			for ci := range d.Cells {
				c := &d.Cells[ci]
				if c.Kind == db.Macro && c.Fixed && c.Rect().Overlaps(fr) {
					t.Errorf("fence %s overlaps fixed macro %s", d.Regions[ri].Name, c.Name)
				}
			}
		}
	}
}

func TestFencedModulesHaveCells(t *testing.T) {
	d := MustGenerate(small())
	fenced := 0
	for ci := range d.Cells {
		if d.Cells[ci].Movable() && d.CellRegion(ci) != db.NoRegion {
			fenced++
		}
	}
	if fenced == 0 {
		t.Error("no movable cell is fence-constrained; hierarchy wiring broken")
	}
}

func TestRouteGridPresent(t *testing.T) {
	d := MustGenerate(small())
	if d.Route == nil {
		t.Fatal("no route info")
	}
	r := d.Route
	if r.GridX < 4 || r.GridY < 4 || r.Layers != 2 {
		t.Errorf("grid %dx%dx%d degenerate", r.GridX, r.GridY, r.Layers)
	}
	if len(r.Blockages) != 3 {
		t.Errorf("expected 3 macro blockages, got %d", len(r.Blockages))
	}
	if r.HorizCap[0] <= 0 || r.VertCap[1] <= 0 {
		t.Errorf("capacities wrong: H=%v V=%v", r.HorizCap, r.VertCap)
	}
}

func TestMovablesStartInsideDie(t *testing.T) {
	d := MustGenerate(small())
	for _, ci := range d.Movable() {
		if !d.Die.Contains(d.Cells[ci].Center()) {
			t.Errorf("cell %q starts outside die", d.Cells[ci].Name)
		}
	}
}

func TestGeneratedDesignSurvivesBookshelfRoundTrip(t *testing.T) {
	d := MustGenerate(small())
	dir := t.TempDir()
	aux, err := bookshelf.WriteDesign(d, dir)
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := bookshelf.ReadDesign(aux)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if len(got.Cells) != len(d.Cells) || len(got.Nets) != len(d.Nets) {
		t.Fatal("round trip changed design size")
	}
	if got.HPWL() != d.HPWL() {
		t.Errorf("HPWL changed: %v -> %v", d.HPWL(), got.HPWL())
	}
	if got.ComputeStats().NumRegions != d.ComputeStats().NumRegions {
		t.Error("fences lost in round trip")
	}
}

func TestSuiteConfigs(t *testing.T) {
	suite := Suite()
	if len(suite) != 5 {
		t.Fatalf("suite size = %d", len(suite))
	}
	seen := map[string]bool{}
	for _, cfg := range suite {
		if seen[cfg.Name] {
			t.Errorf("duplicate suite name %q", cfg.Name)
		}
		seen[cfg.Name] = true
	}
	// Sizes must increase.
	for i := 1; i < len(suite); i++ {
		if suite[i].NumStdCells <= suite[i-1].NumStdCells {
			t.Errorf("suite sizes not increasing at %d", i)
		}
	}
	// Small suite must generate valid designs quickly.
	for _, cfg := range SmallSuite() {
		d, err := Generate(cfg)
		if err != nil {
			t.Errorf("SmallSuite %s: %v", cfg.Name, err)
			continue
		}
		if err := d.Validate(); err != nil {
			t.Errorf("SmallSuite %s invalid: %v", cfg.Name, err)
		}
	}
}

func TestCongestedConfig(t *testing.T) {
	d := MustGenerate(Congested(500, 7))
	if d.Utilization() < 0.5 {
		t.Errorf("congested design utilization %v too low", d.Utilization())
	}
	if d.Route.HorizCap[0] >= 40 {
		t.Error("congested design should have reduced capacity")
	}
}

func TestDefaultsApplied(t *testing.T) {
	d, err := Generate(Config{Seed: 1})
	if err != nil {
		t.Fatalf("defaults: %v", err)
	}
	if len(d.Cells) == 0 || len(d.Rows) == 0 || d.Route == nil {
		t.Error("defaulted config produced degenerate design")
	}
}

// generateWithin runs Generate on its own goroutine and fails the test if
// it has not returned by the deadline (a spinning member-draw loop would
// otherwise hang the whole test binary).
func generateWithin(t *testing.T, cfg Config, deadline time.Duration) (*db.Design, error) {
	t.Helper()
	type result struct {
		d   *db.Design
		err error
	}
	done := make(chan result, 1)
	go func() {
		d, err := Generate(cfg)
		done <- result{d, err}
	}()
	select {
	case r := <-done:
		return r.d, r.err
	case <-time.After(deadline):
		t.Fatalf("Generate(%s, %d cells, seed %d) did not return within %v", cfg.Name, cfg.NumStdCells, cfg.Seed, deadline)
		return nil, nil
	}
}

// TestCongestedSmallTerminates: Congested(400, 1) draws local nets whose
// degree exceeds the cells inside the index window near the ends of the
// cell list; the draw must clamp rather than spin.
func TestCongestedSmallTerminates(t *testing.T) {
	d, err := generateWithin(t, Congested(400, 1), 10*time.Second)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("generated design invalid: %v", err)
	}
}

// TestUnwireableConfigErrors: one standard cell and no terminals cannot
// form any 2-pin net, so generation must fail instead of looping.
func TestUnwireableConfigErrors(t *testing.T) {
	if _, err := generateWithin(t, Config{NumStdCells: 1}, 10*time.Second); err == nil {
		t.Fatal("Generate with one cell and no terminals succeeded, want an error")
	}
	if _, err := generateWithin(t, Config{NumStdCells: 1, NumTerminals: 2}, 10*time.Second); err != nil {
		t.Fatalf("one cell with terminals: %v", err)
	}
}

// TestGeneratedFingerprintsPinned pins the canonical fingerprint of every
// design the benchmarks, tests and placerd generate: a change to the
// generator that moves any of them changes every downstream number.
func TestGeneratedFingerprintsPinned(t *testing.T) {
	want := map[string]string{
		"sb-a/2000":      "a765bb06e05e90033ee136d04454e472634c80970a2a574841dacf745e8e7947",
		"sb-b/5000":      "e1c5c07428fe1d3d1a7fc177e1c37bcd9fd1b484ff4a58a0bf5a3964cbcedd65",
		"sb-c/10000":     "e37cad80cbfce5f76d1a3fa9884b5df5ec74a4043b3da733b707dcdd350d7a1c",
		"sb-d/20000":     "16102658c7719950a622d0b98df5be6f53e8e018711207eb48c88a431c8cc74a",
		"sb-e/40000":     "c131e3eba4bbe6ffed7812a726125ca50f816e94e9b58eae1d4b44a067c8098f",
		"sb-a/200":       "9f6a762f939a789227099e4e221041c8dd43697663716b23e03571121b411a54",
		"sb-b/500":       "36bda1144993cff15275d41e75deade860bc7ca6e8df0afaec9cab6d8d9968f0",
		"sb-c/1000":      "220a6fb894c2817b79e5766802a8815b8a076f357d88c39967b4beb8369ee42e",
		"congested/3000": "b4415353a11094855045ce2c5c73dcc98738d956d02d328701e4f63b92691799",
		"congested/2000": "a29de7d152f8b9a27ebede2bc7e222d10d2d4f89a6a6272fed7ee5609c738247",
	}
	cfgs := append(Suite(), SmallSuite()...)
	cfgs = append(cfgs, Congested(3000, 7), Congested(2000, 1))
	for _, cfg := range cfgs {
		key := fmt.Sprintf("%s/%d", cfg.Name, cfg.NumStdCells)
		fp := MustGenerate(cfg).Fingerprint()
		if got := hex.EncodeToString(fp[:]); got != want[key] {
			t.Errorf("%s fingerprint = %s, want %s", key, got, want[key])
		}
	}
}
