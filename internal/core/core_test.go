package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/db"
	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/route"
)

func smallCfg() gen.Config {
	return gen.Config{
		Name: "core-t", Seed: 77,
		NumStdCells: 250, NumFixedMacros: 2, NumMovableMacros: 1,
		MacroSizeRows: 4, NumModules: 3, NumFences: 2, NumTerminals: 12,
		TargetUtil: 0.55,
	}
}

func TestPlaceFullFlow(t *testing.T) {
	d := gen.MustGenerate(smallCfg())
	pl := MustNew(Config{})
	res, err := pl.Place(d)
	if err != nil {
		t.Fatalf("Place: %v", err)
	}
	if res.HPWLFinal <= 0 {
		t.Fatal("zero final HPWL")
	}
	if res.Overlaps != 0 {
		t.Errorf("final placement has %d overlaps", res.Overlaps)
	}
	if res.OutOfDie != 0 {
		t.Errorf("%d cells out of die", res.OutOfDie)
	}
	if res.FenceViolations != 0 {
		t.Errorf("%d fence violations", res.FenceViolations)
	}
	if res.Legal.Fallbacks != 0 {
		t.Errorf("%d legalization fallbacks", res.Legal.Fallbacks)
	}
	if res.Levels < 1 || res.CGIters == 0 {
		t.Errorf("GP did not run: %+v", res)
	}
	// GP must actually spread cells: overflow below stop threshold.
	if res.Overflow > 0.25 {
		t.Errorf("GP overflow still %v", res.Overflow)
	}
	// Detailed placement must not worsen wirelength.
	if res.HPWLFinal > res.HPWLLegal+1e-6 {
		t.Errorf("DP worsened HPWL: %v -> %v", res.HPWLLegal, res.HPWLFinal)
	}
}

func TestPlaceSpreadsBetterThanStart(t *testing.T) {
	d := gen.MustGenerate(smallCfg())
	// All movables start clumped at the center; after placement the
	// spread (stddev of centers) must be much larger.
	pl := MustNew(Config{DisableRoutability: true})
	if _, err := pl.Place(d); err != nil {
		t.Fatal(err)
	}
	var sx, sy, n float64
	for _, ci := range d.Movable() {
		c := d.Cells[ci].Center()
		sx += c.X
		sy += c.Y
		n++
	}
	mx, my := sx/n, sy/n
	var varSum float64
	for _, ci := range d.Movable() {
		c := d.Cells[ci].Center()
		varSum += (c.X-mx)*(c.X-mx) + (c.Y-my)*(c.Y-my)
	}
	spread := math.Sqrt(varSum / n)
	if spread < d.Die.W()/8 {
		t.Errorf("placement spread %v too small for die %v", spread, d.Die)
	}
}

func TestLSEModelRuns(t *testing.T) {
	d := gen.MustGenerate(smallCfg())
	pl := MustNew(Config{Model: "lse", DisableRoutability: true})
	res, err := pl.Place(d)
	if err != nil {
		t.Fatal(err)
	}
	if res.Overlaps != 0 || res.HPWLFinal <= 0 {
		t.Errorf("LSE flow broken: %+v", res)
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	if _, err := New(Config{Model: "bogus"}); err == nil {
		t.Error("bogus model accepted")
	}
	if _, err := New(Config{TargetDensity: 1.5}); err == nil {
		t.Error("bad target density accepted")
	}
	for _, w := range []int{-1, MaxWorkers + 1, 1 << 30} {
		if _, err := New(Config{Workers: w}); err == nil {
			t.Errorf("workers %d accepted", w)
		}
	}
	if _, err := New(Config{Workers: MaxWorkers}); err != nil {
		t.Errorf("workers %d rejected: %v", MaxWorkers, err)
	}
}

func TestEmptyDesignRejected(t *testing.T) {
	pl := MustNew(Config{})
	if _, err := pl.Place(&db.Design{Die: geom.NewRect(0, 0, 10, 10)}); err == nil {
		t.Error("empty design accepted")
	}
}

func TestRoutabilityLoopRunsAndRecords(t *testing.T) {
	d := gen.MustGenerate(gen.Congested(400, 3))
	pl := MustNew(Config{RoutabilityIters: 3})
	res, err := pl.Place(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cong) < 2 {
		t.Fatalf("routability loop recorded %d stats", len(res.Cong))
	}
	first := res.Cong[0]
	if first.Inflated == 0 {
		t.Skip("design not congested enough to trigger inflation")
	}
	for i, c := range res.Cong {
		if len(c.ACE) != len(route.ACEPercentiles) {
			t.Fatalf("iteration %d: ACE profile size %d", i, len(c.ACE))
		}
		for _, v := range c.ACE {
			if math.IsNaN(v) || v < 0 {
				t.Fatalf("iteration %d: bad ACE value %v", i, v)
			}
		}
	}
	// The loop must respect the wirelength budget: the relieved placement
	// cannot cost more than ~15% HPWL over the blind GP result (the guard
	// in routabilityLoop), so downstream HPWL stays sane.
	if res.HPWLGlobal <= 0 {
		t.Error("missing GP HPWL")
	}
	// Some inflation must survive into cell records.
	inflatedCells := 0
	for i := range d.Cells {
		if d.Cells[i].Inflate > 1 {
			inflatedCells++
		}
	}
	if inflatedCells == 0 {
		t.Error("no cell retained an inflation ratio")
	}
}

func TestRoutabilityImprovesRoutedCongestion(t *testing.T) {
	// The headline claim (experiment T2 shape): over a set of congested
	// designs, routability-driven placement yields lower routed RC and
	// lower scaled HPWL than the wirelength-driven baseline (tight target
	// density, no congestion feedback) in geometric mean — matching how
	// the paper family reports aggregate wins. Individual designs may go
	// either way; the aggregate must not.
	if testing.Short() {
		t.Skip("multi-seed placement comparison is slow")
	}
	seeds := []int64{3, 5, 7}
	var rcOn, rcOff, shOn, shOff []float64
	for _, seed := range seeds {
		base := gen.Congested(1200, seed)

		dOn := gen.MustGenerate(base)
		if _, err := MustNew(Config{RoutabilityIters: 3}).Place(dOn); err != nil {
			t.Fatal(err)
		}
		mOn, err := route.EvaluateDesign(dOn, route.RouterOptions{})
		if err != nil {
			t.Fatal(err)
		}

		dOff := gen.MustGenerate(base)
		if _, err := MustNew(Config{
			DisableRoutability: true, TargetDensity: 1.0,
		}).Place(dOff); err != nil {
			t.Fatal(err)
		}
		mOff, err := route.EvaluateDesign(dOff, route.RouterOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("seed %d: on  %s", seed, mOn)
		t.Logf("seed %d: off %s", seed, mOff)
		rcOn = append(rcOn, mOn.RC)
		rcOff = append(rcOff, mOff.RC)
		shOn = append(shOn, mOn.ScaledHPWL)
		shOff = append(shOff, mOff.ScaledHPWL)
	}
	if gm(rcOn) >= gm(rcOff) {
		t.Errorf("geomean RC: routability-driven %.1f not better than blind %.1f", gm(rcOn), gm(rcOff))
	}
	if gm(shOn) >= gm(shOff) {
		t.Errorf("geomean sHPWL: routability-driven %.4g not better than blind %.4g", gm(shOn), gm(shOff))
	}
}

// gm is the geometric mean.
func gm(vals []float64) float64 {
	var s float64
	for _, v := range vals {
		s += math.Log(v)
	}
	return math.Exp(s / float64(len(vals)))
}

func TestFenceAwareVsFlat(t *testing.T) {
	cfg := smallCfg()
	dFence := gen.MustGenerate(cfg)
	if _, err := MustNew(Config{DisableRoutability: true}).Place(dFence); err != nil {
		t.Fatal(err)
	}
	if dFence.FenceViolations() != 0 {
		t.Errorf("fence-aware flow violated fences: %d", dFence.FenceViolations())
	}

	dFlat := gen.MustGenerate(cfg)
	if _, err := MustNew(Config{DisableRoutability: true, DisableFences: true}).Place(dFlat); err != nil {
		t.Fatal(err)
	}
	// The flat flow ignores fences entirely (violations are expected and
	// not counted because constraints were stripped); its HPWL should be
	// no worse than the constrained flow's.
	if dFlat.HPWL() > dFence.HPWL()*1.3 {
		t.Errorf("flat HPWL %v unexpectedly much worse than fenced %v", dFlat.HPWL(), dFence.HPWL())
	}
}

func TestSingleLevelMatchesQuality(t *testing.T) {
	cfg := smallCfg()
	dML := gen.MustGenerate(cfg)
	resML, err := MustNew(Config{DisableRoutability: true}).Place(dML)
	if err != nil {
		t.Fatal(err)
	}
	dSL := gen.MustGenerate(cfg)
	resSL, err := MustNew(Config{DisableRoutability: true, DisableMultilevel: true}).Place(dSL)
	if err != nil {
		t.Fatal(err)
	}
	if resML.Levels < 2 {
		t.Skip("design too small to coarsen")
	}
	if resSL.Levels != 1 {
		t.Errorf("single-level used %d levels", resSL.Levels)
	}
	// Both must be legal; quality within a loose band of each other.
	if resSL.Overlaps != 0 || resML.Overlaps != 0 {
		t.Error("overlaps in one of the variants")
	}
	ratio := resML.HPWLFinal / resSL.HPWLFinal
	if ratio > 1.6 || ratio < 1/1.6 {
		t.Errorf("multilevel/single-level HPWL ratio %v implausible", ratio)
	}
}

func TestTraceRecorded(t *testing.T) {
	d := gen.MustGenerate(smallCfg())
	tr := &Trace{}
	pl := MustNew(Config{DisableRoutability: true, Trace: tr})
	if _, err := pl.Place(d); err != nil {
		t.Fatal(err)
	}
	if len(tr.Iter) == 0 {
		t.Fatal("no trace samples")
	}
	if len(tr.Iter) != len(tr.Objective) || len(tr.Iter) != len(tr.HPWL) || len(tr.Iter) != len(tr.LambdaRound) {
		t.Fatal("trace arrays out of sync")
	}
	// HPWL samples must be positive and finite.
	for i, h := range tr.HPWL {
		if h <= 0 || math.IsNaN(h) || math.IsInf(h, 0) {
			t.Fatalf("trace HPWL[%d] = %v", i, h)
		}
	}
}

func TestOrientMacrosImprovesOrKeeps(t *testing.T) {
	b := db.NewBuilder("om", geom.NewRect(0, 0, 100, 100))
	tl := b.AddTerminal("t", geom.Point{X: 0, Y: 0})
	m := b.AddMacro("m", 20, 10, false)
	// Pin at the far corner of the macro in N orientation.
	b.AddNet("n", 1, db.Conn{Cell: tl}, db.Conn{Cell: m, Offset: geom.Point{X: 20, Y: 10}})
	b.MakeRows(10, 1)
	d := b.MustDesign()
	d.Cells[m].Pos = geom.Point{X: 50, Y: 50}
	before := d.HPWL()
	orientMacros(d)
	after := d.HPWL()
	if after > before {
		t.Errorf("orientation worsened HPWL: %v -> %v", before, after)
	}
	// Rotating 180° (S) brings the pin to the macro's lower-left, much
	// closer to the terminal.
	if d.Cells[m].Orient == db.N {
		t.Error("expected a non-identity orientation")
	}
}

func TestPlacePreservesNetlist(t *testing.T) {
	d := gen.MustGenerate(smallCfg())
	nets, pins, cells := len(d.Nets), len(d.Pins), len(d.Cells)
	if _, err := MustNew(Config{DisableRoutability: true}).Place(d); err != nil {
		t.Fatal(err)
	}
	if len(d.Nets) != nets || len(d.Pins) != pins || len(d.Cells) != cells {
		t.Error("placement changed netlist structure")
	}
	if err := d.Validate(); err != nil {
		t.Errorf("design invalid after placement: %v", err)
	}
}

func TestChannelDerateKeepsCellsOutOfChannels(t *testing.T) {
	// Two big fixed macros with a 3-row channel between them: with
	// derating on, fewer cells should settle in the channel.
	build := func() *db.Design {
		b := db.NewBuilder("chan", geom.NewRect(0, 0, 300, 300))
		b.MakeRows(12, 1)
		m1 := b.AddMacro("m1", 120, 120, true)
		m2 := b.AddMacro("m2", 120, 120, true)
		b.SetCellPos(m1, geom.Point{X: 20, Y: 84})
		b.SetCellPos(m2, geom.Point{X: 176, Y: 84})
		var cells []int
		for i := 0; i < 500; i++ {
			cells = append(cells, b.AddStdCell(fmt.Sprintf("c%d", i), 6, 12))
		}
		for i := 0; i+1 < len(cells); i += 2 {
			b.AddNet(fmt.Sprintf("n%d", i), 1, b.CenterConn(cells[i]), b.CenterConn(cells[i+1]))
		}
		d := b.MustDesign()
		for _, ci := range d.Movable() {
			d.Cells[ci].SetCenter(d.Die.Center())
		}
		return d
	}
	channel := geom.NewRect(140, 84, 176, 204)
	inChannel := func(d *db.Design) int {
		n := 0
		for _, ci := range d.Movable() {
			if channel.Overlaps(d.Cells[ci].Rect()) {
				n++
			}
		}
		return n
	}
	dOn := build()
	if _, err := MustNew(Config{DisableRoutability: true, EnableChannelDerate: true}).Place(dOn); err != nil {
		t.Fatal(err)
	}
	dOff := build()
	if _, err := MustNew(Config{DisableRoutability: true}).Place(dOff); err != nil {
		t.Fatal(err)
	}
	on, off := inChannel(dOn), inChannel(dOff)
	t.Logf("channel occupancy: derate-on=%d derate-off=%d", on, off)
	if on > off {
		t.Errorf("channel derating increased channel occupancy: %d > %d", on, off)
	}
}
