package wl

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// twoPin builds a single two-pin net between objects 0 and 1.
func twoPin() *Netlist {
	return &Netlist{
		NumObjs: 2,
		Nets: []Net{{
			Weight: 1,
			Pins:   []PinRef{{Obj: 0}, {Obj: 1}},
		}},
	}
}

func TestHPWLTwoPin(t *testing.T) {
	nl := twoPin()
	x := []float64{0, 3}
	y := []float64{0, 4}
	if got := HPWL(nl, x, y); got != 7 {
		t.Errorf("HPWL = %v, want 7", got)
	}
}

func TestHPWLRespectsWeightAndOffsets(t *testing.T) {
	nl := &Netlist{
		NumObjs: 2,
		Nets: []Net{{
			Weight: 2,
			Pins:   []PinRef{{Obj: 0, OffX: 1, OffY: 0}, {Obj: 1, OffX: -1, OffY: 0}},
		}},
	}
	x := []float64{0, 10}
	y := []float64{0, 0}
	// Pin positions: 1 and 9 -> span 8, weight 2 -> 16.
	if got := HPWL(nl, x, y); got != 16 {
		t.Errorf("HPWL = %v, want 16", got)
	}
}

func TestHPWLFixedPins(t *testing.T) {
	nl := &Netlist{
		NumObjs: 1,
		Nets: []Net{{
			Weight: 1,
			Pins:   []PinRef{{Obj: 0}, {Obj: Fixed, OffX: 100, OffY: 50}},
		}},
	}
	x := []float64{10}
	y := []float64{20}
	if got := HPWL(nl, x, y); got != 90+30 {
		t.Errorf("HPWL = %v, want 120", got)
	}
}

func TestDegenerateNetsIgnored(t *testing.T) {
	nl := &Netlist{
		NumObjs: 1,
		Nets:    []Net{{Weight: 1, Pins: []PinRef{{Obj: 0}}}, {Weight: 1}},
	}
	x := []float64{5}
	y := []float64{5}
	if HPWL(nl, x, y) != 0 {
		t.Error("single-pin and empty nets must contribute 0")
	}
	for _, m := range []Model{WA, LSE} {
		if got := value(nl, m, 1, x, y); got != 0 {
			t.Errorf("%s on degenerate nets = %v", m, got)
		}
	}
}

// value evaluates model m with smoothing gamma serially.
func value(nl *Netlist, m Model, gamma float64, x, y []float64) float64 {
	return NewEvaluator(nl, m, gamma, 1).Value(x, y)
}

// randNetlist builds a random netlist over n objects for property tests.
func randNetlist(rng *rand.Rand, n, nets int) (*Netlist, []float64, []float64) {
	nl := &Netlist{NumObjs: n}
	for i := 0; i < nets; i++ {
		deg := 2 + rng.Intn(6)
		net := Net{Weight: 0.5 + rng.Float64()}
		for j := 0; j < deg; j++ {
			if rng.Float64() < 0.15 {
				net.Pins = append(net.Pins, PinRef{Obj: Fixed, OffX: rng.Float64() * 100, OffY: rng.Float64() * 100})
			} else {
				net.Pins = append(net.Pins, PinRef{
					Obj:  rng.Intn(n),
					OffX: rng.Float64()*4 - 2,
					OffY: rng.Float64()*4 - 2,
				})
			}
		}
		nl.Nets = append(nl.Nets, net)
	}
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64() * 100
		y[i] = rng.Float64() * 100
	}
	return nl, x, y
}

// Property: WA ≤ HPWL ≤ LSE for every random netlist.
func TestModelBracketing(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		nl, x, y := randNetlist(rng, 20, 30)
		h := HPWL(nl, x, y)
		wa := value(nl, WA, 2, x, y)
		lse := value(nl, LSE, 2, x, y)
		if wa > h+1e-6 {
			t.Fatalf("trial %d: WA %v > HPWL %v", trial, wa, h)
		}
		if lse < h-1e-6 {
			t.Fatalf("trial %d: LSE %v < HPWL %v", trial, lse, h)
		}
	}
}

// Property: both models converge to HPWL as gamma -> 0.
func TestGammaConvergence(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	nl, x, y := randNetlist(rng, 15, 20)
	h := HPWL(nl, x, y)
	for _, gamma := range []float64{8, 2, 0.5, 0.1} {
		wa := value(nl, WA, gamma, x, y)
		lse := value(nl, LSE, gamma, x, y)
		waErr := math.Abs(wa-h) / h
		lseErr := math.Abs(lse-h) / h
		if gamma <= 0.1 {
			if waErr > 0.01 {
				t.Errorf("WA at gamma=%v: rel err %v", gamma, waErr)
			}
			if lseErr > 0.01 {
				t.Errorf("LSE at gamma=%v: rel err %v", gamma, lseErr)
			}
		}
	}
	// Error must shrink monotonically with gamma for WA.
	prevErr := math.Inf(1)
	for _, gamma := range []float64{8, 4, 2, 1, 0.5} {
		wa := value(nl, WA, gamma, x, y)
		err := math.Abs(wa - h)
		if err > prevErr+1e-9 {
			t.Errorf("WA error grew when gamma shrank to %v", gamma)
		}
		prevErr = err
	}
}

// Property: the WA model is tighter than LSE (its approximation error is
// smaller) on random netlists — the paper's theoretical claim.
func TestWATighterThanLSE(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	waWins := 0
	trials := 40
	for trial := 0; trial < trials; trial++ {
		nl, x, y := randNetlist(rng, 20, 30)
		h := HPWL(nl, x, y)
		waErr := math.Abs(value(nl, WA, 4, x, y) - h)
		lseErr := math.Abs(value(nl, LSE, 4, x, y) - h)
		if waErr <= lseErr {
			waWins++
		}
	}
	if waWins < trials*3/4 {
		t.Errorf("WA tighter in only %d/%d trials", waWins, trials)
	}
}

// checkGradient compares the analytic gradient against central finite
// differences.
func checkGradient(t *testing.T, m Model, gamma float64, nl *Netlist, x, y []float64) {
	t.Helper()
	n := nl.NumObjs
	gx := make([]float64, n)
	gy := make([]float64, n)
	e := NewEvaluator(nl, m, gamma, 1)
	e.Value(x, y)
	e.Gradient(gx, gy)
	const h = 1e-5
	for i := 0; i < n; i++ {
		for axis := 0; axis < 2; axis++ {
			coord := x
			grad := gx
			if axis == 1 {
				coord = y
				grad = gy
			}
			orig := coord[i]
			coord[i] = orig + h
			fp := e.Value(x, y)
			coord[i] = orig - h
			fm := e.Value(x, y)
			coord[i] = orig
			fd := (fp - fm) / (2 * h)
			if math.Abs(fd-grad[i]) > 1e-4*(1+math.Abs(fd)) {
				t.Errorf("%s grad mismatch obj %d axis %d: analytic %v fd %v", m, i, axis, grad[i], fd)
			}
		}
	}
}

func TestWAGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	nl, x, y := randNetlist(rng, 8, 12)
	checkGradient(t, WA, 3, nl, x, y)
}

func TestLSEGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	nl, x, y := randNetlist(rng, 8, 12)
	checkGradient(t, LSE, 3, nl, x, y)
}

// Numerical stability: huge coordinates must not produce NaN/Inf thanks to
// the max-shift scheme.
func TestNumericalStability(t *testing.T) {
	nl := twoPin()
	x := []float64{0, 1e7}
	y := []float64{-1e7, 1e7}
	for _, m := range []Model{WA, LSE} {
		gx := make([]float64, 2)
		gy := make([]float64, 2)
		e := NewEvaluator(nl, m, 0.5, 1)
		v := e.Value(x, y)
		e.Gradient(gx, gy)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s value not finite: %v", m, v)
		}
		for i := range gx {
			if math.IsNaN(gx[i]) || math.IsNaN(gy[i]) {
				t.Errorf("%s gradient not finite at obj %d", m, i)
			}
		}
	}
}

// Gradient direction: moving the right object of a two-pin net rightward
// increases wirelength, so its x gradient must be positive and the left
// object's negative.
func TestGradientDirection(t *testing.T) {
	nl := twoPin()
	x := []float64{0, 10}
	y := []float64{0, 0}
	for _, m := range []Model{WA, LSE} {
		gx := make([]float64, 2)
		gy := make([]float64, 2)
		e := NewEvaluator(nl, m, 1, 1)
		e.Value(x, y)
		e.Gradient(gx, gy)
		if gx[1] <= 0 || gx[0] >= 0 {
			t.Errorf("%s gradient signs wrong: %v", m, gx)
		}
	}
}

// Property: translation invariance — shifting every object by a constant
// leaves both models unchanged (fixed pins excluded).
func TestTranslationInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	nl := &Netlist{NumObjs: 10}
	for i := 0; i < 15; i++ {
		deg := 2 + rng.Intn(4)
		net := Net{Weight: 1}
		for j := 0; j < deg; j++ {
			net.Pins = append(net.Pins, PinRef{Obj: rng.Intn(10)})
		}
		nl.Nets = append(nl.Nets, net)
	}
	x := make([]float64, 10)
	y := make([]float64, 10)
	for i := range x {
		x[i] = rng.Float64() * 50
		y[i] = rng.Float64() * 50
	}
	f := func(shift float64) bool {
		shift = math.Mod(shift, 1e4)
		if math.IsNaN(shift) {
			return true
		}
		xs := make([]float64, 10)
		ys := make([]float64, 10)
		for i := range x {
			xs[i] = x[i] + shift
			ys[i] = y[i] + shift
		}
		for _, m := range []Model{WA, LSE} {
			a := value(nl, m, 2, x, y)
			b := value(nl, m, 2, xs, ys)
			if math.Abs(a-b) > 1e-6*(1+math.Abs(a)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// benchEval times the value and gradient passes of model m separately.
func benchEval(b *testing.B, m Model, objs, nets, workers int) {
	rng := rand.New(rand.NewSource(23))
	nl, x, y := randNetlist(rng, objs, nets)
	gx := make([]float64, objs)
	gy := make([]float64, objs)
	e := NewEvaluator(nl, m, 2, workers)
	b.Run("value", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e.Value(x, y)
		}
	})
	b.Run("gradient", func(b *testing.B) {
		e.Value(x, y)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Gradient(gx, gy)
		}
	})
}

func BenchmarkWAEval(b *testing.B)         { benchEval(b, WA, 1000, 3000, 1) }
func BenchmarkLSEEval(b *testing.B)        { benchEval(b, LSE, 1000, 3000, 1) }
func BenchmarkWAParallelEval(b *testing.B) { benchEval(b, WA, 20000, 60000, 0) }

func TestParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	nl, x, y := randNetlist(rng, 200, 600)
	for _, m := range []Model{WA, LSE} {
		serial := NewEvaluator(nl, m, 2, 1)
		gx1 := make([]float64, 200)
		gy1 := make([]float64, 200)
		v1 := serial.Value(x, y)
		serial.Gradient(gx1, gy1)
		for _, workers := range []int{1, 2, 4, 7, 8} {
			par := NewEvaluator(nl, m, 2, workers)
			gx2 := make([]float64, 200)
			gy2 := make([]float64, 200)
			v2 := par.Value(x, y)
			par.Gradient(gx2, gy2)
			if math.Abs(v1-v2) > 1e-9*(1+math.Abs(v1)) {
				t.Errorf("%s w=%d: value %v != %v", m, workers, v2, v1)
			}
			for i := range gx1 {
				if math.Abs(gx1[i]-gx2[i]) > 1e-9*(1+math.Abs(gx1[i])) ||
					math.Abs(gy1[i]-gy2[i]) > 1e-9*(1+math.Abs(gy1[i])) {
					t.Fatalf("%s w=%d: gradient differs at %d", m, workers, i)
				}
			}
		}
	}
}

func TestParallelSmallFallsBack(t *testing.T) {
	nl := twoPin()
	x := []float64{0, 3}
	y := []float64{0, 4}
	par := NewEvaluator(nl, WA, 1, 8)
	if par.workers != 1 {
		t.Errorf("1-net netlist kept %d workers", par.workers)
	}
	if got, serial := par.Value(x, y), value(nl, WA, 1, x, y); got != serial {
		t.Errorf("small netlist path differs: %v vs %v", got, serial)
	}
}
