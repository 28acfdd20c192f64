package wl

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// nearNetlist builds nets whose pins sit within a relative spread of
// about jitter around points of magnitude scale: pins on their own
// objects (zero offset), on a shared object at different offsets, and
// fixed, in every mix. Near-coincident pins at placement magnitudes are
// where rounding pulls a WA term below zero.
func nearNetlist(rng *rand.Rand, nets int, scale, jitter float64) (*Netlist, []float64, []float64) {
	nl := &Netlist{}
	var x, y []float64
	near := func(c float64) float64 { return c + (rng.Float64()*2-1)*jitter*math.Abs(c) }
	for k := 0; k < nets; k++ {
		cx, cy := (rng.Float64()*2-1)*scale, (rng.Float64()*2-1)*scale
		net := Net{Weight: 0.5 + rng.Float64()*2}
		shared := -1
		for j, deg := 0, 2+rng.Intn(7); j < deg; j++ {
			switch rng.Intn(3) {
			case 0:
				net.Pins = append(net.Pins, PinRef{Obj: Fixed, OffX: near(cx), OffY: near(cy)})
			case 1:
				if shared < 0 {
					shared = len(x)
					x, y = append(x, cx), append(y, cy)
				}
				net.Pins = append(net.Pins, PinRef{Obj: shared, OffX: near(cx) - cx, OffY: near(cy) - cy})
			default:
				net.Pins = append(net.Pins, PinRef{Obj: len(x)})
				x, y = append(x, near(cx)), append(y, near(cy))
			}
		}
		nl.Nets = append(nl.Nets, net)
	}
	nl.NumObjs = len(x)
	return nl, x, y
}

// TestWATermsWithinSlack checks termSlack on near-coincident nets at
// placement magnitudes: every weighted WA axis term is ≥ −termSlack of
// its net's own largest pin coordinate, and every LSE term is ≥ 0. It
// also requires some WA terms to come out negative, so the slack is
// shown to be needed.
func TestWATermsWithinSlack(t *testing.T) {
	negative, terms, worst := 0, 0, 0.0
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		scale := math.Pow(10, 1+rng.Float64()*4)
		jitter := math.Pow(10, -15+rng.Float64()*12)
		nl, x, y := nearNetlist(rng, 40, scale, jitter)
		gamma := math.Pow(10, -2+rng.Float64()*4) * jitter * scale
		for _, m := range []Model{WA, LSE} {
			e := NewEvaluator(nl, m, gamma, 1, math.Inf(1))
			for k := range nl.Nets {
				p0, p1 := e.start[k], e.start[k+1]
				w := e.weight[k]
				for _, a := range []struct {
					coord []float64
					ax    *axis
				}{{x, &e.ax}, {y, &e.ay}} {
					term := w * e.axisValue(k, p0, p1, a.coord, a.ax)
					var v float64
					for _, c := range a.ax.v[p0:p1] {
						v = math.Max(v, math.Abs(c))
					}
					bound := 0.0
					if m == WA {
						bound = termSlack(w, int(p1-p0), v)
						terms++
						if term < 0 {
							negative++
							worst = math.Max(worst, -term/bound)
						}
					}
					if term < -bound {
						t.Errorf("seed %d %s net %d: term %v below −%v (deg %d, |v| ≤ %v, γ %v)",
							seed, m, k, term, bound, p1-p0, v, gamma)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	if negative == 0 {
		t.Errorf("none of %d WA terms rounded below zero; the nets do not exercise the slack", terms)
	}
	t.Logf("%d of %d WA terms rounded below zero, the lowest to %.3g of its slack", negative, terms, worst)
}

// FuzzValueCut checks Value's limit contract on small netlists of
// near-coincident and fixed pins: the value with a limit is the uncut
// value bit for bit, or the uncut value exceeds the limit and so does the
// returned one. shards and threads pick 1–8 each; the uncut value is
// taken on one thread.
func FuzzValueCut(f *testing.F) {
	f.Add(int64(1), 1e4, 1e-9, 1.0, 0.0, uint8(1), uint8(1), false)
	f.Add(int64(2), 1e4, 1e-12, 0.1, -1e-9, uint8(2), uint8(2), false)
	f.Add(int64(3), 600.0, 1e-3, 10.0, -0.5, uint8(3), uint8(3), false)
	f.Add(int64(4), 1e6, 1e-14, 1e-3, 1e-12, uint8(1), uint8(1), true)
	f.Add(int64(5), 50.0, 0.5, 2.0, -0.999, uint8(4), uint8(4), false)
	// Three shards of nets that nearly vanish: a partial sum runs above
	// the total, so a cut without the slack would be wrong here.
	f.Add(int64(45), 5e5, 1e-14, 1e-3, 1e-12, uint8(2), uint8(2), false)
	// Threads that do not match the shards: one shard on two, three and
	// eight threads, and two shards on one and three.
	f.Add(int64(6), 1e4, 1e-12, 0.1, -1e-9, uint8(0), uint8(1), false)
	f.Add(int64(7), 5e5, 1e-14, 1e-3, 1e-12, uint8(0), uint8(2), false)
	f.Add(int64(8), 600.0, 1e-3, 10.0, -0.5, uint8(0), uint8(7), true)
	f.Add(int64(9), 1e6, 1e-14, 1e-3, 1e-12, uint8(1), uint8(0), false)
	f.Add(int64(10), 50.0, 0.5, 2.0, -0.999, uint8(1), uint8(2), false)
	// Three threads over nets that nearly vanish: the sum of the
	// published partials runs above the total, so a cut without the
	// slack would be wrong here.
	f.Add(int64(45), 5e5, 1.25e-15, 1e-3, 1e-12, uint8(2), uint8(2), false)
	f.Fuzz(func(t *testing.T, seed int64, scale, jitter, gamma, rel float64, shards, threads uint8, lse bool) {
		for _, v := range []float64{scale, jitter, gamma, rel} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return
			}
		}
		scale = math.Min(math.Abs(scale), 1e9)
		jitter = math.Min(math.Abs(jitter), 1)
		gamma = math.Max(math.Min(math.Abs(gamma), 1e6), 1e-6)
		rng := rand.New(rand.NewSource(seed))
		nl, x, y := nearNetlist(rng, 1+rng.Intn(40), scale, jitter)
		m := WA
		if lse {
			m = LSE
		}
		k, th := 1+int(shards%8), 1+int(threads%8)
		var reach float64
		for i := range x {
			reach = math.Max(reach, math.Max(math.Abs(x[i]), math.Abs(y[i])))
		}
		uncut := NewEvaluator(nl, m, gamma, k, math.Inf(1))
		uncut.SetThreads(1)
		full := uncut.Value(x, y, math.Inf(1))
		limit := full + rel*math.Abs(full)
		e := NewEvaluator(nl, m, gamma, k, reach)
		e.SetThreads(th)
		got := e.Value(x, y, limit)
		if !sameBits(got, full) && !(full > limit && got > limit) {
			t.Fatalf("limit %v: got %v, uncut value %v (shards %d, threads %d, %s)", limit, got, full, e.shards, e.threads, m)
		}
	})
}
