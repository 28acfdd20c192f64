package density

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// This file keeps a test-local copy of the combined value-and-gradient
// penalty kernel the value/gradient split replaced: a serial loop (with
// math.Abs) and a worker-partitioned variant (with a branching absolute
// value), each evaluating the bell and its constants per bin. The split
// must reproduce it bit for bit, since global placement's .pl output
// depends on every rounding.

func refBell(d, hw, wb float64) (p, dp float64) {
	w := 2 * hw
	inner := hw + wb
	outer := hw + 2*wb
	switch {
	case d <= inner:
		a := 4 / ((w + 2*wb) * (w + 4*wb))
		return 1 - a*d*d, -2 * a * d
	case d <= outer:
		b := 2 / (wb * (w + 4*wb))
		t := d - outer
		return b * t * t, 2 * b * t
	default:
		return 0, 0
	}
}

// refAbsf is the parallel kernels' absolute value; unlike math.Abs it
// keeps the sign of −0.
func refAbsf(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func refDeposit(g *Grid, abs func(float64) float64, objs []Obj, x, y []float64, lo, hi int, dst []float64) {
	for i := lo; i < hi; i++ {
		hw := effHalf(objs[i].HalfW, g.BinW)
		hh := effHalf(objs[i].HalfH, g.BinH)
		x0, x1 := bellRange(x[i], hw+2*g.BinW, g.Die.Lo.X+g.BinW/2, g.BinW, g.NX)
		y0, y1 := bellRange(y[i], hh+2*g.BinH, g.Die.Lo.Y+g.BinH/2, g.BinH, g.NY)
		px := make([]float64, x1-x0+1)
		py := make([]float64, y1-y0+1)
		var sx, sy float64
		for bx := x0; bx <= x1; bx++ {
			cx := g.Die.Lo.X + (float64(bx)+0.5)*g.BinW
			p, _ := refBell(abs(x[i]-cx), hw, g.BinW)
			px[bx-x0] = p
			sx += p
		}
		for by := y0; by <= y1; by++ {
			cy := g.Die.Lo.Y + (float64(by)+0.5)*g.BinH
			p, _ := refBell(abs(y[i]-cy), hh, g.BinH)
			py[by-y0] = p
			sy += p
		}
		if sx <= 0 || sy <= 0 {
			continue
		}
		c := objs[i].Area / (sx * sy)
		for by := y0; by <= y1; by++ {
			row := by * g.NX
			pyv := py[by-y0]
			for bx := x0; bx <= x1; bx++ {
				dst[row+bx] += c * px[bx-x0] * pyv
			}
		}
	}
}

func refGradient(g *Grid, abs func(float64) float64, demand []float64, objs []Obj, x, y []float64, lo, hi int, gx, gy []float64) {
	for i := lo; i < hi; i++ {
		hw := effHalf(objs[i].HalfW, g.BinW)
		hh := effHalf(objs[i].HalfH, g.BinH)
		x0, x1 := bellRange(x[i], hw+2*g.BinW, g.Die.Lo.X+g.BinW/2, g.BinW, g.NX)
		y0, y1 := bellRange(y[i], hh+2*g.BinH, g.Die.Lo.Y+g.BinH/2, g.BinH, g.NY)
		px := make([]float64, x1-x0+1)
		dpx := make([]float64, x1-x0+1)
		py := make([]float64, y1-y0+1)
		dpy := make([]float64, y1-y0+1)
		var sx, sy, dsx, dsy float64
		for bx := x0; bx <= x1; bx++ {
			cx := g.Die.Lo.X + (float64(bx)+0.5)*g.BinW
			d := x[i] - cx
			p, dp := refBell(abs(d), hw, g.BinW)
			if d < 0 {
				dp = -dp
			}
			px[bx-x0] = p
			dpx[bx-x0] = dp
			sx += p
			dsx += dp
		}
		for by := y0; by <= y1; by++ {
			cy := g.Die.Lo.Y + (float64(by)+0.5)*g.BinH
			d := y[i] - cy
			p, dp := refBell(abs(d), hh, g.BinH)
			if d < 0 {
				dp = -dp
			}
			py[by-y0] = p
			dpy[by-y0] = dp
			sy += p
			dsy += dp
		}
		if sx <= 0 || sy <= 0 {
			continue
		}
		c := objs[i].Area / (sx * sy)
		var gxi, gyi float64
		for by := y0; by <= y1; by++ {
			row := by * g.NX
			pyv := py[by-y0]
			dpyv := dpy[by-y0]
			for bx := x0; bx <= x1; bx++ {
				e := 2 * (demand[row+bx] - g.capArea[row+bx])
				pxv := px[bx-x0]
				gxi += e * c * pyv * (dpx[bx-x0] - pxv*dsx/sx)
				gyi += e * c * pxv * (dpyv - pyv*dsy/sy)
			}
		}
		gx[i] += gxi
		gy[i] += gyi
	}
}

// refPenalty is the combined kernel: value, and the gradient when gx is
// non-nil, from one call. workers > 1 with enough objects deposits into
// per-worker slabs summed in worker order.
func refPenalty(g *Grid, workers int, objs []Obj, x, y, gx, gy []float64) float64 {
	nb := g.NX * g.NY
	n := len(objs)
	demand := make([]float64, nb)
	w := 1
	if workers > 1 && n >= 4*workers {
		w = workers
	}
	if w == 1 {
		refDeposit(g, math.Abs, objs, x, y, 0, n, demand)
	} else {
		slabs := make([][]float64, w)
		for k := range slabs {
			slabs[k] = make([]float64, nb)
			refDeposit(g, refAbsf, objs, x, y, n*k/w, n*(k+1)/w, slabs[k])
		}
		for k := 0; k < w; k++ {
			lo, hi := nb*k/w, nb*(k+1)/w
			for j := 0; j < w; j++ {
				for i := lo; i < hi; i++ {
					demand[i] += slabs[j][i]
				}
			}
		}
	}
	var total float64
	for b := 0; b < nb; b++ {
		e := demand[b] - g.capArea[b]
		total += e * e
	}
	if gx == nil {
		return total
	}
	abs := math.Abs
	if w > 1 {
		abs = refAbsf
	}
	for k := 0; k < w; k++ {
		refGradient(g, abs, demand, objs, x, y, n*k/w, n*(k+1)/w, gx, gy)
	}
	return total
}

// The trimmed kernels (bellAxis drops the zero bins at both ends of the
// bell) must match the untrimmed reference wherever trimming bites: the
// objects below mix cells far below the bin size (widened to one bin),
// macro-sized objects spanning many bins, objects clipped at one die edge
// and objects wider than the die (clipped at both edges, on both axes),
// and centers exactly on a bin center or a bin edge, where the slopes
// cancel and, for cells widened to one bin, the support ends exactly on
// a bin center.
func TestPenaltySplitMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	die := geom.NewRect(0, 0, 240, 200)
	const nx, ny = 30, 26
	binW, binH := die.W()/nx, die.H()/ny
	var objs []Obj
	var x, y []float64
	add := func(hw, hh, cx, cy float64) {
		objs = append(objs, Obj{HalfW: hw, HalfH: hh, Area: 4 * hw * hh * (0.5 + rng.Float64())})
		x = append(x, cx)
		y = append(y, cy)
	}
	for i := 0; i < 400; i++ {
		hw, hh := 0.3+rng.Float64()*4, 0.3+rng.Float64()*3
		if i%37 == 0 {
			hw, hh = 20+rng.Float64()*20, 15+rng.Float64()*20
		}
		cx, cy := rng.Float64()*240, rng.Float64()*200
		switch i % 29 {
		case 0:
			cx = -5
		case 1:
			cx, cy = 243, -3
		case 2:
			cy = 204
		}
		add(hw, hh, cx, cy)
	}
	for k := 0; k < 12; k++ {
		bx, by := rng.Intn(nx), rng.Intn(ny)
		hw, hh := 0.3+rng.Float64()*12, 0.3+rng.Float64()*12
		// On a bin center (as the kernels compute it) and on bin edges.
		add(hw, hh, die.Lo.X+(float64(bx)+0.5)*binW, die.Lo.Y+(float64(by)+0.5)*binH)
		add(hw, hh, die.Lo.X+float64(bx)*binW, die.Lo.Y+float64(by)*binH)
		add(hw, hh, die.Lo.X+(float64(bx)+0.5)*binW, die.Lo.Y+float64(by)*binH)
		// Wider and taller than the die: both edges clip on both axes.
		add(130+rng.Float64()*20, 110+rng.Float64()*20, 60+rng.Float64()*120, 50+rng.Float64()*100)
	}
	n := len(objs)
	x2 := append([]float64(nil), x...)
	for i := range x2 {
		x2[i] += rng.Float64()*4 - 2
	}
	for _, workers := range []int{1, 2, 4, 7, 8} {
		t.Run(fmt.Sprintf("w=%d", workers), func(t *testing.T) {
			g := NewGrid(die, nx, ny, 0.8)
			g.AddFixed(geom.NewRect(30, 30, 80, 90))
			g.DerateNarrowChannels(25, 0.5)
			g.SetWorkers(workers)
			for pi, px := range [][]float64{x, x2} {
				rgx := make([]float64, n)
				rgy := make([]float64, n)
				rv := refPenalty(g, workers, objs, px, y, rgx, rgy)
				if rvOnly := refPenalty(g, workers, objs, px, y, nil, nil); rvOnly != rv {
					t.Fatalf("reference value depends on the gradient request")
				}
				g.Penalty(objs, [][]float64{x2, x}[pi], y) // a stale map the next call replaces
				v := g.Penalty(objs, px, y)
				gx := make([]float64, n)
				gy := make([]float64, n)
				g.PenaltyGradient(objs, px, y, gx, gy)
				if math.Float64bits(v) != math.Float64bits(rv) {
					t.Fatalf("value %v, reference %v", v, rv)
				}
				for i := 0; i < n; i++ {
					if math.Float64bits(gx[i]) != math.Float64bits(rgx[i]) ||
						math.Float64bits(gy[i]) != math.Float64bits(rgy[i]) {
						t.Fatalf("gradient at obj %d: (%v, %v), reference (%v, %v)", i, gx[i], gy[i], rgx[i], rgy[i])
					}
				}
			}
		})
	}
}
