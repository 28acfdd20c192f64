package density

import (
	"math"

	"repro/internal/par"
)

// The penalty kernels run over contiguous object ranges; the serial path
// is the one-worker case. With w > 1 workers, objects are partitioned
// into w equal ranges, each worker deposits into a private demand slab,
// and the slabs are summed in worker order over disjoint bin ranges —
// deterministic for a fixed worker count, and equal to the serial demand
// up to floating-point reassociation.

// bellScratch is one worker's scratch: bell values and slopes per axis
// and, for parallel deposits, a private demand slab.
type bellScratch struct {
	px, dpx, py, dpy []float64
	demand           []float64
}

// SetWorkers enables parallel penalty evaluation with the given worker
// count (≤ 0 selects the shared automatic policy — par.Workers, honoring
// the REPRO_WORKERS override; 1 restores serial evaluation). Inputs with
// fewer than 4 objects per worker evaluate serially.
func (g *Grid) SetWorkers(w int) {
	w = par.Workers(w)
	g.workers = w
	if len(g.scratch) < w {
		g.scratch = append(g.scratch, make([]bellScratch, w-len(g.scratch))...)
	}
}

// workersFor returns the worker count the kernels use for n objects.
func (g *Grid) workersFor(n int) int {
	if g.workers > 1 && n >= 4*g.workers {
		return g.workers
	}
	return 1
}

// Penalty evaluates the density penalty Σ_b (D_b − M_b)² over the objects
// at centers (x[i], y[i]). It leaves the smoothed demand map D in place,
// so PenaltyGradient at the same positions needs no second deposit.
func (g *Grid) Penalty(objs []Obj, x, y []float64) float64 {
	n := len(objs)
	if w := g.workersFor(n); w == 1 {
		clear(g.demand)
		g.depositRange(objs, x, y, 0, n, g.demand, &g.scratch[0])
	} else {
		nb := len(g.demand)
		par.For(w, w, func(k int) {
			scr := &g.scratch[k]
			if len(scr.demand) < nb {
				scr.demand = make([]float64, nb)
			}
			dst := scr.demand[:nb]
			clear(dst)
			g.depositRange(objs, x, y, n*k/w, n*(k+1)/w, dst, scr)
		})
		par.For(w, w, func(k int) {
			lo, hi := nb*k/w, nb*(k+1)/w
			dem := g.demand[lo:hi]
			clear(dem)
			for j := 0; j < w; j++ {
				slab := g.scratch[j].demand[lo:hi]
				for i := range dem {
					dem[i] += slab[i]
				}
			}
		})
	}
	var total float64
	for b, d := range g.demand {
		e := d - g.capArea[b]
		total += e * e
	}
	return total
}

// PenaltyGradient adds ∂N/∂x and ∂N/∂y into gx and gy. x and y must be
// the positions of the most recent Penalty call: the gradient reads the
// demand map that call left.
//
// With per-object normalization c = A/(sx·sy), the exact derivative of
// each deposit is
//
//	∂(c·px·py)/∂x = c · py · (px' − px · sx'/sx)
//
// where sx' = Σ_b px'(b); the sx'/sx term keeps area conservation
// differentiated rather than approximated away.
func (g *Grid) PenaltyGradient(objs []Obj, x, y []float64, gx, gy []float64) {
	n := len(objs)
	w := g.workersFor(n)
	if w == 1 {
		g.gradientRange(objs, x, y, 0, n, gx, gy, &g.scratch[0])
		return
	}
	par.For(w, w, func(k int) {
		g.gradientRange(objs, x, y, n*k/w, n*(k+1)/w, gx, gy, &g.scratch[k])
	})
}

// bellAxis evaluates one object's bell along one grid axis — center c,
// half-extent half, bins of width step from origin, nb bins — for every
// bin whose center the support can reach. It returns the first such bin
// b0, the values p[j] of bin b0+j and their sum, and, when dpBuf is
// non-nil, the slopes ∂p/∂c and their sum. The buffers are grown as
// needed and back the returned slices.
func bellAxis(c, half, origin, step float64, nb int, pBuf, dpBuf *[]float64) (b0 int, p, dp []float64, s, ds float64) {
	h := effHalf(half, step)
	shape := newBell(h, step)
	b0, b1 := bellRange(c, shape.outer, origin+step/2, step, nb)
	m := b1 - b0 + 1
	if cap(*pBuf) < m {
		*pBuf = make([]float64, 2*m)
	}
	p = (*pBuf)[:m]
	if dpBuf == nil {
		for j := range p {
			ctr := origin + (float64(b0+j)+0.5)*step
			v, _ := shape.eval(math.Abs(c - ctr))
			p[j] = v
			s += v
		}
		return b0, p, nil, s, 0
	}
	if cap(*dpBuf) < m {
		*dpBuf = make([]float64, 2*m)
	}
	dp = (*dpBuf)[:m]
	for j := range p {
		ctr := origin + (float64(b0+j)+0.5)*step
		d := c - ctr
		v, dv := shape.eval(math.Abs(d))
		if d < 0 {
			dv = -dv
		}
		p[j] = v
		dp[j] = dv
		s += v
		ds += dv
	}
	return b0, p, dp, s, ds
}

// depositRange deposits objects [lo, hi) into dst.
func (g *Grid) depositRange(objs []Obj, x, y []float64, lo, hi int, dst []float64, scr *bellScratch) {
	for i := lo; i < hi; i++ {
		x0, px, _, sx, _ := bellAxis(x[i], objs[i].HalfW, g.Die.Lo.X, g.BinW, g.NX, &scr.px, nil)
		y0, py, _, sy, _ := bellAxis(y[i], objs[i].HalfH, g.Die.Lo.Y, g.BinH, g.NY, &scr.py, nil)
		if sx <= 0 || sy <= 0 {
			continue
		}
		c := objs[i].Area / (sx * sy)
		for j, pyv := range py {
			row := dst[(y0+j)*g.NX+x0:][:len(px)]
			for k, pxv := range px {
				row[k] += c * pxv * pyv
			}
		}
	}
}

// gradientRange accumulates ∂N/∂ for objects [lo, hi) into gx, gy (their
// own slots only, so ranges may run concurrently).
func (g *Grid) gradientRange(objs []Obj, x, y []float64, lo, hi int, gx, gy []float64, scr *bellScratch) {
	for i := lo; i < hi; i++ {
		x0, px, dpx, sx, dsx := bellAxis(x[i], objs[i].HalfW, g.Die.Lo.X, g.BinW, g.NX, &scr.px, &scr.dpx)
		y0, py, dpy, sy, dsy := bellAxis(y[i], objs[i].HalfH, g.Die.Lo.Y, g.BinH, g.NY, &scr.py, &scr.dpy)
		if sx <= 0 || sy <= 0 {
			continue
		}
		c := objs[i].Area / (sx * sy)
		var gxi, gyi float64
		for j, pyv := range py {
			dpyv := dpy[j]
			row := (y0+j)*g.NX + x0
			dem := g.demand[row:][:len(px)]
			capa := g.capArea[row:][:len(px)]
			for k, pxv := range px {
				e := 2 * (dem[k] - capa[k])
				gxi += e * c * pyv * (dpx[k] - pxv*dsx/sx)
				gyi += e * c * pxv * (dpyv - pyv*dsy/sy)
			}
		}
		gx[i] += gxi
		gy[i] += gyi
	}
}
