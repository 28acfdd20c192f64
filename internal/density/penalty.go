package density

import (
	"math"

	"repro/internal/par"
)

// Two counts shape the penalty kernels, and only one of them the bits:
//   - shards fixes the order each bin's deposits are summed in. Objects
//     are split into that many contiguous equal ranges; each range
//     deposits into its own demand slab, from zero in object order, and
//     the slabs are summed in range order over disjoint bin ranges. One
//     shard is the plain object-order deposit, straight into the demand
//     map.
//   - threads is how many goroutines run a kernel (SetThreads). It never
//     changes a bit. The deposit runs one goroutine per shard, as far as
//     there are threads. The gradient has one writer per object, so it
//     runs on every thread, over chunks of objects taken as threads come
//     free.
//
// So results are deterministic for a fixed shard count at any thread
// count; across shard counts they differ only by floating-point
// reassociation.
//
// The gradient is also a task list (GradientTasks), so a caller can run
// it in one parallel section next to other work; PenaltyGradient runs the
// same list on the grid's own threads.

// bellScratch is one goroutine's scratch: bell values and slopes per axis
// and, for a sharded deposit, its shard's demand slab.
type bellScratch struct {
	px, dpx, py, dpy []float64
	demand           []float64
}

// chunksPerThread is how many chunks each thread's share of the gradient
// is cut into. Threads take chunks as they come free, so a thread that
// starts late — waking an idle processor can take longer than a small
// kernel runs — leaves its share to the others.
const chunksPerThread = 4

// SetWorkers sets the shard count, and so the bits of the penalty and
// its gradient, and the thread count (see SetThreads) to w (≤ 0 selects
// the shared automatic policy — par.Workers, honoring the REPRO_WORKERS
// override; 1 restores serial evaluation). Inputs with fewer than 4
// objects per shard deposit as one shard.
func (g *Grid) SetWorkers(w int) {
	g.shards = par.Workers(w)
	g.threads = g.shards
}

// SetThreads sets how many goroutines run the kernels (≤ 0 selects
// par.Workers): for the deposit at most one per shard, for the gradient
// at most one per object. It changes no bit of the penalty or its
// gradient.
func (g *Grid) SetThreads(t int) { g.threads = par.Workers(t) }

// shardsFor returns the shard count the kernels use for n objects.
func (g *Grid) shardsFor(n int) int {
	if g.shards > 1 && n >= 4*g.shards {
		return g.shards
	}
	return 1
}

// scratchFor returns t bellScratch, allocating them on first use.
func (g *Grid) scratchFor(t int) []bellScratch {
	if len(g.scratch) < t {
		g.scratch = append(g.scratch, make([]bellScratch, t-len(g.scratch))...)
	}
	return g.scratch[:t]
}

// Penalty evaluates the density penalty Σ_b (D_b − M_b)² over the objects
// at centers (x[i], y[i]). It leaves the smoothed demand map D in place,
// so PenaltyGradient at the same positions needs no second deposit.
func (g *Grid) Penalty(objs []Obj, x, y []float64) float64 {
	n := len(objs)
	if k := g.shardsFor(n); k == 1 {
		clear(g.demand)
		g.depositRange(objs, x, y, 0, n, g.demand, &g.scratchFor(1)[0])
	} else {
		nb, w := len(g.demand), min(k, g.threads)
		scr := g.scratchFor(k)
		par.For(k, w, func(s int) {
			sc := &scr[s]
			if len(sc.demand) < nb {
				sc.demand = make([]float64, nb)
			}
			dst := sc.demand[:nb]
			clear(dst)
			g.depositRange(objs, x, y, n*s/k, n*(s+1)/k, dst, sc)
		})
		par.For(w, w, func(j int) {
			lo, hi := nb*j/w, nb*(j+1)/w
			dem := g.demand[lo:hi]
			clear(dem)
			for s := range scr {
				slab := scr[s].demand[lo:hi]
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
	c := g.GradientTasks(len(objs))
	if c == 1 {
		g.GradientTask(objs, x, y, gx, gy, 0, 0)
		return
	}
	par.ForWorker(c, g.threads, func(w, j int) {
		g.GradientTask(objs, x, y, gx, gy, j, w)
	})
}

// GradientTasks readies PenaltyGradient over n objects as a task list
// and returns its length: one task on one thread, otherwise
// chunksPerThread chunks of objects per thread. Run every task with
// GradientTask, on any goroutines and in any order, each numbered below
// the thread count.
func (g *Grid) GradientTasks(n int) int {
	t := max(1, min(g.threads, n))
	g.scratchFor(g.threads)
	g.chunks = 1
	if t > 1 {
		g.chunks = min(t*chunksPerThread, n)
	}
	return g.chunks
}

// GradientTask runs task j of the gradient GradientTasks readied on the
// goroutine numbered w: it adds the gradient of chunk j's objects into
// their own slots of gx and gy.
func (g *Grid) GradientTask(objs []Obj, x, y []float64, gx, gy []float64, j, w int) {
	n, c := len(objs), g.chunks
	g.gradientRange(objs, x, y, n*j/c, n*(j+1)/c, gx, gy, &g.scratch[w])
}

// bellAxis evaluates one object's bell along one grid axis — center c,
// half-extent half, bins of width step from origin, nb bins — for every
// bin whose center the support can reach. It returns the first such bin
// b0, the values p[j] of bin b0+j and their sum, and, when dpBuf is
// non-nil, the slopes ∂p/∂c and their sum. The buffers are grown as
// needed and back the returned slices.
//
// The sums cover every reachable bin, but the returned slices drop the
// leading and trailing bins whose value (and slope) is exactly zero: the
// bell's compact support ends there, and a zero bin would only add +0 to
// the kernels' non-negative demand and to their gradient sums. Trimming
// tests the values, not the support formula, so it stays exact wherever
// the die edge clips the range.
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
		i, k := trimZeros(p, nil)
		return b0 + i, p[i:k], nil, s, 0
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
	i, k := trimZeros(p, dp)
	return b0 + i, p[i:k], dp[i:k], s, ds
}

// trimZeros returns the range [i, k) of p left after dropping the
// leading and trailing entries where p, and dp when non-nil, are zero.
func trimZeros(p, dp []float64) (i, k int) {
	zero := func(j int) bool { return p[j] == 0 && (dp == nil || dp[j] == 0) }
	k = len(p)
	for i < k && zero(i) {
		i++
	}
	for k > i && zero(k-1) {
		k--
	}
	return i, k
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
		// The x factor px' − px·sx'/sx depends on the column only: form
		// it once, in place of the slopes it alone reads.
		qx := dpx
		for k, pxv := range px {
			qx[k] = dpx[k] - pxv*dsx/sx
		}
		var gxi, gyi float64
		for j, pyv := range py {
			qy := dpy[j] - pyv*dsy/sy
			row := (y0+j)*g.NX + x0
			dem := g.demand[row:][:len(px)]
			capa := g.capArea[row:][:len(px)]
			for k, pxv := range px {
				e := 2 * (dem[k] - capa[k])
				gxi += e * c * pyv * qx[k]
				gyi += e * c * pxv * qy
			}
		}
		gx[i] += gxi
		gy[i] += gyi
	}
}
