package density

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/par"
)

// TestThreadsKeepBits runs the penalty and its gradient for each shard
// count on one, two, three and eight threads and requires the one-thread
// bits from all of them: threads only decide which shard or object range
// a goroutine takes, never the order deposits are summed in. The objects
// mix cells below the bin size, macros spanning many rows, and objects
// clipped at the die edges, on two grids. The gradient's task list run
// on one to eight threads next to a side task gives the same bits.
func TestThreadsKeepBits(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	die := geom.NewRect(0, 0, 240, 200)
	const n = 2048
	objs := make([]Obj, n)
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range objs {
		hw, hh := 0.3+rng.Float64()*4, 0.3+rng.Float64()*3
		if i%41 == 0 {
			hw, hh = 20+rng.Float64()*30, 15+rng.Float64()*40
		}
		objs[i] = Obj{HalfW: hw, HalfH: hh, Area: 4 * hw * hh * (0.5 + rng.Float64())}
		// Clumped in the middle, as after the quadratic start, with a
		// few objects off the die.
		x[i] = 120 + rng.NormFloat64()*40
		y[i] = 100 + rng.NormFloat64()*35
	}
	for _, dims := range [][2]int{{30, 26}, {12, 5}} {
		for _, shards := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%dx%d/shards=%d", dims[0], dims[1], shards), func(t *testing.T) {
				grid := func(threads int) *Grid {
					g := NewGrid(die, dims[0], dims[1], 0.8)
					g.AddFixed(geom.NewRect(30, 30, 80, 90))
					g.SetWorkers(shards)
					g.SetThreads(threads)
					return g
				}
				ref := grid(1)
				want := ref.Penalty(objs, x, y)
				wgx, wgy := make([]float64, n), make([]float64, n)
				ref.PenaltyGradient(objs, x, y, wgx, wgy)
				for _, threads := range []int{1, 2, 3, 8} {
					g := grid(threads)
					if got := g.Penalty(objs, x, y); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("threads=%d: penalty %v, one thread %v", threads, got, want)
					}
					for b := range g.demand {
						if math.Float64bits(g.demand[b]) != math.Float64bits(ref.demand[b]) {
							t.Fatalf("threads=%d: demand of bin %d %v, one thread %v", threads, b, g.demand[b], ref.demand[b])
						}
					}
					gx, gy := make([]float64, n), make([]float64, n)
					g.PenaltyGradient(objs, x, y, gx, gy)
					for i := range gx {
						if math.Float64bits(gx[i]) != math.Float64bits(wgx[i]) || math.Float64bits(gy[i]) != math.Float64bits(wgy[i]) {
							t.Fatalf("threads=%d: gradient at obj %d (%v, %v), one thread (%v, %v)", threads, i, gx[i], gy[i], wgx[i], wgy[i])
						}
					}
				}
				for threads := 1; threads <= 8; threads++ {
					g := grid(threads)
					g.Penalty(objs, x, y)
					gx, gy := make([]float64, n), make([]float64, n)
					tasks := g.GradientTasks(n)
					par.ForWorker(tasks+1, threads, func(w, i int) {
						if i == 0 {
							sideWork()
							return
						}
						g.GradientTask(objs, x, y, gx, gy, i-1, w)
					})
					for i := range gx {
						if math.Float64bits(gx[i]) != math.Float64bits(wgx[i]) || math.Float64bits(gy[i]) != math.Float64bits(wgy[i]) {
							t.Fatalf("gradient list on %d threads: gradient at obj %d (%v, %v), plain (%v, %v)", threads, i, gx[i], gy[i], wgx[i], wgy[i])
						}
					}
				}
			})
		}
	}
}

// sideWork stands in for the work a caller runs next to a task list.
func sideWork() {
	s := 0.0
	for i := range 20000 {
		s += math.Sqrt(float64(i))
	}
	sink = s
}

var sink float64
