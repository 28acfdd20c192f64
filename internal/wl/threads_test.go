package wl

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/par"
)

// TestThreadsKeepBits runs every shard count the placer uses on one,
// two, three and eight threads and requires the one-thread bits
// everywhere: the value with no limit, at the limit equal to it, one ulp
// below it, and far enough below that every thread count must stop
// early, and the gradient after an uncut value. Threads only decide who
// computes a term, never the order terms are summed in. The value's
// task list run on one to eight threads next to a side task gives the
// same bits, with the limit lowered by Tighten while the chunks run.
func TestThreadsKeepBits(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	const n = 150
	nl, x, y := mixedNetlist(rng, n)
	var reach float64
	for i := range x {
		reach = math.Max(reach, math.Max(math.Abs(x[i]), math.Abs(y[i])))
	}
	for _, m := range []Model{WA, LSE} {
		for _, shards := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", m, shards), func(t *testing.T) {
				ref := NewEvaluator(nl, m, 3, shards, reach)
				ref.SetThreads(1)
				v := ref.Value(x, y, math.Inf(1))
				rgx, rgy := make([]float64, n), make([]float64, n)
				ref.Gradient(rgx, rgy)
				limits := []float64{math.Inf(1), v, math.Nextafter(v, math.Inf(-1)), v / 2}
				want := make([]float64, len(limits))
				for i, limit := range limits {
					want[i] = ref.Value(x, y, limit)
				}
				if !math.IsInf(want[3], 1) {
					t.Fatalf("limit %v, half the value %v, was not cut: %v", limits[3], v, want[3])
				}
				for _, threads := range []int{1, 2, 3, 8} {
					e := NewEvaluator(nl, m, 3, shards, reach)
					e.SetThreads(threads)
					if e.shards != shards || e.threads != threads {
						t.Fatalf("evaluator runs %d shards on %d threads, want %d on %d", e.shards, e.threads, shards, threads)
					}
					for i, limit := range limits {
						if got := e.Value(x, y, limit); !sameBits(got, want[i]) {
							t.Fatalf("threads=%d limit %v: value %v, one thread %v", threads, limit, got, want[i])
						}
					}
					e.Value(x, y, math.Inf(1))
					gx, gy := make([]float64, n), make([]float64, n)
					e.Gradient(gx, gy)
					for i := range gx {
						if !sameBits(gx[i], rgx[i]) || !sameBits(gy[i], rgy[i]) {
							t.Fatalf("threads=%d: gradient at obj %d (%v, %v), one thread (%v, %v)", threads, i, gx[i], gy[i], rgx[i], rgy[i])
						}
					}
				}
				for threads := 1; threads <= 8; threads++ {
					e := NewEvaluator(nl, m, 3, shards, reach)
					e.SetThreads(threads)
					for i, limit := range limits {
						if got := valueBeside(e, x, y, limit, threads); !sameBits(got, want[i]) {
							t.Fatalf("task list on %d threads, tightened to %v: value %v, plain %v", threads, limit, got, want[i])
						}
					}
					e.StartValue(x, y, math.Inf(1))
					e.StopValue()
					if got, ok := e.ValueResult(); ok || !math.IsInf(got, 1) {
						t.Fatalf("threads=%d: a stopped value returned %v, %v", threads, got, ok)
					}
				}
			})
		}
	}
}

// valueBeside runs e's value task list with no limit, on threads
// goroutines, next to a side task that tightens the limit to limit
// after some work of its own, and returns the value. The side task is
// the last one taken, so on one thread the chunks have all finished
// when the limit drops.
func valueBeside(e *Evaluator, x, y []float64, limit float64, threads int) float64 {
	tasks := e.StartValue(x, y, math.Inf(1))
	par.For(tasks+1, threads, func(i int) {
		if i == tasks {
			sideWork()
			e.Tighten(limit)
			return
		}
		e.ValueTask(i)
	})
	v, _ := e.ValueResult()
	return v
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
