package wl

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestThreadsKeepBits runs every shard count the placer uses on one,
// two, three and eight threads and requires the one-thread bits
// everywhere: the value with no limit, at the limit equal to it, one ulp
// below it, and far enough below that every thread count must stop
// early, and the gradient after an uncut value. Threads only decide who
// computes a term, never the order terms are summed in.
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
			})
		}
	}
}
