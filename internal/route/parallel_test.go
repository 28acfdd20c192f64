package route

import (
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/geom"
)

// routedState captures everything the router left behind: the Result and
// the full per-edge demand maps (byte-identical comparison).
type routedState struct {
	res  Result
	hdem []float64
	vdem []float64
}

func routeWithWorkers(t *testing.T, cfg gen.Config, workers int) routedState {
	t.Helper()
	d := gen.MustGenerate(cfg)
	for i, ci := range d.Movable() {
		c := &d.Cells[ci]
		c.SetCenter(geom.Point{
			X: d.Die.Lo.X + float64((i*37)%97)/97*d.Die.W(),
			Y: d.Die.Lo.Y + float64((i*61)%89)/89*d.Die.H(),
		})
	}
	g, err := NewGrid(d)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRouter(g, RouterOptions{Workers: workers, MaxRRRIters: 6})
	res := r.RouteDesign(d)
	return routedState{
		res:  res,
		hdem: append([]float64(nil), g.HDem...),
		vdem: append([]float64(nil), g.VDem...),
	}
}

// TestRouterDeterministicAcrossWorkers is the reproducibility contract of
// the batch-parallel router: the Result and the complete routed demand
// maps must be byte-identical for worker counts 1, 2 and 8.
func TestRouterDeterministicAcrossWorkers(t *testing.T) {
	suites := []gen.Config{
		{Name: "det-a", Seed: 9, NumStdCells: 300, NumFixedMacros: 2,
			NumMovableMacros: 1, NumModules: 2, NumFences: 1, NumTerminals: 8,
			TargetUtil: 0.6},
		gen.Congested(400, 3),
	}
	for _, cfg := range suites {
		ref := routeWithWorkers(t, cfg, 1)
		if ref.res.Segments == 0 {
			t.Fatalf("%s: nothing routed", cfg.Name)
		}
		for _, w := range []int{2, 8} {
			got := routeWithWorkers(t, cfg, w)
			if got.res != ref.res {
				t.Errorf("%s: Result differs at %d workers:\n  1: %+v\n  %d: %+v",
					cfg.Name, w, ref.res, w, got.res)
			}
			for i := range ref.hdem {
				if got.hdem[i] != ref.hdem[i] {
					t.Fatalf("%s: H demand differs at edge %d with %d workers: %v vs %v",
						cfg.Name, i, w, got.hdem[i], ref.hdem[i])
				}
			}
			for i := range ref.vdem {
				if got.vdem[i] != ref.vdem[i] {
					t.Fatalf("%s: V demand differs at edge %d with %d workers: %v vs %v",
						cfg.Name, i, w, got.vdem[i], ref.vdem[i])
				}
			}
		}
	}
}

// TestRouterRepeatedRunsIdentical guards the scratch-reuse paths: routing
// the same design twice through one Router (the routability loop's usage
// pattern) must reproduce the first run exactly.
func TestRouterRepeatedRunsIdentical(t *testing.T) {
	d := gen.MustGenerate(gen.Congested(400, 7))
	g, err := NewGrid(d)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRouter(g, RouterOptions{Workers: 2})
	first := r.RouteDesign(d)
	hd := append([]float64(nil), g.HDem...)
	second := r.RouteDesign(d)
	if first != second {
		t.Errorf("repeated RouteDesign differs: %+v vs %+v", first, second)
	}
	for i := range hd {
		if g.HDem[i] != hd[i] {
			t.Fatalf("repeated run demand differs at edge %d", i)
		}
	}
}

// TestFreshRouterParallelReroute drives fresh multi-worker Routers
// through reroute rounds whose batches hold several segments, so the
// first parallel batch starts from an empty search-state pool. Run under
// -race it guards the pool growth: the workers must only index the pool.
func TestFreshRouterParallelReroute(t *testing.T) {
	// Rasterize the cells in index order: the generator's local nets join
	// nearby indices, so many segments stay short and their search
	// windows disjoint enough to share batches.
	d := gen.MustGenerate(gen.Congested(1200, 7))
	mov := d.Movable()
	k := int(math.Ceil(math.Sqrt(float64(len(mov)))))
	for i, ci := range mov {
		d.Cells[ci].SetCenter(geom.Point{
			X: d.Die.Lo.X + (float64(i%k)+0.5)/float64(k)*d.Die.W(),
			Y: d.Die.Lo.Y + (float64(i/k)+0.5)/float64(k)*d.Die.H(),
		})
	}
	for _, w := range []int{2, 3, 8} {
		g, err := NewGrid(d)
		if err != nil {
			t.Fatal(err)
		}
		r := NewRouter(g, RouterOptions{Workers: w, MaxRRRIters: 4})
		res := r.RouteDesign(d)
		if res.RRRIters == 0 {
			t.Fatalf("workers=%d: no reroute round ran", w)
		}
		if len(r.states) < 2 {
			t.Fatalf("workers=%d: no batch was routed in parallel (%d search states)", w, len(r.states))
		}
	}
}

// TestSearchWindow exercises window clamping and the epoch-stamped state
// across many searches (including an epoch wraparound).
func TestSearchWindow(t *testing.T) {
	g := uniform(16, 12, 4)
	if w := segWindow(g, tile{1, 1}, tile{2, 2}, 100); !w.isFull(g) {
		t.Errorf("oversized margin must clamp to the full grid: %+v", w)
	}
	w := segWindow(g, tile{5, 5}, tile{7, 6}, 2)
	if w.x0 != 3 || w.y0 != 3 || w.x1 != 9 || w.y1 != 8 {
		t.Errorf("window = %+v", w)
	}
	r := NewRouter(g, RouterOptions{})
	r.snapshotCosts()
	ss := r.state(0)
	ss.ensure(g.NX * g.NY)
	ss.epoch = math.MaxUint32 - 2 // force a wraparound within the loop
	for i := 0; i < 8; i++ {
		p := ss.aStar(r, tile{1, 1}, tile{14, 10}, fullWindow(g), nil)
		if len(p) != 1+13+9 {
			t.Fatalf("iter %d: shortest path length %d, want 23", i, len(p))
		}
	}
}

// TestWindowedSearchStaysInWindow: with uniform costs the path must not
// leave the bounding window even when a wider detour exists.
func TestWindowedSearchStaysInWindow(t *testing.T) {
	g := uniform(20, 20, 4)
	r := NewRouter(g, RouterOptions{})
	r.snapshotCosts()
	win := segWindow(g, tile{5, 10}, tile{15, 10}, 2)
	p := r.state(0).aStar(r, tile{5, 10}, tile{15, 10}, win, nil)
	for _, tl := range p {
		if tl.x < win.x0 || tl.x > win.x1 || tl.y < win.y0 || tl.y > win.y1 {
			t.Fatalf("path left the window: %v outside %+v", tl, win)
		}
	}
}

// TestPartitionDisjoint checks the batching invariant: within one batch no
// two segments' base windows overlap, and every overflowed segment lands
// in exactly one batch.
func TestPartitionDisjoint(t *testing.T) {
	g := uniform(40, 40, 1)
	r := NewRouter(g, RouterOptions{})
	// A scatter of short segments, some clustered (must split into
	// batches), some far apart (may share one).
	ends := [][4]int{
		{2, 2, 6, 2}, {3, 3, 7, 3}, {30, 30, 34, 30}, {2, 30, 6, 30},
		{30, 2, 34, 2}, {18, 18, 22, 18}, {19, 19, 23, 19},
	}
	for i, e := range ends {
		r.segs = appendSeg(r.segs, i, tile{e[0], e[1]}, tile{e[2], e[3]})
	}
	idxs := make([]int, len(r.segs))
	for i := range idxs {
		idxs[i] = i
	}
	batches := r.partition(idxs)
	seen := make(map[int]bool)
	total := 0
	for _, b := range batches {
		for i, si := range b {
			if seen[si] {
				t.Fatalf("segment %d in two batches", si)
			}
			seen[si] = true
			total++
			wi := segWindow(g, r.segs[si].a, r.segs[si].b, baseMargin(r.segs[si].a, r.segs[si].b))
			for _, sj := range b[:i] {
				wj := segWindow(g, r.segs[sj].a, r.segs[sj].b, baseMargin(r.segs[sj].a, r.segs[sj].b))
				if wi.x0 <= wj.x1 && wj.x0 <= wi.x1 && wi.y0 <= wj.y1 && wj.y0 <= wi.y1 {
					t.Errorf("batch holds overlapping windows %+v and %+v", wi, wj)
				}
			}
		}
	}
	if total != len(r.segs) {
		t.Errorf("%d of %d segments batched", total, len(r.segs))
	}
	if len(batches) < 2 {
		t.Errorf("clustered segments should force ≥ 2 batches, got %d", len(batches))
	}
	r.reclaimBatches()
}

// TestHeapOrdering pushes a shuffled sequence and pops it back sorted.
func TestHeapOrdering(t *testing.T) {
	var h searchHeap
	vals := []float64{5, 1, 4, 1.5, 9, 0.25, 7, 3, 2}
	for i, v := range vals {
		h.push(heapEntry{prio: v, g: v, idx: int32(i)})
	}
	prev := math.Inf(-1)
	for len(h) > 0 {
		e := h.pop()
		if e.prio < prev {
			t.Fatalf("heap popped %v after %v", e.prio, prev)
		}
		prev = e.prio
	}
}
