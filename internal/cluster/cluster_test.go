package cluster

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/wl"
)

// chainProblem builds n unit objects in a chain: i — i+1 nets, all in one
// group/region.
func chainProblem(n int) *Problem {
	p := &Problem{
		Area:   make([]float64, n),
		HalfW:  make([]float64, n),
		HalfH:  make([]float64, n),
		Group:  make([]int, n),
		Region: make([]int, n),
		Macro:  make([]bool, n),
		X:      make([]float64, n),
		Y:      make([]float64, n),
	}
	for i := 0; i < n; i++ {
		p.Area[i] = 1
		p.HalfW[i] = 0.5
		p.HalfH[i] = 0.5
		p.Group[i] = -1
		p.Region[i] = -1
		p.X[i] = float64(i)
	}
	for i := 0; i+1 < n; i++ {
		p.Nets = append(p.Nets, wl.Net{Weight: 1, Pins: []wl.PinRef{{Obj: i}, {Obj: i + 1}}})
	}
	return p
}

func TestCoarsenHalvesChain(t *testing.T) {
	p := chainProblem(100)
	next, mapping, ok := coarsen(p)
	if !ok {
		t.Fatal("no merges on a chain")
	}
	if next.NumObjs() >= 100 || next.NumObjs() < 50 {
		t.Errorf("coarse size = %d, want in [50, 100)", next.NumObjs())
	}
	if len(mapping) != 100 {
		t.Fatalf("mapping length %d", len(mapping))
	}
	// Area conservation.
	if math.Abs(next.TotalArea()-p.TotalArea()) > 1e-9 {
		t.Errorf("area changed: %v -> %v", p.TotalArea(), next.TotalArea())
	}
	// Mapping must be onto [0, next.NumObjs()).
	seen := make([]bool, next.NumObjs())
	for _, c := range mapping {
		if c < 0 || c >= next.NumObjs() {
			t.Fatalf("mapping out of range: %d", c)
		}
		seen[c] = true
	}
	for c, s := range seen {
		if !s {
			t.Errorf("coarse object %d has no members", c)
		}
	}
}

func TestGroupBoundaryRespected(t *testing.T) {
	p := chainProblem(10)
	// Two groups split at index 5: the 4–5 edge must never merge.
	for i := range p.Group {
		if i >= 5 {
			p.Group[i] = 1
		} else {
			p.Group[i] = 0
		}
	}
	h := Build(p, Options{MinObjs: 1})
	top := h.Levels[len(h.Levels)-1]
	if top.NumObjs() < 2 {
		t.Fatalf("groups collapsed into %d objects", top.NumObjs())
	}
	// Verify by walking mappings: objects 0 and 9 must never share a
	// cluster.
	a, b := 0, 9
	for _, m := range h.Maps {
		a, b = m[a], m[b]
		if a == b {
			t.Fatal("objects from different groups merged")
		}
	}
}

func TestRegionBoundaryRespected(t *testing.T) {
	p := chainProblem(10)
	p.Region[3] = 7 // lone fenced object
	h := Build(p, Options{MinObjs: 1})
	idx := 3
	for l, m := range h.Maps {
		idx = m[idx]
		lvl := h.Levels[l+1]
		if lvl.Region[idx] != 7 {
			t.Fatal("fenced object lost its region")
		}
		if lvl.Area[idx] != 1 {
			t.Fatal("fenced object merged with incompatible neighbor")
		}
	}
}

func TestMacrosNeverMerge(t *testing.T) {
	p := chainProblem(10)
	p.Macro[4] = true
	p.Area[4] = 100
	h := Build(p, Options{MinObjs: 1})
	idx := 4
	for l, m := range h.Maps {
		idx = m[idx]
		if h.Levels[l+1].Area[idx] != 100 {
			t.Fatal("macro merged with a neighbor")
		}
		if !h.Levels[l+1].Macro[idx] {
			t.Fatal("macro flag lost")
		}
	}
}

func TestBuildReachesTarget(t *testing.T) {
	p := chainProblem(1000)
	h := Build(p, Options{MinObjs: 50})
	top := h.Levels[len(h.Levels)-1]
	if top.NumObjs() > 100 {
		t.Errorf("top level still has %d objects", top.NumObjs())
	}
	if len(h.Levels) < 3 {
		t.Errorf("expected several levels, got %d", len(h.Levels))
	}
}

func TestNetLoweringDropsInternalNets(t *testing.T) {
	// Two objects joined by one net merge; their net must disappear.
	p := chainProblem(2)
	next, _, ok := coarsen(p)
	if !ok {
		t.Fatal("no merge")
	}
	if next.NumObjs() != 1 {
		t.Fatalf("expected 1 cluster, got %d", next.NumObjs())
	}
	if len(next.Nets) != 0 {
		t.Errorf("internal net survived: %+v", next.Nets)
	}
}

func TestNetLoweringKeepsFixedPins(t *testing.T) {
	p := chainProblem(2)
	p.Nets = append(p.Nets, wl.Net{Weight: 1, Pins: []wl.PinRef{
		{Obj: 0},
		{Obj: wl.Fixed, OffX: 50, OffY: 50},
	}})
	next, _, ok := coarsen(p)
	if !ok {
		t.Fatal("no merge")
	}
	found := false
	for _, n := range next.Nets {
		for _, pin := range n.Pins {
			if pin.Obj == wl.Fixed && pin.OffX == 50 {
				found = true
			}
		}
	}
	if !found {
		t.Error("fixed pin lost during lowering")
	}
}

func TestInterpolatePlacesMembersNearCluster(t *testing.T) {
	p := chainProblem(40)
	h := Build(p, Options{MinObjs: 5})
	if len(h.Levels) < 2 {
		t.Fatal("no coarsening happened")
	}
	top := len(h.Levels) - 1
	// Move top-level clusters to distinctive positions.
	for i := 0; i < h.Levels[top].NumObjs(); i++ {
		h.Levels[top].X[i] = float64(100 + i*10)
		h.Levels[top].Y[i] = 42
	}
	for l := top - 1; l >= 0; l-- {
		h.Interpolate(l)
	}
	// Every fine object must sit near its (transitive) cluster.
	for i := 0; i < 40; i++ {
		c := i
		for _, m := range h.Maps {
			c = m[c]
		}
		cx := h.Levels[top].X[c]
		dx := math.Abs(h.Levels[0].X[i] - cx)
		if dx > 10 {
			t.Errorf("object %d interpolated %v away from cluster at %v", i, dx, cx)
		}
	}
	// Coincident members must be staggered apart.
	distinct := map[[2]float64]bool{}
	for i := 0; i < 40; i++ {
		distinct[[2]float64{h.Levels[0].X[i], h.Levels[0].Y[i]}] = true
	}
	if len(distinct) < 20 {
		t.Errorf("interpolation left too many coincident objects: %d distinct", len(distinct))
	}
}

func TestClusterCentroidIsAreaWeighted(t *testing.T) {
	p := chainProblem(2)
	p.Area[0] = 3
	p.Area[1] = 1
	p.X[0] = 0
	p.X[1] = 4
	next, mapping, ok := coarsen(p)
	if !ok {
		t.Fatal("no merge")
	}
	c := mapping[0]
	if math.Abs(next.X[c]-1.0) > 1e-9 { // (3·0 + 1·4)/4
		t.Errorf("centroid = %v, want 1", next.X[c])
	}
}

func TestHugeNetsIgnoredForScoring(t *testing.T) {
	// A single net connecting everything must not drive clustering by
	// itself when over the degree cap.
	n := 30
	p := &Problem{
		Area:   make([]float64, n),
		HalfW:  make([]float64, n),
		HalfH:  make([]float64, n),
		Group:  make([]int, n),
		Region: make([]int, n),
		Macro:  make([]bool, n),
		X:      make([]float64, n),
		Y:      make([]float64, n),
	}
	big := wl.Net{Weight: 1}
	for i := 0; i < n; i++ {
		p.Area[i] = 1
		p.Group[i] = -1
		p.Region[i] = -1
		big.Pins = append(big.Pins, wl.PinRef{Obj: i})
	}
	p.Nets = []wl.Net{big}
	_, _, ok := coarsen(p)
	if ok {
		t.Error("degree-capped net still produced merges")
	}
}

func TestDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	build := func() *Hierarchy {
		p := chainProblem(200)
		// Add random cross nets from a fixed seed for both runs.
		r := rand.New(rand.NewSource(99))
		for i := 0; i < 100; i++ {
			a, b := r.Intn(200), r.Intn(200)
			if a != b {
				p.Nets = append(p.Nets, wl.Net{Weight: 1, Pins: []wl.PinRef{{Obj: a}, {Obj: b}}})
			}
		}
		return Build(p, Options{MinObjs: 20})
	}
	h1 := build()
	h2 := build()
	_ = rng
	if len(h1.Levels) != len(h2.Levels) {
		t.Fatal("level counts differ between identical builds")
	}
	for l := range h1.Maps {
		for i := range h1.Maps[l] {
			if h1.Maps[l][i] != h2.Maps[l][i] {
				t.Fatalf("mapping differs at level %d obj %d", l, i)
			}
		}
	}
}
