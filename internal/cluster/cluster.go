// Package cluster implements the hierarchy-aware multilevel coarsening
// used by global placement. Objects connected by strong nets are merged
// level by level (first-choice clustering with best-neighbor scoring)
// until the problem is small enough to optimize cheaply; solutions are
// then interpolated back down, level by level, for refinement.
//
// Hierarchy awareness is the property that distinguishes this placer's
// clustering: two objects may merge only when they belong to the same
// logical module (same Group) and the same fence region, so clusters never
// straddle a fence boundary and the declustered placement inherits the
// hierarchical structure instead of fighting it. Macros never merge.
package cluster

import (
	"math"
	"sort"

	"repro/internal/obs"
	"repro/internal/wl"
)

// Problem is one level of the multilevel hierarchy: a flat placement view
// with per-object metadata and a netlist over object indices (wl.Fixed
// pins are absolute).
type Problem struct {
	// Per-object arrays, all of length NumObjs().
	Area         []float64
	HalfW, HalfH []float64
	// Group is the hierarchy-compatibility key (module index, or -1 for
	// root-level objects); only equal groups merge.
	Group []int
	// Region is the fence constraint (db.NoRegion = -1 when free); only
	// equal regions merge.
	Region []int
	// Macro marks objects that must not participate in clustering.
	Macro []bool
	// X, Y are object centers.
	X, Y []float64
	// Nets is the connectivity over this level's objects.
	Nets []wl.Net
}

// NumObjs returns the number of objects at this level.
func (p *Problem) NumObjs() int { return len(p.Area) }

// TotalArea returns the sum of object areas.
func (p *Problem) TotalArea() float64 {
	var a float64
	for _, v := range p.Area {
		a += v
	}
	return a
}

// Clone deep-copies the problem (used by experiments that perturb levels).
func (p *Problem) Clone() *Problem {
	out := &Problem{
		Area:   append([]float64(nil), p.Area...),
		HalfW:  append([]float64(nil), p.HalfW...),
		HalfH:  append([]float64(nil), p.HalfH...),
		Group:  append([]int(nil), p.Group...),
		Region: append([]int(nil), p.Region...),
		Macro:  append([]bool(nil), p.Macro...),
		X:      append([]float64(nil), p.X...),
		Y:      append([]float64(nil), p.Y...),
		Nets:   make([]wl.Net, len(p.Nets)),
	}
	for i := range p.Nets {
		out.Nets[i] = p.Nets[i]
		out.Nets[i].Pins = append([]wl.PinRef(nil), p.Nets[i].Pins...)
	}
	return out
}

// Hierarchy is a stack of increasingly coarse problems. Levels[0] is the
// original problem; Maps[l][i] gives the index at Levels[l+1] of the
// cluster containing object i of Levels[l].
type Hierarchy struct {
	Levels []*Problem
	Maps   [][]int
}

const (
	// maxClusterAreaFactor bounds any cluster to this multiple of the
	// average object area at the level being coarsened.
	maxClusterAreaFactor = 10
	// maxLevels bounds the hierarchy depth.
	maxLevels = 6
	// maxNetDegree ignores nets larger than this during scoring; huge
	// nets carry little locality information.
	maxNetDegree = 16
)

// Options tunes coarsening.
type Options struct {
	// MinObjs stops coarsening when a level has at most this many objects
	// (default 500).
	MinObjs int

	// Obs, when non-nil, records a coarsening span with per-level
	// object/net counters and debug logging (telemetry only — it never
	// changes the hierarchy).
	Obs *obs.Recorder
}

func (o Options) withDefaults() Options {
	if o.MinObjs <= 0 {
		o.MinObjs = 500
	}
	return o
}

// Build constructs the multilevel hierarchy above p.
func Build(p *Problem, opt Options) *Hierarchy {
	opt = opt.withDefaults()
	sp := opt.Obs.StartSpan("coarsen")
	h := &Hierarchy{Levels: []*Problem{p}}
	for len(h.Levels) < maxLevels {
		cur := h.Levels[len(h.Levels)-1]
		if cur.NumObjs() <= opt.MinObjs {
			break
		}
		lvl := sp.StartSpanf("level-%d", len(h.Levels))
		next, mapping, merged := coarsen(cur)
		if !merged {
			lvl.End()
			break
		}
		h.Levels = append(h.Levels, next)
		h.Maps = append(h.Maps, mapping)
		if lvl != nil {
			lvl.Add("objects", int64(next.NumObjs()))
			lvl.Add("nets", int64(len(next.Nets)))
			lvl.End()
		}
	}
	if sp != nil {
		sp.Add("levels", int64(len(h.Levels)))
		sp.End()
		opt.Obs.Log().Debug("coarsen done",
			"levels", len(h.Levels),
			"objects_fine", p.NumObjs(),
			"objects_coarse", h.Levels[len(h.Levels)-1].NumObjs())
	}
	return h
}

// Interpolate copies cluster positions from level l+1 down to level l:
// every fine object moves to its cluster's center. A small deterministic
// stagger breaks exact coincidence so the next refinement has usable
// gradients.
func (h *Hierarchy) Interpolate(l int) {
	fine := h.Levels[l]
	coarse := h.Levels[l+1]
	mapping := h.Maps[l]
	counter := make([]int, coarse.NumObjs())
	for i := 0; i < fine.NumObjs(); i++ {
		c := mapping[i]
		k := counter[c]
		counter[c]++
		// Golden-angle stagger within a radius proportional to the
		// cluster footprint.
		r := 0.3 * math.Sqrt(coarse.Area[c]) * math.Sqrt(float64(k)/(float64(k)+8))
		a := 2.399963 * float64(k)
		fine.X[i] = coarse.X[c] + r*math.Cos(a)
		fine.Y[i] = coarse.Y[c] + r*math.Sin(a)
	}
}

// edge is one scored candidate pair during clustering.
type edge struct {
	u, v int
	w    float64
}

// coarsen performs one first-choice clustering pass. It returns the
// coarser problem, the fine→coarse mapping, and whether any merge
// happened.
func coarsen(p *Problem) (*Problem, []int, bool) {
	n := p.NumObjs()
	avgArea := p.TotalArea() / math.Max(1, float64(n))
	maxArea := avgArea * maxClusterAreaFactor

	// Pairwise connectivity weights from nets (clique model, weight
	// w/(d−1) per pair, degree-capped).
	type key struct{ u, v int }
	conn := make(map[key]float64)
	for ni := range p.Nets {
		net := &p.Nets[ni]
		d := len(net.Pins)
		if d < 2 || d > maxNetDegree {
			continue
		}
		w := net.Weight
		if w == 0 {
			w = 1
		}
		pw := w / float64(d-1)
		for i := 0; i < d; i++ {
			if net.Pins[i].Obj == wl.Fixed {
				continue
			}
			for j := i + 1; j < d; j++ {
				if net.Pins[j].Obj == wl.Fixed {
					continue
				}
				u, v := net.Pins[i].Obj, net.Pins[j].Obj
				if u == v {
					continue
				}
				if u > v {
					u, v = v, u
				}
				conn[key{u, v}] += pw
			}
		}
	}
	if len(conn) == 0 {
		return nil, nil, false
	}

	// Score candidate pairs: connectivity normalized by combined area
	// (best-choice scoring), filtered by compatibility.
	edges := make([]edge, 0, len(conn))
	for k, w := range conn {
		u, v := k.u, k.v
		if p.Macro[u] || p.Macro[v] {
			continue
		}
		if p.Group[u] != p.Group[v] || p.Region[u] != p.Region[v] {
			continue
		}
		if p.Area[u]+p.Area[v] > maxArea {
			continue
		}
		edges = append(edges, edge{u, v, w / (p.Area[u] + p.Area[v] + avgArea)})
	}
	if len(edges) == 0 {
		return nil, nil, false
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].w != edges[j].w {
			return edges[i].w > edges[j].w
		}
		if edges[i].u != edges[j].u {
			return edges[i].u < edges[j].u
		}
		return edges[i].v < edges[j].v
	})

	// Greedy matching over the sorted edges.
	match := make([]int, n)
	for i := range match {
		match[i] = -1
	}
	merges := 0
	for _, e := range edges {
		if match[e.u] != -1 || match[e.v] != -1 {
			continue
		}
		match[e.u] = e.v
		match[e.v] = e.u
		merges++
	}
	if merges == 0 {
		return nil, nil, false
	}

	// Assign coarse indices: matched pairs share one, everything else
	// keeps its own cluster.
	mapping := make([]int, n)
	for i := range mapping {
		mapping[i] = -1
	}
	next := 0
	for i := 0; i < n; i++ {
		if mapping[i] != -1 {
			continue
		}
		mapping[i] = next
		if m := match[i]; m > i {
			mapping[m] = next
		}
		next++
	}

	// Build the coarse problem.
	out := &Problem{
		Area:   make([]float64, next),
		HalfW:  make([]float64, next),
		HalfH:  make([]float64, next),
		Group:  make([]int, next),
		Region: make([]int, next),
		Macro:  make([]bool, next),
		X:      make([]float64, next),
		Y:      make([]float64, next),
	}
	wsum := make([]float64, next)
	for i := 0; i < n; i++ {
		c := mapping[i]
		out.Area[c] += p.Area[i]
		out.Group[c] = p.Group[i]
		out.Region[c] = p.Region[i]
		out.Macro[c] = out.Macro[c] || p.Macro[i]
		out.X[c] += p.X[i] * p.Area[i]
		out.Y[c] += p.Y[i] * p.Area[i]
		wsum[c] += p.Area[i]
	}
	for c := 0; c < next; c++ {
		if wsum[c] > 0 {
			out.X[c] /= wsum[c]
			out.Y[c] /= wsum[c]
		}
		// Clusters are modeled as squares of equal area; singleton macros
		// keep their true footprint below.
		half := math.Sqrt(out.Area[c]) / 2
		out.HalfW[c] = half
		out.HalfH[c] = half
	}
	// Preserve exact footprints for unmerged objects (macros especially).
	for i := 0; i < n; i++ {
		if match[i] == -1 {
			c := mapping[i]
			out.HalfW[c] = p.HalfW[i]
			out.HalfH[c] = p.HalfH[i]
		}
	}

	// Lower the nets: remap pins, zero offsets for merged pins, dedupe,
	// and drop nets that collapse to fewer than two distinct endpoints.
	for ni := range p.Nets {
		net := &p.Nets[ni]
		seen := make(map[int]bool, len(net.Pins))
		newNet := wl.Net{Weight: net.Weight}
		fixedCount := 0
		for _, pin := range net.Pins {
			if pin.Obj == wl.Fixed {
				newNet.Pins = append(newNet.Pins, pin)
				fixedCount++
				continue
			}
			c := mapping[pin.Obj]
			if seen[c] {
				continue
			}
			seen[c] = true
			np := wl.PinRef{Obj: c}
			if match[pin.Obj] == -1 {
				// Unmerged object: the pin offset stays meaningful.
				np.OffX, np.OffY = pin.OffX, pin.OffY
			}
			newNet.Pins = append(newNet.Pins, np)
		}
		if len(seen)+fixedCount >= 2 {
			out.Nets = append(out.Nets, newNet)
		}
	}
	return out, mapping, true
}
