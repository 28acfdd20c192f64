package route

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/db"
)

// ACEPercentiles are the contest's congestion percentiles: the Average
// Congestion of the top-x% most congested g-cell Edges is computed for
// each x in this list and the RC index averages them.
var ACEPercentiles = []float64{0.5, 1, 2, 5}

// ACEProfile returns the ACE value at each of the contest percentiles,
// over the demand/capacity ratio of every edge with positive capacity.
func (g *Grid) ACEProfile() []float64 {
	ratios := make([]float64, 0, len(g.HDem)+len(g.VDem))
	for i := range g.HDem {
		if g.HCap[i] > 0 {
			ratios = append(ratios, g.HDem[i]/g.HCap[i])
		}
	}
	for i := range g.VDem {
		if g.VCap[i] > 0 {
			ratios = append(ratios, g.VDem[i]/g.VCap[i])
		}
	}
	return ACE(ratios)
}

// ACE turns demand/capacity ratios into the profile at ACEPercentiles:
// entry i is the mean of the top ACEPercentiles[i]% of the ratios (at
// least one), a ratio of 1.0 being exactly full. It sorts ratios in
// place, descending; no ratios give a profile of zeros.
func ACE(ratios []float64) []float64 {
	out := make([]float64, len(ACEPercentiles))
	if len(ratios) == 0 {
		return out
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(ratios)))
	for i, pct := range ACEPercentiles {
		k := int(float64(len(ratios)) * pct / 100)
		if k < 1 {
			k = 1
		}
		var s float64
		for _, r := range ratios[:k] {
			s += r
		}
		out[i] = s / float64(k)
	}
	return out
}

// RC converts an ACE profile into the contest's Routing Congestion index:
// RC = max(100, 100 · mean(ACE values)). 100 means "fits"; every point
// above 100 is penalized in the scaled wirelength.
func RC(aceProfile []float64) float64 {
	if len(aceProfile) == 0 {
		return 100
	}
	var s float64
	for _, v := range aceProfile {
		s += v
	}
	rc := 100 * s / float64(len(aceProfile))
	if rc < 100 {
		rc = 100
	}
	return rc
}

// PenaltyFactor is the contest's sHPWL slope: 3% of HPWL per RC point
// above 100.
const PenaltyFactor = 0.03

// ScaledHPWL applies the contest scoring: sHPWL = HPWL·(1 + 0.03·(RC−100)).
func ScaledHPWL(hpwl, rc float64) float64 {
	return hpwl * (1 + PenaltyFactor*(rc-100))
}

// Metrics bundles one evaluation of a placement.
type Metrics struct {
	HPWL        float64
	ACE         []float64 // at ACEPercentiles
	RC          float64
	ScaledHPWL  float64
	Overflow    float64
	MaxCong     float64
	RoutedTiles int
}

// EvaluateDesign builds the design's routing grid, routes every net and
// returns the full contest metric set. This is the evaluator the
// experiment tables call after placement.
func EvaluateDesign(d *db.Design, opt RouterOptions) (Metrics, error) {
	return EvaluateDesignCtx(context.Background(), d, opt)
}

// EvaluateDesignCtx is EvaluateDesign honoring ctx; on cancellation the
// zero Metrics and ctx's error are returned.
func EvaluateDesignCtx(ctx context.Context, d *db.Design, opt RouterOptions) (Metrics, error) {
	g, err := NewGrid(d)
	if err != nil {
		return Metrics{}, err
	}
	return Evaluate(ctx, g, d, opt)
}

// Evaluate is EvaluateDesignCtx on a grid the caller built with NewGrid:
// the routed demand stays on g, so a congestion plot can draw the map
// the metrics were taken from without routing again.
func Evaluate(ctx context.Context, g *Grid, d *db.Design, opt RouterOptions) (Metrics, error) {
	r := NewRouter(g, opt)
	res, err := r.RouteDesignCtx(ctx, d)
	if err != nil {
		return Metrics{}, err
	}
	ace := g.ACEProfile()
	rc := RC(ace)
	hp := d.HPWL()
	return Metrics{
		HPWL:        hp,
		ACE:         ace,
		RC:          rc,
		ScaledHPWL:  ScaledHPWL(hp, rc),
		Overflow:    res.Overflow,
		MaxCong:     res.MaxCongestion,
		RoutedTiles: res.WirelengthTiles,
	}, nil
}

// String renders the metrics as one report line.
func (m Metrics) String() string {
	return fmt.Sprintf("HPWL %.4g  RC %.1f  sHPWL %.4g  ovfl %.0f  maxcong %.2f  tiles %d",
		m.HPWL, m.RC, m.ScaledHPWL, m.Overflow, m.MaxCong, m.RoutedTiles)
}
