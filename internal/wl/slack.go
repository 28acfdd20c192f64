package wl

import "math"

// The bounds behind Value's early stop. u is the unit roundoff of
// float64 arithmetic.
const (
	u = 0x1p-53
	// termK is termSlack's constant per pin.
	termK = 64
	// minReach floors the coordinate magnitude the bounds use, so that
	// subnormal products and exponentials stay inside them.
	minReach = 0x1p-900
)

// termSlack bounds how far below zero rounding can pull w times one
// axis's WA value of a net with deg pins whose coordinates are at most v
// in magnitude.
//
// In exact arithmetic the term is ≥ 0: the weights a grow and b fall with
// the coordinate, so Σv·a/Σa ≥ mean ≥ Σv·b/Σb (Chebyshev's sum
// inequality). In floating point two errors enter. (1) Each computed
// weight is within c ≈ 3u of the exact exponential (argument rounding
// costs at most 2u·|x|·eˣ ≤ 0.75u, exp one ulp), and the extreme pins'
// weights are exactly 1, so a weight error moves an average by at most
// (hi − lo)·Σ|Δa| ≤ 2v·deg·c. (2) The recursive sums and the division
// move an average by at most (2·deg + 1)·u·v. Both averages together
// give a term ≥ −(16·deg − 10)·u·v; with the final subtraction and the
// weight multiply rounding on top, termK = 64 still leaves room for an
// exp that is off by several ulps. The LSE value needs no slack: its
// terms are ≥ 0 by the monotonicity of rounding.
func termSlack(w float64, deg int, v float64) float64 {
	return w * termK * float64(deg) * u * math.Max(v, minReach)
}

// deriveSlack returns Slack for object coordinates within ±reach.
//
// Let v_k bound net k's pin coordinates: reach plus its largest movable
// pin offset, or its largest fixed pin coordinate. Then S, the sum of
// 2·termSlack over the nets (WA only), bounds how far all terms together
// reach below zero, and W, the sum of 2·w_k·(2·v_k + 2γ·deg_k), bounds
// every partial sum's magnitude: a WA term is at most the net's spread,
// an LSE term adds γ·ln deg per extreme. Each addition rounds by at most
// u·(W + S). Rounding is monotone, so a partial sum P that is a node of
// the total's summation — on one thread over one shard, the running
// total — ends in a total ≥ P − S − m·u·(W + S), where m = 2·nets +
// shards + 1 counts the additions after it, within the shards or across
// their reduction. On the slots P is instead the sum of the chunks'
// published partials, which the total does not contain: the exact sum of
// P's terms is ≥ P minus the rounding of P's own ≤ 2·nets + chunks
// additions, so m grows by that many. The slack doubles the
// bound to cover its own rounding. A weight that is not positive and
// finite voids the argument, and so does a non-finite reach: the slack
// is then +Inf or NaN, and Value never stops early.
func (e *Evaluator) deriveSlack(reach float64) float64 {
	var neg, mag float64
	terms := 0
	for k, w := range e.weight {
		p0, p1 := e.start[k], e.start[k+1]
		if p1-p0 < 2 {
			continue
		}
		if !(w > 0) || math.IsInf(w, 1) {
			return math.Inf(1)
		}
		v := 0.0
		for p := p0; p < p1; p++ {
			ox, oy := math.Abs(e.ax.off[p]), math.Abs(e.ay.off[p])
			if e.obj[p] != Fixed {
				ox += reach
				oy += reach
			}
			v = math.Max(v, math.Max(ox, oy))
		}
		deg := int(p1 - p0)
		if e.model == WA {
			neg += 2 * termSlack(w, deg, v)
		}
		mag += 2 * w * (2*v + 2*e.gamma*float64(deg))
		terms += 2
	}
	m := terms + e.shards + 1
	if !e.plain() {
		m += terms + e.chunks()
	}
	return 2 * (neg + float64(m)*u*(mag+neg))
}
