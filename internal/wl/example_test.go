package wl_test

import (
	"fmt"
	"math"

	"repro/internal/wl"
)

func ExampleWA() {
	// One two-pin net between movable objects 0 and 1, plus a fixed pad.
	nl := &wl.Netlist{
		NumObjs: 2,
		Nets: []wl.Net{{
			Weight: 1,
			Pins: []wl.PinRef{
				{Obj: 0},
				{Obj: 1},
				{Obj: wl.Fixed, OffX: 0, OffY: 0},
			},
		}},
	}
	x := []float64{10, 30}
	y := []float64{0, 0}
	exact := wl.HPWL(nl, x, y)
	smooth := wl.NewEvaluator(nl, wl.WA, 1, 1, math.Inf(1)).Value(x, y, math.Inf(1))
	fmt.Printf("HPWL %.1f, WA underestimates: %v\n", exact, smooth <= exact)
	// Output:
	// HPWL 30.0, WA underestimates: true
}
