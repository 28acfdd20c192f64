package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/eco"
	"repro/internal/gen"
)

// TestPlaceDelta pins the ECO entry's contract with its callers: a
// repaired delta reports the repair on Result.Eco, and a delta out of
// windowed repair's reach runs the full flow and leaves Result.Eco nil,
// also when that full run fails. placerd marks fell_back from it.
func TestPlaceDelta(t *testing.T) {
	d := gen.MustGenerate(smallCfg())
	p := MustNew(Config{Workers: 1})
	base := eco.FromDesign(d)

	res, err := p.PlaceDelta(context.Background(), d, eco.DiffPlacement(d, base), base)
	if err != nil {
		t.Fatal(err)
	}
	if res.Eco == nil || len(res.Eco.Windows) != 0 || res.HPWLFinal != d.HPWL() {
		t.Fatalf("empty delta: Eco %+v, HPWLFinal %g (design %g), want a windowless repair", res.Eco, res.HPWLFinal, d.HPWL())
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err = p.PlaceDelta(ctx, d, &eco.Diff{MacroDelta: true}, base)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("macro delta under a canceled context: err = %v, want the full run's context.Canceled", err)
	}
	if res.Eco != nil {
		t.Errorf("fallback left Result.Eco = %+v, want nil", res.Eco)
	}
}
