package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/bookshelf"
	"repro/internal/gen"
)

// TestFlowPinnedSbA pins the full flow's exact outcome on sb-a (2,038
// cells, macros, 4 fences) at one and two workers: the .pl digest and
// the global placer's λ rounds, CG iterations and objective value
// evaluations. The values were taken before the line search learned to
// stop valuing a provably rejected trial, a pure speedup, so any drift
// here is a behavior change.
func TestFlowPinnedSbA(t *testing.T) {
	cases := []struct {
		workers                          int
		lambdaRounds, cgIters, valueEval int
		pl                               string
	}{
		{1, 80, 1609, 7565, "42e465e458ae8342"},
		{2, 77, 1659, 7937, "68888c2f05db7b67"},
	}
	for _, tc := range cases {
		d := gen.MustGenerate(gen.Suite()[0])
		res, err := MustNew(Config{Workers: tc.workers}).Place(d)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := bookshelf.WritePl(&buf, d); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		pl := hex.EncodeToString(sum[:8])
		if res.LambdaRounds != tc.lambdaRounds || res.CGIters != tc.cgIters || res.ValueEvals != tc.valueEval || pl != tc.pl {
			t.Errorf("workers=%d: lambda-rounds=%d cg-iters=%d value-evals=%d pl %s, want %d %d %d pl %s",
				tc.workers, res.LambdaRounds, res.CGIters, res.ValueEvals, pl,
				tc.lambdaRounds, tc.cgIters, tc.valueEval, tc.pl)
		}
	}
}
