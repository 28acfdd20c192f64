package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/bookshelf"
	"repro/internal/db"
	"repro/internal/gen"
	"repro/internal/snap"
)

// plBytes is d's .pl file.
func plBytes(t *testing.T, d *db.Design) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := bookshelf.WritePl(&buf, d); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// plDigest is the first 8 bytes of the SHA-256 of d's .pl file, in hex.
func plDigest(t *testing.T, d *db.Design) string {
	t.Helper()
	sum := sha256.Sum256(plBytes(t, d))
	return hex.EncodeToString(sum[:8])
}

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
		pl := plDigest(t, d)
		if res.LambdaRounds != tc.lambdaRounds || res.CGIters != tc.cgIters || res.ValueEvals != tc.valueEval || pl != tc.pl {
			t.Errorf("workers=%d: lambda-rounds=%d cg-iters=%d value-evals=%d pl %s, want %d %d %d pl %s",
				tc.workers, res.LambdaRounds, res.CGIters, res.ValueEvals, pl,
				tc.lambdaRounds, tc.cgIters, tc.valueEval, tc.pl)
		}
	}
}

// TestResumePinned pins what a resume produces on resumeGenCfg(3) and
// resumeGenCfg(7) at one worker: the .pl digest, the λ rounds, CG
// iterations and value evaluations, and a digest of the checkpoint
// stream the resumed run emits. Each design resumes from the round-1
// and round-5 GP checkpoints and the first routability checkpoint of an
// uninterrupted run. The GP-stage resumes write the uninterrupted run's
// .pl; seed 3's routability resume ends elsewhere. Any drift here is a
// behavior change.
func TestResumePinned(t *testing.T) {
	cases := []struct {
		seed                             int64
		from                             string
		lambdaRounds, cgIters, valueEval int
		pl, stream                       string
	}{
		{3, "gp-1", 32, 637, 4106, "9de6ef8d1810e66d", "9b322d541e8123c8"},
		{3, "gp-5", 32, 583, 3893, "9de6ef8d1810e66d", "a926a8825140f47a"},
		{3, "route-1", 56, 120, 722, "07e3660cc8ea09a3", "0f9ae0d33b7f1056"},
		{7, "gp-1", 16, 310, 1666, "b7270e380e2a158b", "5c7103d464a2705b"},
		{7, "gp-5", 16, 262, 1471, "b7270e380e2a158b", "b1020bd85fd3f376"},
		{7, "route-1", 32, 60, 416, "b7270e380e2a158b", "fc525f9b7f2b99c1"},
	}
	streams := map[int64]map[string][]byte{}
	for _, tc := range cases {
		from := streams[tc.seed]
		if from == nil {
			from = map[string][]byte{}
			cfg := resumeCfg()
			cfg.Checkpoint = func(st *snap.State) {
				key := fmt.Sprintf("gp-%d", st.Round)
				if st.Stage == snap.StageRoutability {
					key = fmt.Sprintf("route-%d", st.RoutIter)
				}
				from[key] = snap.Encode(st)
			}
			if _, err := MustNew(cfg).Place(gen.MustGenerate(resumeGenCfg(tc.seed))); err != nil {
				t.Fatal(err)
			}
			streams[tc.seed] = from
		}
		blob := from[tc.from]
		if blob == nil {
			t.Fatalf("seed %d: the run emitted no %s checkpoint", tc.seed, tc.from)
		}
		st, err := snap.Decode(blob)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		cfg := resumeCfg()
		cfg.Checkpoint = func(st *snap.State) { h.Write(snap.Encode(st)) }
		d := gen.MustGenerate(resumeGenCfg(tc.seed))
		res, err := MustNew(cfg).PlaceFromCheckpoint(context.Background(), d, st)
		if err != nil {
			t.Fatalf("seed %d from %s: %v", tc.seed, tc.from, err)
		}
		pl, stream := plDigest(t, d), hex.EncodeToString(h.Sum(nil)[:8])
		if res.LambdaRounds != tc.lambdaRounds || res.CGIters != tc.cgIters || res.ValueEvals != tc.valueEval || pl != tc.pl || stream != tc.stream {
			t.Errorf("seed %d from %s: lambda-rounds=%d cg-iters=%d value-evals=%d pl %s stream %s, want %d %d %d pl %s stream %s",
				tc.seed, tc.from, res.LambdaRounds, res.CGIters, res.ValueEvals, pl, stream,
				tc.lambdaRounds, tc.cgIters, tc.valueEval, tc.pl, tc.stream)
		}
	}
}
