package core

import (
	"bytes"
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/route"
	"repro/internal/snap"
)

// resumeCfg is the placer configuration for the kill/resume tests: the
// full default flow with a fixed worker count so both runs are
// deterministic. Checkpoints are only emitted at the finest level, so the
// resumed (single-level) flow traverses the same level-0 machinery the
// uninterrupted run does.
func resumeCfg() Config {
	return Config{Workers: 1}
}

// resumeGenCfg generates a moderately congested design that the full flow
// legalizes cleanly: tight enough routing capacity that the routability
// loop actually inflates, loose enough placement density that overlaps
// resolve to zero (checked by the tests).
func resumeGenCfg(seed int64) gen.Config {
	return gen.Config{
		Name: "ck", Seed: seed, NumStdCells: 500,
		NumFixedMacros: 2, NumMovableMacros: 1, MacroSizeRows: 4,
		NumModules: 3, NumFences: 2, NumTerminals: 24,
		TargetUtil: 0.58, TrackCapacity: 12,
	}
}

// TestCheckpointResumeEquivalence is the acceptance test for the
// persistence subsystem: a run checkpointed every λ round and killed
// mid-GP, then resumed from its last checkpoint on a freshly loaded
// design at the same worker count, must write the uninterrupted run's
// .pl byte for byte, and so its legality and sHPWL.
func TestCheckpointResumeEquivalence(t *testing.T) {
	genCfg := resumeGenCfg(3)

	// Uninterrupted reference run.
	ref := gen.MustGenerate(genCfg)
	refRes, err := MustNew(resumeCfg()).Place(ref)
	if err != nil {
		t.Fatalf("reference Place: %v", err)
	}
	refPl := plBytes(t, ref)
	refM, err := route.EvaluateDesign(ref, route.RouterOptions{Workers: 1})
	if err != nil {
		t.Fatalf("reference evaluate: %v", err)
	}

	// Checkpointed run, killed deterministically mid-GP: the context is
	// canceled inside the checkpoint hook itself (same goroutine), so the
	// solver stops at the following λ round on every execution.
	const killAfter = 5
	var blobs [][]byte
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := resumeCfg()
	cfg.Checkpoint = func(st *snap.State) {
		blobs = append(blobs, snap.Encode(st))
		if st.Stage == snap.StageGP && st.Round >= killAfter {
			cancel()
		}
	}
	killed := gen.MustGenerate(genCfg)
	if _, err := MustNew(cfg).PlaceContext(ctx, killed); !errors.Is(err, context.Canceled) {
		t.Fatalf("killed run err = %v, want context.Canceled", err)
	}
	if len(blobs) < killAfter {
		t.Fatalf("only %d checkpoints before the kill", len(blobs))
	}

	// Resume on a fresh design (as a restarted process would reload it)
	// from the last checkpoint, decoded through the real codec.
	last, err := snap.Decode(blobs[len(blobs)-1])
	if err != nil {
		t.Fatalf("decode last checkpoint: %v", err)
	}
	if last.Stage != snap.StageGP {
		t.Fatalf("last checkpoint stage = %v, want gp", last.Stage)
	}
	resumed := gen.MustGenerate(genCfg)
	res, err := MustNew(resumeCfg()).PlaceFromCheckpoint(context.Background(), resumed, last)
	if err != nil {
		t.Fatalf("PlaceFromCheckpoint: %v", err)
	}
	if res.Overlaps != 0 || res.OutOfDie != 0 || res.FenceViolations != 0 {
		t.Errorf("resumed placement not legal: overlaps=%d out=%d fence=%d",
			res.Overlaps, res.OutOfDie, res.FenceViolations)
	}
	if res.LambdaRounds <= last.Round {
		t.Errorf("resumed run reports %d λ rounds, checkpoint already had %d", res.LambdaRounds, last.Round)
	}
	if !bytes.Equal(plBytes(t, resumed), refPl) {
		t.Error("resumed .pl differs from the uninterrupted run's")
	}

	resM, err := route.EvaluateDesign(resumed, route.RouterOptions{Workers: 1})
	if err != nil {
		t.Fatalf("resumed evaluate: %v", err)
	}
	rel := math.Abs(resM.ScaledHPWL-refM.ScaledHPWL) / refM.ScaledHPWL
	t.Logf("sHPWL uninterrupted=%.6g resumed=%.6g (Δ %.3f%%)",
		refM.ScaledHPWL, resM.ScaledHPWL, 100*rel)
	if rel > 0.01 {
		t.Errorf("resumed sHPWL %.6g deviates %.2f%% from uninterrupted %.6g (budget 1%%)",
			resM.ScaledHPWL, 100*rel, refM.ScaledHPWL)
	}
	if refRes.Overlaps != 0 {
		t.Errorf("reference run not legal: %d overlaps", refRes.Overlaps)
	}
}

// TestCheckpointRoutabilityResume kills the run between routability
// iterations and resumes from the StageRoutability snapshot, which must
// restore the router demand grid and still finish legally.
func TestCheckpointRoutabilityResume(t *testing.T) {
	genCfg := resumeGenCfg(7)

	var routBlob []byte
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := resumeCfg()
	cfg.Checkpoint = func(st *snap.State) {
		if st.Stage == snap.StageRoutability {
			routBlob = snap.Encode(st)
			cancel()
		}
	}
	killed := gen.MustGenerate(genCfg)
	_, err := MustNew(cfg).PlaceContext(ctx, killed)
	if routBlob == nil {
		t.Skipf("design converged without inflation (no routability checkpoint); err=%v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("killed run err = %v, want context.Canceled", err)
	}

	st, err := snap.Decode(routBlob)
	if err != nil {
		t.Fatal(err)
	}
	if st.Route == nil {
		t.Fatal("routability checkpoint carries no demand grid")
	}
	if st.RoutIter < 1 {
		t.Fatalf("RoutIter = %d, want >= 1", st.RoutIter)
	}
	anyInflated := false
	for _, r := range st.Inflate {
		if r > 1 {
			anyInflated = true
			break
		}
	}
	if !anyInflated {
		t.Error("routability checkpoint carries no inflation")
	}

	resumed := gen.MustGenerate(genCfg)
	res, err := MustNew(resumeCfg()).PlaceFromCheckpoint(context.Background(), resumed, st)
	if err != nil {
		t.Fatalf("PlaceFromCheckpoint: %v", err)
	}
	if res.Overlaps != 0 || res.OutOfDie != 0 || res.FenceViolations != 0 {
		t.Errorf("resumed placement not legal: overlaps=%d out=%d fence=%d",
			res.Overlaps, res.OutOfDie, res.FenceViolations)
	}
	if res.HPWLFinal <= 0 {
		t.Error("no final HPWL")
	}
}

func TestPlaceFromCheckpointValidation(t *testing.T) {
	d := gen.MustGenerate(smallCfg())
	pl := MustNew(resumeCfg())
	ctx := context.Background()

	if _, err := pl.PlaceFromCheckpoint(ctx, d, nil); err == nil {
		t.Error("nil checkpoint accepted")
	}

	// Wrong cell count.
	st := &snap.State{Stage: snap.StageGP, X: []float64{1}, Y: []float64{1},
		Orient: []uint8{0}, Inflate: []float64{1}}
	if _, err := pl.PlaceFromCheckpoint(ctx, d, st); err == nil {
		t.Error("cell-count mismatch accepted")
	}

	// Right count, wrong fingerprint.
	n := len(d.Cells)
	st = &snap.State{Stage: snap.StageGP,
		X: make([]float64, n), Y: make([]float64, n),
		Orient: make([]uint8, n), Inflate: make([]float64, n)}
	st.Fingerprint[0] = 0xde
	if _, err := pl.PlaceFromCheckpoint(ctx, d, st); err == nil {
		t.Error("fingerprint mismatch accepted")
	}

	// Unknown stage.
	st.Fingerprint = d.Fingerprint()
	st.Stage = 99
	if _, err := pl.PlaceFromCheckpoint(ctx, d, st); err == nil {
		t.Error("unknown stage accepted")
	}

	// Config mismatch: the checkpoint ran with a different congestion
	// source than the resuming placer.
	st.Stage = snap.StageGP
	st.Config = recordConfig(resumeCfg().withDefaults())
	st.Config.CongestionSource = "estimate"
	if _, err := pl.PlaceFromCheckpoint(ctx, d, st); err == nil ||
		!strings.Contains(err.Error(), "congestion source") {
		t.Errorf("config mismatch err = %v, want congestion-source complaint", err)
	}
}

// ValidateResumeConfig must pass identical configs (and config-less v1
// checkpoints) and name every mismatched knob, while ignoring the worker
// count — a resume at another worker count is legal.
func TestValidateResumeConfig(t *testing.T) {
	base := Config{Workers: 2, CongestionSource: "estimate", RouteLastRounds: 2}
	st := &snap.State{Config: recordConfig(base.withDefaults())}

	if err := ValidateResumeConfig(base, st); err != nil {
		t.Errorf("identical config rejected: %v", err)
	}
	if err := ValidateResumeConfig(base, &snap.State{}); err != nil {
		t.Errorf("config-less checkpoint rejected: %v", err)
	}

	workers := base
	workers.Workers = 8
	if err := ValidateResumeConfig(workers, st); err != nil {
		t.Errorf("worker-count change rejected: %v", err)
	}

	changed := base
	changed.CongestionSource = "route"
	changed.RouteLastRounds = 0 // defaults to 1, recorded run used 2
	changed.DisableDP = true
	err := ValidateResumeConfig(changed, st)
	if err == nil {
		t.Fatal("mismatched config accepted")
	}
	for _, want := range []string{"congestion source", "route last rounds", "disable dp"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("mismatch error %q does not name %q", err, want)
		}
	}
}

// TestResumeRejectsEveryChangedOption: a checkpoint recorded under the
// defaults must not resume under a config that changes any one JSON
// option, except the ones exempt lists. A new Config field therefore
// either reaches the checkpoint's config section or gets an exemption
// with its reason here.
func TestResumeRejectsEveryChangedOption(t *testing.T) {
	exempt := map[string]string{
		"workers":           "a resume at another worker count is legal, though not byte-identical",
		"disable_quad_init": "a resume never runs the warm start",
	}
	// other holds another valid value for the options that a generic
	// change (flip a bool, add 1 to an int, scale a float) cannot give.
	other := map[string]any{
		"model":             "lse",
		"congestion_source": "estimate",
		"target_density":    0.5,
	}
	def := Config{}.withDefaults()
	st, err := snap.Decode(snap.Encode(&snap.State{Stage: snap.StageGP, Config: recordConfig(def)}))
	if err != nil {
		t.Fatal(err)
	}
	// A v2 file decodes the options v3 added as zero values.
	v2 := *st.Config
	v2.InflateMax, v2.DPPasses, v2.EnableChannelDerate = 0, 0, false
	v3Only := map[string]bool{"inflate_max": true, "dp_passes": true, "enable_channel_derate": true}

	typ := reflect.TypeOf(def)
	for i := range typ.NumField() {
		name, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
		if name == "" || name == "-" || exempt[name] != "" {
			continue
		}
		cfg := def
		f := reflect.ValueOf(&cfg).Elem().Field(i)
		switch v, ok := other[name]; {
		case ok:
			f.Set(reflect.ValueOf(v))
		case f.Kind() == reflect.Bool:
			f.SetBool(!f.Bool())
		case f.Kind() == reflect.Int:
			f.SetInt(f.Int() + 1)
		case f.Kind() == reflect.Float64:
			f.SetFloat(f.Float() * 1.5)
		default:
			t.Fatalf("%s: no other value for a %v option; add one to other", name, f.Kind())
		}
		was := reflect.ValueOf(def).Field(i).Interface()
		if f.Interface() == was {
			t.Fatalf("%s: other value %v equals the default; add one to other", name, was)
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s = %v is not a valid config: %v", name, f.Interface(), err)
		}
		if err := ValidateResumeConfig(cfg, st); err == nil {
			t.Errorf("resume with %s changed from %v to %v accepted", name, was, f.Interface())
		}
		if v3Only[name] {
			if err := ValidateResumeConfig(cfg, &snap.State{Config: &v2}); err != nil {
				t.Errorf("%s: v2 checkpoint, which predates it, rejected: %v", name, err)
			}
		}
	}
}

// TestResumeOlderSchemaCheckpoints resumes one mid-GP checkpoint as the
// current schema records it, as a v2 file decodes it (no v3 options) and
// as a v1 file decodes it (no config section). The config section only
// gates the resume, so all three must finish the same legal placement.
func TestResumeOlderSchemaCheckpoints(t *testing.T) {
	genCfg := resumeGenCfg(3)
	var blob []byte
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := resumeCfg()
	cfg.Checkpoint = func(st *snap.State) {
		if st.Stage == snap.StageGP && st.Round == 2 {
			blob = snap.Encode(st)
			cancel()
		}
	}
	if _, err := MustNew(cfg).PlaceContext(ctx, gen.MustGenerate(genCfg)); !errors.Is(err, context.Canceled) || blob == nil {
		t.Fatalf("no λ-round-2 checkpoint (err %v)", err)
	}

	var want []geom.Point
	for _, c := range []struct {
		schema string
		edit   func(st *snap.State)
	}{
		{"v3", func(st *snap.State) {}},
		{"v2", func(st *snap.State) {
			st.Config.InflateMax, st.Config.DPPasses, st.Config.EnableChannelDerate = 0, 0, false
		}},
		{"v1", func(st *snap.State) { st.Config = nil }},
	} {
		st, err := snap.Decode(blob)
		if err != nil {
			t.Fatal(err)
		}
		c.edit(st)
		d := gen.MustGenerate(genCfg)
		res, err := MustNew(resumeCfg()).PlaceFromCheckpoint(context.Background(), d, st)
		if err != nil {
			t.Fatalf("%s: %v", c.schema, err)
		}
		if res.Overlaps != 0 || res.OutOfDie != 0 || res.FenceViolations != 0 {
			t.Errorf("%s: resumed placement not legal: overlaps=%d out=%d fence=%d",
				c.schema, res.Overlaps, res.OutOfDie, res.FenceViolations)
		}
		got := make([]geom.Point, len(d.Cells))
		for i := range d.Cells {
			got[i] = d.Cells[i].Pos
		}
		if want == nil {
			want = got
		} else if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: resumed placement differs from the v3 resume", c.schema)
		}
	}
}

// TestHostileCheckpointsDoNotPanic feeds PlaceFromCheckpoint checkpoints
// with one hostile field each — the kind a damaged or forged file
// carries. The codec already rejects the non-finite ones (snap
// TestDecodeRejectsNonFinite); here they skip it, so the placer's own
// guards and nlopt's non-finite stop are what is tested. Each case must
// end in an error or a legal placement, never a panic.
func TestHostileCheckpointsDoNotPanic(t *testing.T) {
	genCfg := resumeGenCfg(3)
	var blob []byte
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := resumeCfg()
	cfg.Checkpoint = func(st *snap.State) {
		if st.Stage == snap.StageGP && st.Round == 2 {
			blob = snap.Encode(st)
			cancel()
		}
	}
	if _, err := MustNew(cfg).PlaceContext(ctx, gen.MustGenerate(genCfg)); !errors.Is(err, context.Canceled) || blob == nil {
		t.Fatalf("no λ-round-2 checkpoint (err %v)", err)
	}

	for _, c := range []struct {
		name string
		edit func(st *snap.State)
	}{
		{"nan coordinate", func(st *snap.State) { st.X[len(st.X)/2] = math.NaN() }},
		{"huge inflation", func(st *snap.State) { st.Inflate[len(st.Inflate)/2] = 1e300 }},
		{"infinite lambda", func(st *snap.State) { st.Lambda = math.Inf(1) }},
		{"huge lambda", func(st *snap.State) { st.Lambda = 1e300 }},
		{"huge mu", func(st *snap.State) { st.Mu = 1e300 }},
	} {
		t.Run(c.name, func(t *testing.T) {
			st, err := snap.Decode(blob)
			if err != nil {
				t.Fatal(err)
			}
			c.edit(st)
			res, err := MustNew(resumeCfg()).PlaceFromCheckpoint(context.Background(), gen.MustGenerate(genCfg), st)
			if err != nil {
				t.Logf("rejected: %v", err)
				return
			}
			if res.Overlaps != 0 || res.OutOfDie != 0 || res.FenceViolations != 0 {
				t.Errorf("resumed placement not legal: overlaps=%d out=%d fence=%d",
					res.Overlaps, res.OutOfDie, res.FenceViolations)
			}
		})
	}
}
