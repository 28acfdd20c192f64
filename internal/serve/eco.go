package serve

import (
	"bytes"
	"context"
	"encoding/hex"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/eco"
	"repro/internal/obs"
	"repro/internal/snap"
	"repro/internal/store"
)

// ecoBaseKey addresses a design's latest successful placement in the
// artifact store, keyed only by the input fingerprint. This is the
// eco-base index a BaseFingerprint delta job resolves against: unlike the
// dedup key it ignores the config, so whichever config last placed the
// design wins the slot.
func ecoBaseKey(fp [32]byte) string { return store.Key(fp, []byte("eco-base")) }

// resolveEcoBase resolves a delta job's base placement at submission time,
// so a bad base is rejected with a 400 instead of failing the job later.
// Returns (nil, nil) for from-scratch jobs.
func (m *Manager) resolveEcoBase(spec Spec, resume *snap.State) (*ecoBase, error) {
	if spec.BaseJob == "" && spec.BaseFingerprint == "" {
		return nil, nil
	}
	if spec.BaseJob != "" && spec.BaseFingerprint != "" {
		return nil, fmt.Errorf("%w: base_job and base_fingerprint are mutually exclusive", ErrBadSpec)
	}
	if resume != nil {
		return nil, fmt.Errorf("%w: a delta job cannot also carry a checkpoint", ErrBadSpec)
	}

	if spec.BaseJob != "" {
		bj, err := m.Get(spec.BaseJob)
		if err != nil {
			return nil, fmt.Errorf("%w: base job %q not found", ErrBadSpec, spec.BaseJob)
		}
		if st := bj.State(); st != StateDone {
			return nil, fmt.Errorf("%w: base job %q is %s, want done", ErrBadSpec, spec.BaseJob, st)
		}
		raw := bj.ResultPl()
		if len(raw) == 0 {
			return nil, fmt.Errorf("%w: base job %q has no result placement", ErrBadSpec, spec.BaseJob)
		}
		pl, err := eco.ReadPl(bytes.NewReader(raw))
		if err != nil {
			return nil, fmt.Errorf("serve: parsing base job %q placement: %w", spec.BaseJob, err)
		}
		// The base job's design carries its final placed positions (the
		// job body places in-place), giving the differ full connectivity.
		return &ecoBase{jobID: spec.BaseJob, pl: pl, design: bj.design}, nil
	}

	if m.store == nil {
		return nil, fmt.Errorf("%w: base_fingerprint requires a state directory (artifact store)", ErrBadSpec)
	}
	raw, err := hex.DecodeString(spec.BaseFingerprint)
	if err != nil || len(raw) != 32 {
		return nil, fmt.Errorf("%w: base_fingerprint must be the 64-hex-digit design fingerprint", ErrBadSpec)
	}
	var fp [32]byte
	copy(fp[:], raw)
	arts, ok, err := m.store.Get(ecoBaseKey(fp))
	if err != nil || !ok || len(arts[ResultFile]) == 0 {
		return nil, fmt.Errorf("%w: no cached base placement for fingerprint %s", ErrBadSpec, spec.BaseFingerprint)
	}
	pl, err := eco.ReadPl(bytes.NewReader(arts[ResultFile]))
	if err != nil {
		return nil, fmt.Errorf("serve: parsing cached base placement %s: %w", spec.BaseFingerprint, err)
	}
	return &ecoBase{fingerprint: spec.BaseFingerprint, pl: pl}, nil
}

// placeEco is the delta-job body: diff against the base and place through
// the placer's one ECO entry, which repairs only the changed
// neighborhoods. A delta out of windowed repair's reach falls back to the
// full from-scratch flow and marks the eco summary accordingly — the job
// still succeeds, it just pays full price.
func (m *Manager) placeEco(ctx context.Context, j *Job, placer *core.Placer, d *db.Design) (core.Result, *obs.EcoSummary, error) {
	eb := j.ecoBase
	var df *eco.Diff
	if eb.design != nil {
		df = eco.DiffDesigns(eb.design, d)
	} else {
		df = eco.DiffPlacement(d, eb.pl)
	}
	sum := &obs.EcoSummary{
		BaseJob: eb.jobID, BaseFingerprint: eb.fingerprint,
		ChangedCells: df.ChangedCells(), ReuseRatio: df.ReuseRatio(),
	}
	t0 := time.Now()
	res, err := placer.PlaceDelta(ctx, d, df, eb.pl)
	if e := res.Eco; e == nil {
		sum.FellBack = true
	} else if err == nil {
		sum.Windows = len(e.Windows)
		sum.ReuseRatio = e.ReuseRatio
		m.opt.Logger.Info("eco repair done", "job", j.ID,
			"changed_cells", e.ChangedCells, "windows", len(e.Windows),
			"reuse_ratio", e.ReuseRatio, "dur", time.Since(t0))
	}
	return res, sum, err
}
