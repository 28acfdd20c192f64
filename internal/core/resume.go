package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/db"
	"repro/internal/geom"
	"repro/internal/snap"
)

// PlaceFromCheckpoint resumes a placement flow from a snapshot produced by
// the Config.Checkpoint hook and runs it to a legal final result. The
// design must be the one the checkpoint was taken from (cell count and
// fingerprint are verified). The resumed flow is single-level: multilevel
// clustering, the quadratic warm start and coincidence staggering are all
// skipped because the checkpoint already carries spread positions.
//
// A StageGP checkpoint re-enters the λ-escalation loop at the recorded
// weights with the remaining round budget, then runs the routability loop
// and the finishing stages. A StageRoutability checkpoint skips global
// placement entirely, restores the router demand/history grid and
// re-enters the routability loop at the recorded iteration.
//
// Checkpoints taken by the resumed run itself (when cfg.Checkpoint is set)
// continue the original round numbering, so a twice-resumed run still
// converges within the configured budgets.
func (pl *Placer) PlaceFromCheckpoint(ctx context.Context, d *db.Design, st *snap.State) (Result, error) {
	if st == nil {
		return Result{}, fmt.Errorf("core: nil checkpoint")
	}
	return pl.run(ctx, d, st)
}

// applyCheckpoint checks that st can resume on d, whose fingerprint is
// fp, and moves d's cells to the checkpointed positions, orientations
// and inflation.
func (pl *Placer) applyCheckpoint(d *db.Design, st *snap.State, fp [32]byte) error {
	cfg := pl.cfg
	if st.Stage != snap.StageGP && st.Stage != snap.StageRoutability {
		return fmt.Errorf("core: checkpoint stage %v is not resumable", st.Stage)
	}
	// A checkpoint stamped with its run configuration only resumes under a
	// matching one — continuing with, say, a different congestion source
	// would finish a run neither configuration describes.
	if err := ValidateResumeConfig(cfg, st); err != nil {
		return err
	}
	if st.NumCells() != len(d.Cells) {
		return fmt.Errorf("core: checkpoint holds %d cells, design %q has %d",
			st.NumCells(), d.Name, len(d.Cells))
	}
	// The flow never writes these values; a checkpoint carrying them is
	// damaged or forged, and resuming from it would blow up the density
	// model rather than finish a placement.
	if st.Lambda < 0 || st.Mu < 0 {
		return fmt.Errorf("core: checkpoint multipliers λ=%g μ=%g must not be negative", st.Lambda, st.Mu)
	}
	for i, r := range st.Inflate {
		if r > cfg.InflateMax {
			return fmt.Errorf("core: checkpoint inflates cell %d by %g, above the %g cap", i, r, cfg.InflateMax)
		}
	}
	for i := range st.X {
		if x, y := st.X[i], st.Y[i]; math.IsNaN(x) || math.IsInf(x, 0) || math.IsNaN(y) || math.IsInf(y, 0) {
			return fmt.Errorf("core: checkpoint places cell %d at non-finite (%g, %g)", i, x, y)
		}
	}
	if st.Fingerprint != ([32]byte{}) && fp != st.Fingerprint {
		return fmt.Errorf("core: checkpoint fingerprint %x… does not match design %q (%x…)",
			st.Fingerprint[:6], d.Name, fp[:6])
	}

	for i := range d.Cells {
		c := &d.Cells[i]
		c.Pos = geom.Point{X: st.X[i], Y: st.Y[i]}
		if o := db.Orient(st.Orient[i]); o >= db.N && o <= db.FW {
			c.Orient = o
		}
		if st.Inflate != nil && st.Inflate[i] > 1 {
			c.Inflate = st.Inflate[i]
		}
	}
	return nil
}
