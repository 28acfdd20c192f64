package core

import (
	"context"
	"errors"

	"repro/internal/db"
	"repro/internal/eco"
)

// PlaceDelta places d, an edited netlist, incrementally against base, the
// placement of an earlier version; df is d's diff against it
// (eco.DiffDesigns, or eco.DiffPlacement for a bare .pl). Unchanged cells
// keep their base positions and only windows around the changed ones are
// repaired, with the repair's details on Result.Eco. A delta outside
// windowed repair's reach (eco.ErrNeedFull) falls back to PlaceContext
// and leaves Result.Eco nil, so an ECO run always ends in a full
// placement. On a repair error Result.Eco is set and describes the
// repair so far.
func (pl *Placer) PlaceDelta(ctx context.Context, d *db.Design, df *eco.Diff, base *eco.Placement) (Result, error) {
	eres, err := eco.Place(d, df, base, eco.Options{Workers: pl.cfg.Workers, Obs: pl.cfg.Obs})
	if errors.Is(err, eco.ErrNeedFull) {
		pl.cfg.Obs.Log().Info("eco delta out of reach, running full place",
			"changed_cells", df.ChangedCells(), "removed", len(df.RemovedNames), "macro_delta", df.MacroDelta)
		return pl.PlaceContext(ctx, d)
	}
	if err != nil {
		return Result{Eco: &eres}, err
	}
	return Result{
		HPWLFinal:       eres.HPWL,
		Legal:           eres.Legal,
		DP:              eres.DP,
		Overlaps:        eres.Overlaps,
		FenceViolations: eres.FenceViolations,
		OutOfDie:        eres.OutOfDie,
		LegalTime:       eres.LegalTime,
		DPTime:          eres.DPTime,
		Eco:             &eres,
	}, nil
}
