// Package eco implements incremental (engineering-change-order) placement:
// instead of re-running the full multilevel flow after a small netlist
// edit, it diffs the edited design against a previously placed base,
// transfers the base positions onto every unchanged cell, and repairs only
// rectangular windows around the changed cells — re-legalizing the windows
// fence-aware through internal/legal and polishing them with internal/dp
// on top of the incremental wirelength engine and the live congestion
// estimator.
//
// The three layers compose as
//
//	base placement (.pl / snap / placed design)
//	        │
//	eco.DiffDesigns / eco.DiffPlacement     netlist classification
//	        │
//	eco.Place                               transfer + windows + repair
//
// and the whole path inherits the repo-wide determinism contract: the
// legalizer's Abacus dispatch is serial and detailed placement uses
// frozen-state propose with fixed-order commit, so the repaired .pl is
// byte-identical for every worker count. An empty diff short-circuits the
// repair entirely and reproduces the base placement byte-for-byte.
package eco

import (
	"fmt"
	"io"

	"repro/internal/bookshelf"
	"repro/internal/db"
	"repro/internal/snap"
)

// CellPlace is one cell's placed state in a base placement.
type CellPlace struct {
	X, Y   float64
	Orient db.Orient
	Fixed  bool
}

// Placement is a base placement keyed by cell name — the portable form a
// delta job carries its reuse source in, whether it came from a placed
// design in memory, a result .pl, or a snap checkpoint.
type Placement struct {
	// Cells maps cell name to its placed state.
	Cells map[string]CellPlace
	// Order lists the cell names in base-design order; it makes
	// name-presence diffs deterministic without sorting.
	Order []string
}

// FromDesign snapshots a placed design as a base placement.
func FromDesign(d *db.Design) *Placement {
	p := &Placement{
		Cells: make(map[string]CellPlace, len(d.Cells)),
		Order: make([]string, 0, len(d.Cells)),
	}
	for i := range d.Cells {
		c := &d.Cells[i]
		p.Cells[c.Name] = CellPlace{X: c.Pos.X, Y: c.Pos.Y, Orient: c.Orient, Fixed: c.Fixed}
		p.Order = append(p.Order, c.Name)
	}
	return p
}

// FromSnap converts a snap checkpoint into a base placement. Checkpoints
// store positions by cell index, not by name, so the design the snapshot
// was taken from (or one with an identical cell list) must supply the
// names; a cell-count mismatch is rejected. For a netlist delta, use a
// .pl or a placed-design base instead.
func FromSnap(st *snap.State, d *db.Design) (*Placement, error) {
	if st.NumCells() != len(d.Cells) {
		return nil, fmt.Errorf("eco: checkpoint holds %d cells, design %q has %d — a snap base requires the base netlist",
			st.NumCells(), d.Name, len(d.Cells))
	}
	p := &Placement{
		Cells: make(map[string]CellPlace, len(d.Cells)),
		Order: make([]string, 0, len(d.Cells)),
	}
	for i := range d.Cells {
		c := &d.Cells[i]
		o := c.Orient
		if v := db.Orient(st.Orient[i]); v >= db.N && v <= db.FW {
			o = v
		}
		p.Cells[c.Name] = CellPlace{X: st.X[i], Y: st.Y[i], Orient: o, Fixed: c.Fixed}
		p.Order = append(p.Order, c.Name)
	}
	return p, nil
}

// ReadPl parses a UCLA .pl stream (the format cmd/placer and placerd
// emit) into a base placement. Every name is kept; a repeated name keeps
// its first place in Order and its last line's state.
func ReadPl(r io.Reader) (*Placement, error) {
	p := &Placement{Cells: make(map[string]CellPlace)}
	err := bookshelf.ReadPl(r, "base.pl", func(rec bookshelf.PlRecord) error {
		if _, dup := p.Cells[rec.Name]; !dup {
			p.Order = append(p.Order, rec.Name)
		}
		p.Cells[rec.Name] = CellPlace{X: rec.X, Y: rec.Y, Orient: rec.Orient, Fixed: rec.Fixed}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("eco: %w", err)
	}
	return p, nil
}
