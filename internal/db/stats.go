package db

import (
	"fmt"
	"strings"
)

// Stats summarizes a design for reporting and benchmark tables. Its JSON
// form is the run report's design header (internal/obs, pinned by a
// golden-file test), so a renamed tag is a report-version bump.
type Stats struct {
	Name         string  `json:"name"`
	NumCells     int     `json:"cells"`
	NumStdCells  int     `json:"std_cells"`
	NumMacros    int     `json:"macros"`
	NumMovMacro  int     `json:"movable_macros"`
	NumTerms     int     `json:"terminals"`
	NumFixed     int     `json:"-"`
	NumNets      int     `json:"nets"`
	NumPins      int     `json:"pins"`
	NumRegions   int     `json:"fences"`
	NumModules   int     `json:"modules"`
	MaxDegree    int     `json:"-"`
	AvgDegree    float64 `json:"-"`
	Utilization  float64 `json:"utilization"`
	DieW         float64 `json:"die_w"`
	DieH         float64 `json:"die_h"`
	HasRouteGrid bool    `json:"has_route_grid"`
}

// ComputeStats gathers summary statistics for the design.
func (d *Design) ComputeStats() Stats {
	s := Stats{
		Name:         d.Name,
		NumCells:     len(d.Cells),
		NumNets:      len(d.Nets),
		NumPins:      len(d.Pins),
		NumRegions:   len(d.Regions),
		NumModules:   len(d.Modules),
		DieW:         d.Die.W(),
		DieH:         d.Die.H(),
		HasRouteGrid: d.Route != nil,
	}
	for i := range d.Cells {
		c := &d.Cells[i]
		switch c.Kind {
		case StdCell:
			s.NumStdCells++
		case Macro:
			s.NumMacros++
			if c.Movable() {
				s.NumMovMacro++
			}
		case Terminal:
			s.NumTerms++
		}
		if c.Fixed {
			s.NumFixed++
		}
	}
	var degSum int
	for i := range d.Nets {
		deg := d.Nets[i].Degree()
		degSum += deg
		if deg > s.MaxDegree {
			s.MaxDegree = deg
		}
	}
	if len(d.Nets) > 0 {
		s.AvgDegree = float64(degSum) / float64(len(d.Nets))
	}
	s.Utilization = d.Utilization()
	return s
}

// String renders the statistics as a one-design report block.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "design %s: %d cells (%d std, %d macro [%d movable], %d terminal), ",
		s.Name, s.NumCells, s.NumStdCells, s.NumMacros, s.NumMovMacro, s.NumTerms)
	fmt.Fprintf(&b, "%d nets (avg deg %.2f, max %d), %d pins, %d fences, %d modules, util %.3f, die %gx%g",
		s.NumNets, s.AvgDegree, s.MaxDegree, s.NumPins, s.NumRegions, s.NumModules, s.Utilization, s.DieW, s.DieH)
	return b.String()
}

// TableRow renders the statistics as a row for the benchmark-statistics
// table (Table 1 in EXPERIMENTS.md).
func (s Stats) TableRow() string {
	return fmt.Sprintf("%-10s %8d %8d %6d %6d %8d %6.2f %5d %7.3f",
		s.Name, s.NumStdCells, s.NumNets, s.NumMacros, s.NumTerms, s.NumPins, s.AvgDegree, s.NumRegions, s.Utilization)
}

// TableHeader returns the header matching TableRow.
func StatsTableHeader() string {
	return fmt.Sprintf("%-10s %8s %8s %6s %6s %8s %6s %5s %7s",
		"design", "stdcells", "nets", "macro", "term", "pins", "deg", "fence", "util")
}
