// Package metrics collects and formats the per-design, per-variant result
// records that the experiment tables report: HPWL, the contest RC and
// scaled-HPWL scores, legality counts and stage runtimes. It also provides
// the small statistics helpers (geometric means, normalized ratios) used
// when aggregating a benchmark suite the way placement papers do.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Row is one experiment measurement: a placer variant run on a design.
// Its JSON form is the run report's metrics section (internal/obs, pinned
// by a golden-file test), so a renamed tag is a report-version bump.
type Row struct {
	Design  string `json:"design"`
	Variant string `json:"variant"`

	HPWL       float64   `json:"hpwl"`
	ScaledHPWL float64   `json:"shpwl"`
	RC         float64   `json:"rc"`
	ACE        []float64 `json:"ace,omitempty"`

	Overflow  float64 `json:"overflow"`
	Overlaps  int     `json:"overlaps"`
	FenceViol int     `json:"fence_violations"`
	OutOfDie  int     `json:"out_of_die"`

	// GPSeconds and TotalSeconds are the global-placement and whole-run
	// wall times.
	GPSeconds    float64 `json:"gp_seconds"`
	TotalSeconds float64 `json:"total_seconds"`
}

// Header returns the column header matching Row.String.
func Header() string {
	return fmt.Sprintf("%-10s %-14s %12s %12s %7s %9s %5s %5s %5s %8s %8s",
		"design", "variant", "HPWL", "sHPWL", "RC", "overflow", "ovlp", "fence", "oob", "gp(s)", "total(s)")
}

// String renders the row under Header's columns.
func (r Row) String() string {
	return fmt.Sprintf("%-10s %-14s %12.4g %12.4g %7.1f %9.4f %5d %5d %5d %8.2f %8.2f",
		r.Design, r.Variant, r.HPWL, r.ScaledHPWL, r.RC, r.Overflow,
		r.Overlaps, r.FenceViol, r.OutOfDie, r.GPSeconds, r.TotalSeconds)
}

// Table is an ordered collection of rows with group-aware rendering.
type Table struct {
	Title string `json:"title,omitempty"`
	Rows  []Row  `json:"rows"`
}

// Add appends a row.
func (t *Table) Add(r Row) { t.Rows = append(t.Rows, r) }

// String renders the table with a title, header, rows and per-variant
// geometric-mean summary lines (the standard presentation in placement
// papers: per-benchmark numbers plus a normalized average).
func (t *Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "=== %s ===\n", t.Title)
	}
	b.WriteString(Header())
	b.WriteByte('\n')
	for _, r := range t.Rows {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	for _, line := range t.SummaryLines() {
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return b.String()
}

// SummaryLines returns one geometric-mean summary per variant, plus the
// ratio of each variant's sHPWL geomean to the first variant's (the
// "normalized to baseline" row papers print).
func (t *Table) SummaryLines() []string {
	byVariant := map[string][]Row{}
	var order []string
	for _, r := range t.Rows {
		if _, ok := byVariant[r.Variant]; !ok {
			order = append(order, r.Variant)
		}
		byVariant[r.Variant] = append(byVariant[r.Variant], r)
	}
	if len(order) == 0 {
		return nil
	}
	var out []string
	base := math.NaN()
	for _, v := range order {
		rows := byVariant[v]
		hp := make([]float64, len(rows))
		sh := make([]float64, len(rows))
		rc := make([]float64, len(rows))
		for i, r := range rows {
			hp[i] = r.HPWL
			sh[i] = r.ScaledHPWL
			rc[i] = r.RC
		}
		gm := GeoMean(sh)
		if math.IsNaN(base) {
			base = gm
		}
		ratio := gm / base
		out = append(out, fmt.Sprintf("%-10s %-14s %12.4g %12.4g %7.1f %31s ratio %.3f",
			"geomean", v, GeoMean(hp), gm, Mean(rc), "", ratio))
	}
	return out
}

// GeoMean returns the geometric mean of positive values; zero and negative
// entries are skipped, and an empty input yields NaN.
func GeoMean(vals []float64) float64 {
	var logSum float64
	n := 0
	for _, v := range vals {
		if v <= 0 {
			continue
		}
		logSum += math.Log(v)
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return math.Exp(logSum / float64(n))
}

// Mean returns the arithmetic mean, NaN for empty input.
func Mean(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	var s float64
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}

// Median returns the median, NaN for empty input.
func Median(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	cp := append([]float64(nil), vals...)
	sort.Float64s(cp)
	n := len(cp)
	if n%2 == 1 {
		return cp[n/2]
	}
	return (cp[n/2-1] + cp[n/2]) / 2
}

// Series is a labelled (x, y) sequence used for figure reproduction: the
// bench harness prints these as data rows a plotting script can consume.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Add appends a point.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// String renders "name x y" rows.
func (s *Series) String() string {
	var b strings.Builder
	for i := range s.X {
		fmt.Fprintf(&b, "%s\t%g\t%g\n", s.Name, s.X[i], s.Y[i])
	}
	return b.String()
}
