package metrics

import (
	"math"
	"strings"
	"testing"
)

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{2, 8}); math.Abs(got-4) > 1e-9 {
		t.Errorf("GeoMean(2,8) = %v", got)
	}
	if got := GeoMean([]float64{5}); got != 5 {
		t.Errorf("GeoMean(5) = %v", got)
	}
	if !math.IsNaN(GeoMean(nil)) {
		t.Error("empty GeoMean should be NaN")
	}
	// Non-positive entries skipped.
	if got := GeoMean([]float64{0, -3, 4}); got != 4 {
		t.Errorf("GeoMean with junk = %v", got)
	}
}

func TestMeanMedian(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %v", got)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("empty Mean should be NaN")
	}
	if got := Median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("Median odd = %v", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("Median even = %v", got)
	}
	if !math.IsNaN(Median(nil)) {
		t.Error("empty Median should be NaN")
	}
	// Median must not mutate its input.
	in := []float64{9, 1, 5}
	Median(in)
	if in[0] != 9 || in[1] != 1 {
		t.Error("Median mutated input")
	}
}

func TestRowRendering(t *testing.T) {
	r := Row{
		Design: "sb-a", Variant: "ntuplace4h",
		HPWL: 123456, ScaledHPWL: 150000, RC: 104.2,
		Overflow: 0.08, Overlaps: 0, FenceViol: 0,
		GPSeconds: 2, TotalSeconds: 5,
	}
	s := r.String()
	for _, want := range []string{"sb-a", "ntuplace4h", "104.2"} {
		if !strings.Contains(s, want) {
			t.Errorf("row %q missing %q", s, want)
		}
	}
	if len(Header()) == 0 {
		t.Error("empty header")
	}
}

func TestTableSummary(t *testing.T) {
	tb := Table{Title: "T2"}
	tb.Add(Row{Design: "a", Variant: "full", ScaledHPWL: 100, HPWL: 90, RC: 105})
	tb.Add(Row{Design: "b", Variant: "full", ScaledHPWL: 400, HPWL: 360, RC: 110})
	tb.Add(Row{Design: "a", Variant: "blind", ScaledHPWL: 200, HPWL: 80, RC: 140})
	tb.Add(Row{Design: "b", Variant: "blind", ScaledHPWL: 800, HPWL: 320, RC: 150})
	lines := tb.SummaryLines()
	if len(lines) != 2 {
		t.Fatalf("expected 2 summary lines, got %d", len(lines))
	}
	// The second variant's ratio vs the first: geomean(200,800)/geomean(100,400) = 2.
	if !strings.Contains(lines[1], "ratio 2.000") {
		t.Errorf("normalized ratio missing: %q", lines[1])
	}
	if !strings.Contains(lines[0], "ratio 1.000") {
		t.Errorf("baseline ratio missing: %q", lines[0])
	}
	out := tb.String()
	if !strings.Contains(out, "=== T2 ===") || !strings.Contains(out, Header()) {
		t.Error("table rendering missing title or header")
	}
}

func TestSeries(t *testing.T) {
	var s Series
	s.Name = "conv"
	s.Add(0, 10)
	s.Add(1, 8)
	out := s.String()
	if !strings.Contains(out, "conv\t0\t10") || !strings.Contains(out, "conv\t1\t8") {
		t.Errorf("series rendering wrong: %q", out)
	}
}
