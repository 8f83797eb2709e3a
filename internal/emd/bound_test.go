package emd

import (
	"testing"

	"repro/internal/stats"
)

// The mean-index bound must lower-bound the exact closed-form 1-D EMD
// for every pair of equal-mass histograms (it is exact real
// arithmetic: signed CDF differences telescope to the mean
// difference), and BoundMargin must absorb whatever floating-point
// rounding both sides accumulate.
func TestHist1DLowerBoundProperty(t *testing.T) {
	g := stats.NewRNG(303)
	for trial := 0; trial < 2000; trial++ {
		n := 2 + int(g.Float64()*20)
		p := randDist(g, n)
		q := randDist(g, n)
		w := 0.01 + g.Float64()
		exact, err := Hist1D(p, q, w)
		if err != nil {
			t.Fatal(err)
		}
		lb := Hist1DLowerBound(MeanIndex(p), MeanIndex(q), w)
		if lb-BoundMargin(lb) > exact {
			t.Fatalf("trial %d: lower bound %.17g exceeds exact EMD %.17g (n=%d, w=%g)",
				trial, lb, exact, n, w)
		}
	}
}

// BoundMargin must scale with the value and never vanish.
func TestBoundMargin(t *testing.T) {
	if m := BoundMargin(0); m <= 0 {
		t.Errorf("BoundMargin(0) = %g, want > 0", m)
	}
	if m := BoundMargin(1e6); m < 1e-3 {
		t.Errorf("BoundMargin(1e6) = %g, want relative slack", m)
	}
	if a, b := BoundMargin(2), BoundMargin(-2); a != b {
		t.Errorf("BoundMargin not symmetric: %g vs %g", a, b)
	}
}
