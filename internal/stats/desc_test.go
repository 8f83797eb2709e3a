package stats

import (
	"math"
	"testing"
)

func TestMean(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 2, 3}, 2},
		{[]float64{-1, 1}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.in); got != c.want {
			t.Errorf("Mean(%v) = %g, want %g", c.in, got, c.want)
		}
	}
}

func TestVariance(t *testing.T) {
	if got := Variance([]float64{2, 2, 2}); got != 0 {
		t.Errorf("constant variance = %g, want 0", got)
	}
	// Population variance of {1,2,3,4} = 1.25.
	if got := Variance([]float64{1, 2, 3, 4}); math.Abs(got-1.25) > 1e-12 {
		t.Errorf("Variance = %g, want 1.25", got)
	}
	if got := Variance([]float64{7}); got != 0 {
		t.Errorf("single-element variance = %g, want 0", got)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Errorf("Min/Max wrong: %g %g", Min(xs), Max(xs))
	}
	if Min(nil) != 0 || Max(nil) != 0 {
		t.Error("empty Min/Max should be 0")
	}
}
