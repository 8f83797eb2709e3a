package emd

import (
	"fmt"
	"testing"

	"repro/internal/stats"
)

// randDistB mirrors the test helper for benchmark use.
func randDistB(g *stats.RNG, n int) []float64 {
	v := make([]float64, n)
	s := 0.0
	for i := range v {
		v[i] = g.Float64() + 1e-9
		s += v[i]
	}
	for i := range v {
		v[i] /= s
	}
	return v
}

// BenchmarkHatEMD measures the thresholded ÊMD across bin counts, the
// distance EMDThresholded evaluates per group pair. "dp" is
// Thresholded1D, the path-plus-hub dynamic program the fairness layer
// uses; "transport" is the general solver on the explicit thresholded
// matrix (built once, outside the loop), the reference it replaces.
func BenchmarkHatEMD(b *testing.B) {
	g := stats.NewRNG(42)
	for _, bins := range []int{5, 25, 100} {
		p, q := randDistB(g, bins), randDistB(g, bins)
		w := 1.0 / float64(bins)
		t := 0.5 // threshold binds for bins ≥ 3
		b.Run(fmt.Sprintf("dp/bins=%d", bins), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Thresholded1D(p, q, w, t); err != nil {
					b.Fatal(err)
				}
			}
		})
		cost := Threshold(GroundDistance1D(bins, w), t)
		b.Run(fmt.Sprintf("transport/bins=%d", bins), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := Transport(p, q, cost); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
