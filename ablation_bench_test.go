// Ablation benchmarks for the design choices DESIGN.md §4 documents:
// histogram resolution, minimum group size, distance function, and
// the serial-vs-parallel audit path.
package fairank

import (
	"fmt"
	"testing"

	"repro/internal/fairness"
)

// BenchmarkAblationBins varies the histogram resolution. More bins
// sharpen the EMD signal but cost proportionally in every distance
// evaluation.
func BenchmarkAblationBins(b *testing.B) {
	m, err := Preset("crowdsourcing", 2000, 1)
	if err != nil {
		b.Fatal(err)
	}
	scores, err := m.Score("translation")
	if err != nil {
		b.Fatal(err)
	}
	attrs := []string{"gender", "ethnicity", "language", "region"}
	for _, bins := range []int{3, 5, 10, 20, 50} {
		b.Run(fmt.Sprintf("bins=%d", bins), func(b *testing.B) {
			cfg := Config{Measure: Measure{Bins: bins}, Attributes: attrs}
			var u float64
			for i := 0; i < b.N; i++ {
				res, err := Quantify(m.Workers, scores, cfg)
				if err != nil {
					b.Fatal(err)
				}
				u = res.Unfairness
			}
			b.ReportMetric(u, "unfairness")
		})
	}
}

// BenchmarkAblationMinGroup varies the minimum partition size. Larger
// minimums prune deep splits, trading subgroup resolution for
// statistical support and speed.
func BenchmarkAblationMinGroup(b *testing.B) {
	m, err := Preset("crowdsourcing", 2000, 1)
	if err != nil {
		b.Fatal(err)
	}
	scores, err := m.Score("translation")
	if err != nil {
		b.Fatal(err)
	}
	attrs := []string{"gender", "ethnicity", "language", "region"}
	for _, minGroup := range []int{1, 5, 25, 100} {
		b.Run(fmt.Sprintf("min=%d", minGroup), func(b *testing.B) {
			cfg := Config{Attributes: attrs, MinGroupSize: minGroup}
			var groups int
			for i := 0; i < b.N; i++ {
				res, err := Quantify(m.Workers, scores, cfg)
				if err != nil {
					b.Fatal(err)
				}
				groups = len(res.Groups)
			}
			b.ReportMetric(float64(groups), "partitions")
		})
	}
}

// BenchmarkAblationDistance swaps the histogram distance inside
// Algorithm 1: the paper's EMD against KS, total variation and the
// thresholded ÊMD.
func BenchmarkAblationDistance(b *testing.B) {
	m, err := Preset("crowdsourcing", 2000, 1)
	if err != nil {
		b.Fatal(err)
	}
	scores, err := m.Score("translation")
	if err != nil {
		b.Fatal(err)
	}
	attrs := []string{"gender", "ethnicity", "language", "region"}
	dists := []Distance{
		fairness.EMD1D{},
		fairness.KS{},
		fairness.TotalVariation{},
		fairness.EMDThresholded{Threshold: 0.4},
	}
	for _, dist := range dists {
		b.Run(dist.Name(), func(b *testing.B) {
			cfg := Config{Measure: Measure{Dist: dist}, Attributes: attrs}
			var u float64
			for i := 0; i < b.N; i++ {
				res, err := Quantify(m.Workers, scores, cfg)
				if err != nil {
					b.Fatal(err)
				}
				u = res.Unfairness
			}
			b.ReportMetric(u, "unfairness")
		})
	}
}

// BenchmarkAblationRootRestarts contrasts plain Algorithm 1 with the
// best-of-all-roots restart strategy: |attributes|× the work for a
// provably never-worse objective value.
func BenchmarkAblationRootRestarts(b *testing.B) {
	m, err := Preset("crowdsourcing", 2000, 1)
	if err != nil {
		b.Fatal(err)
	}
	scores, err := m.Score("translation")
	if err != nil {
		b.Fatal(err)
	}
	attrs := []string{"gender", "ethnicity", "language", "region"}
	for _, tryAll := range []bool{false, true} {
		name := "plain"
		if tryAll {
			name = "all-roots"
		}
		b.Run(name, func(b *testing.B) {
			cfg := Config{Attributes: attrs, TryAllRoots: tryAll}
			var u float64
			for i := 0; i < b.N; i++ {
				res, err := Quantify(m.Workers, scores, cfg)
				if err != nil {
					b.Fatal(err)
				}
				u = res.Unfairness
			}
			b.ReportMetric(u, "unfairness")
		})
	}
}

// BenchmarkAuditParallel contrasts the serial audit loop with the
// bounded worker pool across the marketplace's jobs.
func BenchmarkAuditParallel(b *testing.B) {
	m, err := Preset("crowdsourcing", 2000, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{Attributes: []string{"gender", "ethnicity", "language", "region"}}
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Audit(m, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, workers := range []int{2, 4} {
		b.Run(fmt.Sprintf("parallel=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := AuditParallel(m, cfg, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationLattice contrasts the greedy Datafly walk with the
// exact lattice search on the same hierarchies.
func BenchmarkAblationLattice(b *testing.B) {
	m, err := Preset("crowdsourcing", 1000, 1)
	if err != nil {
		b.Fatal(err)
	}
	var hs []*Hierarchy
	for _, q := range []string{"gender", "ethnicity", "language", "region"} {
		vals, err := m.Workers.DistinctValues(q, nil)
		if err != nil {
			b.Fatal(err)
		}
		h, err := SuppressionHierarchy(q, vals)
		if err != nil {
			b.Fatal(err)
		}
		hs = append(hs, h)
	}
	b.Run("datafly", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Datafly(m.Workers, hs, 5, 50); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("lattice", func(b *testing.B) {
		var prec float64
		for i := 0; i < b.N; i++ {
			res, err := OptimalLattice(m.Workers, hs, 5, 50)
			if err != nil {
				b.Fatal(err)
			}
			prec = res.Precision
		}
		b.ReportMetric(prec, "precision")
	})
}
