package fairness

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/emd"
	"repro/internal/histogram"
	"repro/internal/stats"
)

func unitHist(t *testing.T, counts ...float64) histogram.Hist {
	t.Helper()
	h := histogram.Hist{Lo: 0, Hi: 1, Counts: counts}
	n, err := h.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestEMD1DBetween(t *testing.T) {
	a := unitHist(t, 1, 0)
	b := unitHist(t, 0, 1)
	d, err := EMD1D{}.Between(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// One bin shift, width 0.5.
	if math.Abs(d-0.5) > 1e-12 {
		t.Errorf("EMD = %g, want 0.5", d)
	}
}

func TestEMD1DIncompatible(t *testing.T) {
	a := unitHist(t, 1, 0)
	b := unitHist(t, 1, 0, 0)
	if _, err := (EMD1D{}).Between(a, b); err == nil {
		t.Error("incompatible histograms should error")
	}
}

func TestEMDThresholded(t *testing.T) {
	a := unitHist(t, 1, 0, 0, 0, 0)
	b := unitHist(t, 0, 0, 0, 0, 1)
	full, err := EMD1D{}.Between(a, b)
	if err != nil {
		t.Fatal(err)
	}
	th, err := EMDThresholded{Threshold: 0.4}.Between(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if th >= full {
		t.Errorf("thresholded %g should be below full %g", th, full)
	}
	if math.Abs(th-0.4) > 1e-9 {
		t.Errorf("thresholded = %g, want 0.4", th)
	}
	for _, bad := range []float64{0, -0.5, math.NaN()} {
		if d, err := (EMDThresholded{Threshold: bad}).Between(a, b); err == nil {
			t.Errorf("threshold %g: got %g, want an error", bad, d)
		}
	}
	half := histogram.Hist{Lo: 0, Hi: 1, Counts: []float64{0.5, 0, 0, 0, 0}}
	if d, err := (EMDThresholded{Threshold: 0.4}).Between(a, half); err == nil {
		t.Errorf("unequal totals: got %g, want an error", d)
	}
	inf, err := EMDThresholded{Threshold: math.Inf(1)}.Between(a, b)
	if err != nil || inf != full {
		t.Errorf("t=+Inf: got %g, %v; want EMD1D's %g", inf, err, full)
	}
}

// EMDThresholded.Between equals the transport optimum under the
// explicit thresholded ground on random score histograms.
func TestEMDThresholdedMatchesTransport(t *testing.T) {
	g := stats.NewRNG(9102)
	for trial := 0; trial < 1000; trial++ {
		bins := 2 + g.IntN(30)
		if trial%100 == 0 {
			bins = 100
		}
		hist := func() histogram.Hist {
			counts := make([]float64, bins)
			for i := range counts {
				if trial%2 == 0 || g.Float64() < 0.5 {
					counts[i] = float64(g.IntN(20))
				}
			}
			counts[g.IntN(bins)]++
			return unitHist(t, counts...)
		}
		a, b := hist(), hist()
		th := (1 - g.Float64()) * 1.2
		got, err := EMDThresholded{Threshold: th}.Between(a, b)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := emd.Transport(a.Counts, b.Counts, emd.Threshold(emd.GroundDistance1D(bins, a.BinWidth()), th))
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("trial %d (bins=%d t=%g): Between %.17g, transport %.17g", trial, bins, th, got, want)
		}
	}
}

func TestKS(t *testing.T) {
	a := unitHist(t, 1, 0)
	b := unitHist(t, 0, 1)
	d, err := KS{}.Between(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d != 1 {
		t.Errorf("KS = %g, want 1", d)
	}
	self, _ := KS{}.Between(a, a)
	if self != 0 {
		t.Errorf("KS self = %g", self)
	}
}

func TestTotalVariation(t *testing.T) {
	a := unitHist(t, 1, 0)
	b := unitHist(t, 0, 1)
	d, err := TotalVariation{}.Between(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d != 1 {
		t.Errorf("TV = %g, want 1", d)
	}
	c := unitHist(t, 1, 1)
	d, _ = TotalVariation{}.Between(a, c)
	if math.Abs(d-0.5) > 1e-12 {
		t.Errorf("TV = %g, want 0.5", d)
	}
}

func TestDistanceByName(t *testing.T) {
	for _, name := range []string{"emd", "emd-hat", "ks", "tv", ""} {
		if _, err := DistanceByName(name); err != nil {
			t.Errorf("DistanceByName(%q): %v", name, err)
		}
	}
	if _, err := DistanceByName("nope"); err == nil {
		t.Error("unknown distance should error")
	} else {
		for _, valid := range []string{"emd", "emd-hat", "ks", "tv"} {
			if !strings.Contains(err.Error(), valid) {
				t.Errorf("error %q does not list valid distance %q", err, valid)
			}
		}
	}
}

func TestAggregators(t *testing.T) {
	p := []float64{0.1, 0.5, 0.3}
	if got := (Average{}).Aggregate(p); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("avg = %g", got)
	}
	if got := (MaxAgg{}).Aggregate(p); got != 0.5 {
		t.Errorf("max = %g", got)
	}
	if got := (MinAgg{}).Aggregate(p); got != 0.1 {
		t.Errorf("min = %g", got)
	}
	v := (VarianceAgg{}).Aggregate(p)
	if math.Abs(v-stats.Variance(p)) > 1e-12 {
		t.Errorf("variance = %g", v)
	}
	// Empty pairwise (single partition) -> 0 for all aggregators.
	for _, agg := range []Aggregator{Average{}, MaxAgg{}, MinAgg{}, VarianceAgg{}} {
		if got := agg.Aggregate(nil); got != 0 {
			t.Errorf("%s of empty = %g", agg.Name(), got)
		}
	}
}

func TestAggregatorByName(t *testing.T) {
	for _, name := range []string{"avg", "max", "min", "variance", ""} {
		if _, err := AggregatorByName(name); err != nil {
			t.Errorf("AggregatorByName(%q): %v", name, err)
		}
	}
	if _, err := AggregatorByName("nope"); err == nil {
		t.Error("unknown aggregator should error")
	} else {
		for _, valid := range []string{"avg", "max", "min", "variance"} {
			if !strings.Contains(err.Error(), valid) {
				t.Errorf("error %q does not list valid aggregator %q", err, valid)
			}
		}
	}
}

func TestMeasureDefaults(t *testing.T) {
	m := Measure{}
	// Zero measure behaves as the paper default.
	h, err := m.Histogram([]float64{0.1, 0.9}, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if h.Bins() != 5 || h.Lo != 0 || h.Hi != 1 {
		t.Errorf("default histogram shape: %v", h)
	}
	if DefaultMeasure().Name() != "avg-emd(bins=5)" {
		t.Errorf("DefaultMeasure name = %q", DefaultMeasure().Name())
	}
}

func TestMeasureValidation(t *testing.T) {
	if _, err := (Measure{Bins: -1}).Histogram([]float64{1}, []int{0}); err == nil {
		t.Error("negative bins should error")
	}
	if _, err := (Measure{Lo: 1, Hi: 0.5}).Histogram([]float64{1}, []int{0}); err == nil {
		t.Error("inverted range should error")
	}
	if (Measure{Bins: -1}).Name() != "invalid-measure" {
		t.Error("invalid measure name")
	}
}

func TestMeasureHistogramErrors(t *testing.T) {
	m := DefaultMeasure()
	if _, err := m.Histogram([]float64{1}, nil); err == nil {
		t.Error("empty partition should error")
	}
	if _, err := m.Histogram([]float64{1}, []int{5}); err == nil {
		t.Error("row out of range should error")
	}
	if _, err := m.Histogram([]float64{math.NaN()}, []int{0}); err == nil {
		t.Error("NaN score should error")
	}
}

func TestUnfairnessTwoSeparatedGroups(t *testing.T) {
	// Group A scores near 0, group B near 1.
	scores := []float64{0.05, 0.05, 0.95, 0.95}
	m := DefaultMeasure()
	u, err := m.Unfairness(scores, [][]int{{0, 1}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	// All mass moves 4 bins of width 0.2 = 0.8.
	if math.Abs(u-0.8) > 1e-9 {
		t.Errorf("unfairness = %g, want 0.8", u)
	}
}

func TestUnfairnessIdenticalGroupsIsZero(t *testing.T) {
	scores := []float64{0.3, 0.3, 0.3, 0.3}
	u, err := DefaultMeasure().Unfairness(scores, [][]int{{0, 1}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if u != 0 {
		t.Errorf("identical groups unfairness = %g", u)
	}
}

func TestUnfairnessSinglePartitionIsZero(t *testing.T) {
	u, err := DefaultMeasure().Unfairness([]float64{0.2, 0.8}, [][]int{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if u != 0 {
		t.Errorf("single partition unfairness = %g", u)
	}
}

func TestUnfairnessErrors(t *testing.T) {
	m := DefaultMeasure()
	if _, err := m.Unfairness([]float64{1}, nil); err == nil {
		t.Error("no partitions should error")
	}
	if _, err := m.Unfairness([]float64{1}, [][]int{{}}); err == nil {
		t.Error("empty partition should error")
	}
}

func TestPairwiseOrder(t *testing.T) {
	hists := []histogram.Hist{
		unitHist(t, 1, 0, 0),
		unitHist(t, 0, 1, 0),
		unitHist(t, 0, 0, 1),
	}
	m := DefaultMeasure()
	pw, err := m.Pairwise(hists)
	if err != nil {
		t.Fatal(err)
	}
	if len(pw) != 3 {
		t.Fatalf("pairwise count = %d", len(pw))
	}
	w := 1.0 / 3
	want := []float64{w, 2 * w, w} // (0,1), (0,2), (1,2)
	for i := range want {
		if math.Abs(pw[i]-want[i]) > 1e-9 {
			t.Errorf("pairwise[%d] = %g, want %g", i, pw[i], want[i])
		}
	}
}

func TestBreakdown(t *testing.T) {
	hists := []histogram.Hist{
		unitHist(t, 1, 0),
		unitHist(t, 0, 1),
	}
	pairs, agg, err := DefaultMeasure().Breakdown(hists)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 1 || pairs[0].I != 0 || pairs[0].J != 1 {
		t.Errorf("breakdown pairs = %v", pairs)
	}
	if math.Abs(agg-0.5) > 1e-12 {
		t.Errorf("breakdown aggregate = %g", agg)
	}
}

// Property: unfairness under Average/Max is within [0, Hi-Lo] for any
// valid partitioning.
func TestUnfairnessBoundedQuick(t *testing.T) {
	g := stats.NewRNG(515)
	m := DefaultMeasure()
	f := func(nn uint8) bool {
		n := int(nn%40) + 4
		scores := make([]float64, n)
		for i := range scores {
			scores[i] = g.Float64()
		}
		// Random 2-4 way partitioning.
		k := 2 + g.IntN(3)
		parts := make([][]int, k)
		for i := 0; i < n; i++ {
			p := g.IntN(k)
			parts[p] = append(parts[p], i)
		}
		var nonEmpty [][]int
		for _, p := range parts {
			if len(p) > 0 {
				nonEmpty = append(nonEmpty, p)
			}
		}
		if len(nonEmpty) == 0 {
			return true
		}
		u, err := m.Unfairness(scores, nonEmpty)
		if err != nil {
			return false
		}
		return u >= 0 && u <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: merging two identical-distribution partitions cannot raise
// max-aggregated unfairness above the pre-merge value.
func TestDistanceSymmetryQuick(t *testing.T) {
	g := stats.NewRNG(616)
	dists := []Distance{EMD1D{}, KS{}, TotalVariation{}, EMDThresholded{Threshold: 0.5}}
	f := func(nn uint8) bool {
		n := int(nn%8) + 2
		a := histogram.Hist{Lo: 0, Hi: 1, Counts: make([]float64, n)}
		b := histogram.Hist{Lo: 0, Hi: 1, Counts: make([]float64, n)}
		for i := 0; i < n; i++ {
			a.Counts[i] = g.Float64() + 0.01
			b.Counts[i] = g.Float64() + 0.01
		}
		na, err1 := a.Normalize()
		nb, err2 := b.Normalize()
		if err1 != nil || err2 != nil {
			return false
		}
		for _, dist := range dists {
			dab, err1 := dist.Between(na, nb)
			dba, err2 := dist.Between(nb, na)
			if err1 != nil || err2 != nil {
				return false
			}
			if math.Abs(dab-dba) > 1e-9 || dab < 0 {
				return false
			}
			self, err := dist.Between(na, na)
			if err != nil || math.Abs(self) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
