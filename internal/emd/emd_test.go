package emd

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestHist1DIdentical(t *testing.T) {
	p := []float64{0.2, 0.3, 0.5}
	d, err := Hist1D(p, p, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Errorf("self distance = %g, want 0", d)
	}
}

func TestHist1DAdjacentShift(t *testing.T) {
	// All mass moves one bin of width 0.2 -> distance 0.2.
	p := []float64{1, 0}
	q := []float64{0, 1}
	d, err := Hist1D(p, q, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(d, 0.2, 1e-12) {
		t.Errorf("shift distance = %g, want 0.2", d)
	}
}

func TestHist1DExtremes(t *testing.T) {
	// Mass at opposite ends of 5 bins, width 0.2: moves 4 bins = 0.8.
	p := []float64{1, 0, 0, 0, 0}
	q := []float64{0, 0, 0, 0, 1}
	d, err := Hist1D(p, q, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(d, 0.8, 1e-12) {
		t.Errorf("extreme distance = %g, want 0.8", d)
	}
}

func TestHist1DPartialOverlap(t *testing.T) {
	// p = [0.5, 0.5, 0], q = [0, 0.5, 0.5], width 1.
	// Optimal: move 0.5 from bin0 to bin1 won't work (bin1 already
	// full), actual optimum: 0.5 from bin0→bin1 and 0.5 bin1→bin2 =
	// 1.0, or directly 0.5 bin0→bin2 = 1.0. Distance = 1.0.
	d, err := Hist1D([]float64{0.5, 0.5, 0}, []float64{0, 0.5, 0.5}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(d, 1.0, 1e-12) {
		t.Errorf("partial overlap = %g, want 1.0", d)
	}
}

func TestHist1DErrors(t *testing.T) {
	if _, err := Hist1D([]float64{1}, []float64{1, 0}, 1); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := Hist1D(nil, nil, 1); err == nil {
		t.Error("empty should error")
	}
	if _, err := Hist1D([]float64{1}, []float64{1}, 0); err == nil {
		t.Error("zero width should error")
	}
	if _, err := Hist1D([]float64{1, 0}, []float64{0.5, 0}, 1); err == nil {
		t.Error("mass mismatch should error")
	}
	if _, err := Hist1D([]float64{-1, 2}, []float64{1, 0}, 1); err == nil {
		t.Error("negative mass should error")
	}
	if _, err := Hist1D([]float64{math.NaN(), 1}, []float64{1, 0}, 1); err == nil {
		t.Error("NaN mass should error")
	}
}

func TestTransportSimple(t *testing.T) {
	// One supplier, one consumer.
	cost, flows, err := Transport([]float64{2}, []float64{2}, [][]float64{{3}})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(cost, 6, 1e-9) {
		t.Errorf("cost = %g, want 6", cost)
	}
	if len(flows) != 1 || flows[0].Amount != 2 {
		t.Errorf("flows = %v", flows)
	}
}

func TestTransportChoosesCheaper(t *testing.T) {
	// Supply 1 unit; two demand bins, costs 5 and 1; demand only at
	// the cheap one after balancing: classic 2x2.
	supply := []float64{1, 1}
	demand := []float64{1, 1}
	cost := [][]float64{
		{1, 10},
		{10, 1},
	}
	c, _, err := Transport(supply, demand, cost)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(c, 2, 1e-9) {
		t.Errorf("diagonal assignment cost = %g, want 2", c)
	}
}

func TestTransportCrossAssignment(t *testing.T) {
	// Forcing a crossing: cheap edges are off-diagonal.
	cost := [][]float64{
		{10, 1},
		{1, 10},
	}
	c, flows, err := Transport([]float64{1, 1}, []float64{1, 1}, cost)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(c, 2, 1e-9) {
		t.Errorf("cross assignment cost = %g, want 2", c)
	}
	for _, f := range flows {
		if f.From == f.To {
			t.Errorf("unexpected diagonal flow %v", f)
		}
	}
}

func TestTransportUnbalanced(t *testing.T) {
	if _, _, err := Transport([]float64{1}, []float64{2}, [][]float64{{1}}); err == nil {
		t.Error("unbalanced transport should error")
	}
}

func TestTransportBadCost(t *testing.T) {
	if _, _, err := Transport([]float64{1}, []float64{1}, [][]float64{{-1}}); err == nil {
		t.Error("negative cost should error")
	}
	if _, _, err := Transport([]float64{1}, []float64{1}, [][]float64{{math.NaN()}}); err == nil {
		t.Error("NaN cost should error")
	}
	if _, _, err := Transport([]float64{1, 1}, []float64{2}, [][]float64{{1}}); err == nil {
		t.Error("wrong cost shape should error")
	}
}

func TestEMDMatchesHist1D(t *testing.T) {
	g := stats.NewRNG(101)
	for trial := 0; trial < 50; trial++ {
		n := 2 + g.IntN(12)
		p := make([]float64, n)
		q := make([]float64, n)
		var sp, sq float64
		for i := range p {
			p[i] = g.Float64()
			q[i] = g.Float64()
			sp += p[i]
			sq += q[i]
		}
		for i := range p {
			p[i] /= sp
			q[i] /= sq
		}
		w := 1.0 / float64(n)
		closed, err := Hist1D(p, q, w)
		if err != nil {
			t.Fatal(err)
		}
		general, err := EMD(p, q, GroundDistance1D(n, w))
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(closed, general, 1e-8) {
			t.Fatalf("trial %d: closed=%.12f general=%.12f (n=%d)", trial, closed, general, n)
		}
	}
}

func TestEMDZeroMass(t *testing.T) {
	if _, err := EMD([]float64{0, 0}, []float64{1, 0}, GroundDistance1D(2, 1)); err == nil {
		t.Error("zero-mass should error")
	}
}

func TestThreshold(t *testing.T) {
	cost := GroundDistance1D(4, 1)
	th := Threshold(cost, 2)
	if th[0][3] != 2 {
		t.Errorf("threshold not applied: %g", th[0][3])
	}
	if th[0][1] != 1 {
		t.Errorf("below-threshold changed: %g", th[0][1])
	}
	if cost[0][3] != 3 {
		t.Error("Threshold mutated input")
	}
}

func TestThresholdReducesDistance(t *testing.T) {
	p := []float64{1, 0, 0, 0, 0}
	q := []float64{0, 0, 0, 0, 1}
	full, err := EMD(p, q, GroundDistance1D(5, 1))
	if err != nil {
		t.Fatal(err)
	}
	thr, err := EMD(p, q, Threshold(GroundDistance1D(5, 1), 2))
	if err != nil {
		t.Fatal(err)
	}
	if thr >= full {
		t.Errorf("thresholded %g should be < full %g", thr, full)
	}
	if !almostEqual(thr, 2, 1e-9) {
		t.Errorf("thresholded distance = %g, want 2", thr)
	}
}

// Metric axioms on normalized histograms (properties required for the
// fairness measure to behave sensibly).

func randDist(g *stats.RNG, n int) []float64 {
	v := make([]float64, n)
	s := 0.0
	for i := range v {
		v[i] = g.Float64() + 1e-6
		s += v[i]
	}
	for i := range v {
		v[i] /= s
	}
	return v
}

func TestMetricAxiomsQuick(t *testing.T) {
	g := stats.NewRNG(202)
	f := func(nn uint8) bool {
		n := int(nn%10) + 2
		w := 1.0 / float64(n)
		p := randDist(g, n)
		q := randDist(g, n)
		r := randDist(g, n)
		dpq, err1 := Hist1D(p, q, w)
		dqp, err2 := Hist1D(q, p, w)
		dpp, err3 := Hist1D(p, p, w)
		dpr, err4 := Hist1D(p, r, w)
		drq, err5 := Hist1D(r, q, w)
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil || err5 != nil {
			return false
		}
		// Non-negativity, identity, symmetry, triangle inequality.
		if dpq < 0 || dpp != 0 {
			return false
		}
		if !almostEqual(dpq, dqp, 1e-12) {
			return false
		}
		return dpq <= dpr+drq+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Hist1D is bounded by (n-1)*binWidth (the diameter).
func TestHist1DBoundedQuick(t *testing.T) {
	g := stats.NewRNG(303)
	f := func(nn uint8) bool {
		n := int(nn%16) + 2
		w := 0.05
		p := randDist(g, n)
		q := randDist(g, n)
		d, err := Hist1D(p, q, w)
		if err != nil {
			return false
		}
		return d <= float64(n-1)*w+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: transport plan conserves mass (row sums = supply, col sums
// = demand).
func TestTransportConservationQuick(t *testing.T) {
	g := stats.NewRNG(404)
	f := func(nn, mm uint8) bool {
		n := int(nn%5) + 1
		m := int(mm%5) + 1
		supply := make([]float64, n)
		demand := make([]float64, m)
		tot := 0.0
		for i := range supply {
			supply[i] = g.Float64() + 0.1
			tot += supply[i]
		}
		rem := tot
		for j := 0; j < m-1; j++ {
			demand[j] = rem * g.Float64() * 0.5
			rem -= demand[j]
		}
		demand[m-1] = rem
		cost := make([][]float64, n)
		for i := range cost {
			cost[i] = make([]float64, m)
			for j := range cost[i] {
				cost[i][j] = g.Float64() * 10
			}
		}
		_, flows, err := Transport(supply, demand, cost)
		if err != nil {
			return false
		}
		rowSum := make([]float64, n)
		colSum := make([]float64, m)
		for _, fl := range flows {
			rowSum[fl.From] += fl.Amount
			colSum[fl.To] += fl.Amount
		}
		for i := range supply {
			if !almostEqual(rowSum[i], supply[i], 1e-6) {
				return false
			}
		}
		for j := range demand {
			if !almostEqual(colSum[j], demand[j], 1e-6) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestGroundDistance1D(t *testing.T) {
	g := GroundDistance1D(3, 0.5)
	want := [][]float64{
		{0, 0.5, 1},
		{0.5, 0, 0.5},
		{1, 0.5, 0},
	}
	for i := range want {
		for j := range want[i] {
			if g[i][j] != want[i][j] {
				t.Fatalf("ground[%d][%d] = %g, want %g", i, j, g[i][j], want[i][j])
			}
		}
	}
}
