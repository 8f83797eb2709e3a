package emd

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

// Rubner EMD is invariant to uniform scaling of both masses (it
// normalizes by the transported flow).
func TestEMDScaleInvarianceQuick(t *testing.T) {
	g := stats.NewRNG(7001)
	f := func(nn uint8) bool {
		n := int(nn%8) + 2
		p := randDist(g, n)
		q := randDist(g, n)
		ground := GroundDistance1D(n, 0.1)
		base, err := EMD(p, q, ground)
		if err != nil {
			return false
		}
		alpha := 0.5 + 3*g.Float64()
		ps := make([]float64, n)
		qs := make([]float64, n)
		for i := range p {
			ps[i] = alpha * p[i]
			qs[i] = alpha * q[i]
		}
		scaled, err := EMD(ps, qs, ground)
		if err != nil {
			return false
		}
		return math.Abs(base-scaled) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Thresholding the ground distance can only lower the optimal cost.
func TestThresholdMonotoneQuick(t *testing.T) {
	g := stats.NewRNG(7002)
	f := func(nn, tt uint8) bool {
		n := int(nn%8) + 2
		p := randDist(g, n)
		q := randDist(g, n)
		ground := GroundDistance1D(n, 0.1)
		full, err := EMD(p, q, ground)
		if err != nil {
			return false
		}
		threshold := 0.05 + float64(tt%10)*0.05
		capped, err := EMD(p, q, Threshold(ground, threshold))
		if err != nil {
			return false
		}
		return capped <= full+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Transport on a 1-supplier problem ships everything from it.
func TestTransportSingleSupplier(t *testing.T) {
	cost, flows, err := Transport([]float64{3}, []float64{1, 2}, [][]float64{{2, 5}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cost-(1*2+2*5)) > 1e-9 {
		t.Errorf("cost = %g, want 12", cost)
	}
	total := 0.0
	for _, f := range flows {
		total += f.Amount
	}
	if math.Abs(total-3) > 1e-9 {
		t.Errorf("shipped %g, want 3", total)
	}
}

// Identity: the EMD of a distribution against itself is zero — no
// mass has to move. Checked over randomized histograms (fixed seed)
// for both the transport solver and the closed-form 1-D path.
func TestEMDIdentityQuick(t *testing.T) {
	g := stats.NewRNG(7004)
	f := func(nn uint8) bool {
		n := int(nn%10) + 2
		p := randDist(g, n)
		ground := GroundDistance1D(n, 1.0/float64(n))
		d, err := EMD(p, p, ground)
		if err != nil {
			return false
		}
		h, err := Hist1D(p, p, 1.0/float64(n))
		if err != nil {
			return false
		}
		return math.Abs(d) < 1e-12 && math.Abs(h) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Symmetry: with a symmetric ground distance, EMD(p,q) = EMD(q,p),
// and the closed-form 1-D solver agrees with itself under swap.
func TestEMDSymmetryQuick(t *testing.T) {
	g := stats.NewRNG(7005)
	f := func(nn uint8) bool {
		n := int(nn%10) + 2
		p := randDist(g, n)
		q := randDist(g, n)
		ground := GroundDistance1D(n, 1.0/float64(n))
		ab, err := EMD(p, q, ground)
		if err != nil {
			return false
		}
		ba, err := EMD(q, p, ground)
		if err != nil {
			return false
		}
		hab, err := Hist1D(p, q, 1.0/float64(n))
		if err != nil {
			return false
		}
		hba, err := Hist1D(q, p, 1.0/float64(n))
		if err != nil {
			return false
		}
		return math.Abs(ab-ba) < 1e-9 && math.Abs(hab-hba) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// ÊMD is positively homogeneous: scaling both masses by c scales
// Thresholded1D by c (transport work is linear in mass).
func TestHatScaleInvarianceQuick(t *testing.T) {
	g := stats.NewRNG(7006)
	f := func(nn, tt uint8) bool {
		n := int(nn%8) + 2
		p := randDist(g, n)
		q := randDist(g, n)
		threshold := 0.05 + float64(tt%10)*0.05
		base, err := Thresholded1D(p, q, 0.1, threshold)
		if err != nil {
			return false
		}
		scale := 0.25 + 3*g.Float64()
		ps := make([]float64, n)
		qs := make([]float64, n)
		for i := range p {
			ps[i] = scale * p[i]
			qs[i] = scale * q[i]
		}
		scaled, err := Thresholded1D(ps, qs, 0.1, threshold)
		if err != nil {
			return false
		}
		return math.Abs(scaled-scale*base) < 1e-8*math.Max(1, scale*base)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// The optimal 1-D transport never moves more total mass-distance than
// the naive plan that ships everything to one end and back.
func TestHist1DUpperBoundQuick(t *testing.T) {
	g := stats.NewRNG(7003)
	f := func(nn uint8) bool {
		n := int(nn%10) + 2
		p := randDist(g, n)
		q := randDist(g, n)
		w := 1.0 / float64(n)
		d, err := Hist1D(p, q, w)
		if err != nil {
			return false
		}
		// Naive bound: total variation distance times diameter.
		tv := 0.0
		for i := range p {
			tv += math.Abs(p[i] - q[i])
		}
		tv /= 2
		return d <= tv*float64(n-1)*w+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
