package emd

import (
	"math"
	"testing"

	"repro/internal/stats"
)

// thresholdedReference is the oracle Thresholded1D must match: the
// general transport solver on the explicit thresholded ground matrix.
func thresholdedReference(p, q []float64, w, t float64) (float64, error) {
	work, _, err := Transport(p, q, Threshold(GroundDistance1D(len(p), w), t))
	return work, err
}

// oracleHist draws a unit-mass histogram; sparse ones zero about half
// of the bins (always keeping one).
func oracleHist(g *stats.RNG, n int, sparse bool) []float64 {
	v := make([]float64, n)
	s := 0.0
	for i := range v {
		if !sparse || g.Float64() < 0.5 {
			v[i] = g.Float64()
			s += v[i]
		}
	}
	if s == 0 {
		v[g.IntN(n)] = 1
		s = 1
	}
	for i := range v {
		v[i] /= s
	}
	return v
}

// Thresholded1D equals the transport optimum under the thresholded
// ground over seeded instances: bins 2..100 (mostly small, since the
// oracle's cost grows steeply with bins), thresholds from below one bin
// width to above the grid diameter and +Inf, dense and sparse inputs.
func TestThresholded1DMatchesTransport(t *testing.T) {
	g := stats.NewRNG(9101)
	trials := 10000
	if testing.Short() {
		trials = 1000
	}
	for trial := 0; trial < trials; trial++ {
		n := 2 + g.IntN(30)
		switch {
		case trial%200 == 0:
			n = 100
		case trial%50 == 0:
			n = 32 + g.IntN(68)
		}
		w := (0.5 + g.Float64()) / float64(n)
		diameter := float64(n-1) * w
		th := (1 - g.Float64()) * 1.2 * diameter
		if trial%97 == 0 {
			th = math.Inf(1)
		}
		sparse := trial%2 == 1
		p, q := oracleHist(g, n, sparse), oracleHist(g, n, sparse)
		got, err := Thresholded1D(p, q, w, th)
		if err != nil {
			t.Fatal(err)
		}
		want, err := thresholdedReference(p, q, w, th)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("trial %d (n=%d w=%g t=%g sparse=%v): DP %.17g, transport %.17g",
				trial, n, w, th, sparse, got, want)
		}
	}
}

// The equal-mass ÊMD is the plain EMD transport work under the same
// thresholded ground.
func TestHatEqualMassEqualsEMDWork(t *testing.T) {
	p := []float64{0.5, 0, 0, 0.5}
	q := []float64{0, 0.5, 0, 0.5}
	for _, th := range []float64{0.5, 1, 2, 3, math.Inf(1)} {
		hat, err := Thresholded1D(p, q, 1, th)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := EMD(p, q, Threshold(GroundDistance1D(4, 1), th))
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(hat, plain, 1e-12) || !almostEqual(hat, math.Min(th, 1)/2, 1e-12) {
			t.Errorf("t=%g: Hat=%g, EMD=%g", th, hat, plain)
		}
	}
}

// At or above the grid diameter the threshold cannot bind, so the
// distance is Hist1D's closed form.
func TestGroundLinearClosedFormMatchesSolver(t *testing.T) {
	g := stats.NewRNG(5002)
	for trial := 0; trial < 200; trial++ {
		n := 1 + trial%12
		p, q := randDist(g, n), randDist(g, n)
		w := 1.0 / float64(n)
		closed, err := Hist1D(p, q, w)
		if err != nil {
			t.Fatal(err)
		}
		for _, th := range []float64{math.Max(float64(n-1)*w, w), 10, math.Inf(1)} {
			got, err := Thresholded1D(p, q, w, th)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-closed) > 1e-12 {
				t.Errorf("trial %d t=%g: Thresholded1D=%g, Hist1D=%g", trial, th, got, closed)
			}
		}
	}
}

func TestThresholded1DErrors(t *testing.T) {
	ok := []float64{0.5, 0.5}
	for name, tc := range map[string]struct {
		p, q []float64
		w, t float64
	}{
		"length mismatch": {[]float64{1}, ok, 1, 1},
		"empty":           {nil, nil, 1, 1},
		"zero width":      {ok, ok, 0, 1},
		"NaN width":       {ok, ok, math.NaN(), 1},
		"infinite width":  {ok, ok, math.Inf(1), 1},
		"negative mass":   {[]float64{-1, 2}, []float64{1, 0}, 1, 1},
		"NaN mass":        {[]float64{math.NaN(), 1}, []float64{1, 0}, 1, 1},
		"infinite mass":   {[]float64{math.Inf(1), 0}, []float64{math.Inf(1), 0}, 1, 1},
		"mass mismatch":   {[]float64{1, 0}, []float64{0.5, 0}, 1, 1},
		"zero threshold":  {ok, ok, 1, 0},
		"negative t":      {ok, ok, 1, -1},
		"NaN threshold":   {ok, ok, 1, math.NaN()},
	} {
		if d, err := Thresholded1D(tc.p, tc.q, tc.w, tc.t); err == nil {
			t.Errorf("%s: got %g, want an error", name, d)
		}
	}
	if d, err := Thresholded1D([]float64{0, 0}, []float64{0, 0}, 1, 1); err != nil || d != 0 {
		t.Errorf("zero-mass pair: got %g, %v; want 0 like Hist1D", d, err)
	}
}

// FuzzThresholded1D checks the dynamic program against the transport
// oracle on byte-coded histograms: the first half of data is p, the
// second half q, each normalized; tNum/1024 is the threshold (0 must
// error) and (1+wNum)/64 the bin width.
func FuzzThresholded1D(f *testing.F) {
	f.Add([]byte{1, 0, 0, 1}, uint16(512), uint8(63))
	f.Add([]byte{9, 0, 0, 0, 0, 0, 0, 9}, uint16(100), uint8(15))
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, uint16(2048), uint8(7))
	f.Add([]byte{0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 0, 7}, uint16(1), uint8(0))
	f.Add([]byte{255, 1, 255, 1, 1, 255, 1, 255}, uint16(65535), uint8(255))
	f.Add([]byte{1, 1}, uint16(0), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, tNum uint16, wNum uint8) {
		n := min(len(data)/2, 40)
		if n == 0 {
			return
		}
		p, q := make([]float64, n), make([]float64, n)
		var sp, sq float64
		for i := range n {
			p[i], q[i] = float64(data[i]), float64(data[n+i])
			sp += p[i]
			sq += q[i]
		}
		if sp == 0 || sq == 0 {
			return
		}
		for i := range n {
			p[i] /= sp
			q[i] /= sq
		}
		w, th := float64(1+int(wNum))/64, float64(tNum)/1024
		got, err := Thresholded1D(p, q, w, th)
		if th == 0 {
			if err == nil {
				t.Fatalf("t=0 gave %g, want an error", got)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		want, err := thresholdedReference(p, q, w, th)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-12*math.Max(1, want) {
			t.Fatalf("n=%d w=%g t=%g: DP %.17g, transport %.17g", n, w, th, got, want)
		}
	})
}
