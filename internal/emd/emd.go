// Package emd implements the Earth Mover's Distance between
// histograms, the distance FaiRank uses to compare score distributions
// across partitions (paper §1, §3.1, citing Pele & Werman [8]).
//
// Three solvers are provided:
//
//   - Hist1D: exact closed form for one-dimensional histograms with
//     equal-width bins and equal total mass (the common case for score
//     histograms: EMD reduces to the L1 distance between CDFs scaled by
//     the bin width).
//   - Transport: an exact solver for the general transportation
//     problem with an arbitrary ground-distance matrix, used to
//     validate the 1-D solvers and to support non-linear ground
//     distances.
//   - Thresholded1D: the thresholded ÊMD of Pele & Werman for 1-D
//     histograms, whose ground distance min(|i-j|·w, t) truncates far
//     moves at t. That ground is the shortest-path metric of the path
//     graph over the bins (edge cost w) plus one hub joined to every
//     bin at cost t/2, so the transport problem is a flow on O(bins)
//     edges, solved exactly by an O(bins²) dynamic program over the
//     flow each prefix of bins sends into the hub — no cost matrix, no
//     flow network.
//
// All functions treat histograms as plain mass vectors; callers
// normalize if they want distribution (unit-mass) semantics.
package emd

import (
	"fmt"
	"math"
	"sort"
)

// massTol is the tolerance used when comparing total masses.
const massTol = 1e-9

// Hist1D returns the exact 1-D Earth Mover's Distance between two
// equal-length mass vectors whose bins are consecutive intervals of
// width binWidth. The two vectors must have equal total mass within a
// small tolerance; normalize first if they do not.
//
// For 1-D histograms the optimal transport never crosses itself, so
// the distance is binWidth * Σ_i |CDF_p(i) - CDF_q(i)|.
func Hist1D(p, q []float64, binWidth float64) (float64, error) {
	if err := check1D(p, q, binWidth); err != nil {
		return 0, err
	}
	var cum, dist float64
	for i := range p {
		cum += p[i] - q[i]
		dist += math.Abs(cum)
	}
	return dist * binWidth, nil
}

// Thresholded1D returns the exact Earth Mover's Distance between two
// equal-mass 1-D histograms under the thresholded ground distance
// min(|i-j|·binWidth, t) of Pele & Werman; with equal masses this is
// their ÊMD. The inputs are validated like Hist1D's; t must be
// positive (+Inf gives Hist1D's distance).
//
// The ground is the shortest-path metric of the path graph over the
// bins (edge cost w = binWidth) plus a hub joined to every bin at cost
// t/2. Let C_i = Σ_{k≤i} (p_k − q_k) and let H_i be the net mass bins
// 0..i send into the hub (H_{-1} = H_{n-1} = 0). Path edge (i, i+1)
// then carries C_i − H_i, and the distance is
//
//	min over H of  Σ_{i<n-1} w·|C_i − H_i|  +  (t/2)·Σ_{i<n} |H_i − H_{i-1}|,
//
// an L1 fit with a total-variation penalty. Some optimum is a vertex
// of this LP, so each H_i can be drawn from V = {0} ∪ {C_i}; a dynamic
// program over the sorted V, with a slope-t/2 L1 distance transform
// between steps, solves it in O(n²) time and O(n) memory. t is first
// clamped to the grid diameter (n−1)·w, above which it cannot bind.
func Thresholded1D(p, q []float64, binWidth, t float64) (float64, error) {
	if err := check1D(p, q, binWidth); err != nil {
		return 0, err
	}
	if !(t > 0) {
		return 0, fmt.Errorf("emd: invalid threshold %g", t)
	}
	n := len(p)
	half := math.Min(t, float64(n-1)*binWidth) / 2
	buf := make([]float64, 3*n-1)
	c, v, f := buf[:n-1], buf[n-1:2*n-1], buf[2*n-1:]
	cum := 0.0
	for i := range c {
		cum += p[i] - q[i]
		c[i] = cum
	}
	copy(v, c) // v[n-1] stays 0
	sort.Float64s(v)
	for j, x := range v {
		f[j] = half * math.Abs(x) // bin 0's hub edge carries H_0 − H_{-1} = x
	}
	for i, ci := range c {
		if i > 0 { // f(x) ← min_y f(y) + (t/2)·|x − y|: bin i's hub edge
			for j := 1; j < n; j++ {
				if g := f[j-1] + half*(v[j]-v[j-1]); g < f[j] {
					f[j] = g
				}
			}
			for j := n - 2; j >= 0; j-- {
				if g := f[j+1] + half*(v[j+1]-v[j]); g < f[j] {
					f[j] = g
				}
			}
		}
		for j, x := range v {
			f[j] += binWidth * math.Abs(ci-x)
		}
	}
	best := math.Inf(1)
	for j, x := range v { // bin n−1's hub edge returns H_{n-2} to 0
		if g := f[j] + half*math.Abs(x); g < best {
			best = g
		}
	}
	return best, nil
}

// check1D validates a pair of 1-D histograms for Hist1D and
// Thresholded1D: equal non-zero lengths, finite non-negative masses
// with equal totals, and a finite positive bin width.
func check1D(p, q []float64, binWidth float64) error {
	if len(p) != len(q) {
		return fmt.Errorf("emd: length mismatch %d vs %d", len(p), len(q))
	}
	if len(p) == 0 {
		return fmt.Errorf("emd: empty histograms")
	}
	if binWidth <= 0 || math.IsNaN(binWidth) || math.IsInf(binWidth, 0) {
		return fmt.Errorf("emd: invalid bin width %g", binWidth)
	}
	totP, err := validateMass("p", p)
	if err != nil {
		return err
	}
	totQ, err := validateMass("q", q)
	if err != nil {
		return err
	}
	if math.Abs(totP-totQ) > massTol*math.Max(1, math.Max(totP, totQ)) {
		return fmt.Errorf("emd: total mass mismatch %g vs %g; normalize first", totP, totQ)
	}
	return nil
}

// MeanIndex returns the mass-weighted mean bin index of a histogram,
// Σ i·p[i] for unit-mass vectors. Together with Hist1DLowerBound it
// gives an O(1)-per-pair lower bound on the 1-D EMD once each
// histogram's mean has been computed in one pass — the cheap test
// that lets aggregate searches skip exact solves for pairs that
// cannot change a max/min aggregate.
func MeanIndex(p []float64) float64 {
	m := 0.0
	for i, v := range p {
		m += float64(i) * v
	}
	return m
}

// Hist1DLowerBound lower-bounds the exact 1-D EMD between two
// equal-mass histograms from their precomputed mean indices:
//
//	EMD(p, q) = w·Σ_i |CDF_p(i) − CDF_q(i)| ≥ w·|Σ_i (CDF_p(i) − CDF_q(i))| = w·|μ_q − μ_p|
//
// (the signed CDF differences telescope to the negated mean-index
// difference when total masses are equal). The bound is exact in real
// arithmetic; callers that must never over-prune should shave it with
// a small margin to absorb floating-point rounding (see
// BoundMargin).
func Hist1DLowerBound(meanP, meanQ, binWidth float64) float64 {
	return math.Abs(meanP-meanQ) * binWidth
}

// BoundMargin loosens a lower bound (or tightens an upper bound) by a
// relative-plus-absolute safety margin large enough to absorb the
// floating-point rounding of both the bound and the exact solver, so
// pruning decisions made against the adjusted bound can never differ
// from decisions made against exact real-arithmetic values. EMD
// values and their bounds agree to ~1e-15 relative error; 1e-9 keeps
// nine orders of magnitude of slack while still pruning anything
// meaningfully separated.
func BoundMargin(v float64) float64 {
	return 1e-12 + 1e-9*math.Abs(v)
}

// GroundDistance1D returns the n×n ground-distance matrix for a 1-D
// histogram with the given bin width: cost[i][j] = |i-j| * binWidth.
func GroundDistance1D(n int, binWidth float64) [][]float64 {
	cost := make([][]float64, n)
	for i := range cost {
		cost[i] = make([]float64, n)
		for j := range cost[i] {
			cost[i][j] = math.Abs(float64(i-j)) * binWidth
		}
	}
	return cost
}

// Threshold returns a copy of cost with every entry truncated at t,
// the thresholded ground distance of Pele & Werman. Thresholding
// bounds the penalty for far-apart mass, making the distance robust to
// outlier bins.
func Threshold(cost [][]float64, t float64) [][]float64 {
	out := make([][]float64, len(cost))
	for i, row := range cost {
		out[i] = make([]float64, len(row))
		for j, c := range row {
			out[i][j] = math.Min(c, t)
		}
	}
	return out
}

// Flow is one edge of an optimal transport plan: Amount mass moved
// from supply bin From to demand bin To.
type Flow struct {
	From, To int
	Amount   float64
}

// validateMass checks a mass vector and returns its total.
func validateMass(name string, v []float64) (float64, error) {
	total := 0.0
	for i, x := range v {
		if x < 0 || math.IsNaN(x) || math.IsInf(x, 0) {
			return 0, fmt.Errorf("emd: %s[%d] invalid mass %g", name, i, x)
		}
		total += x
	}
	return total, nil
}

// validateCost checks a cost matrix of shape len(p) x len(q).
func validateCost(cost [][]float64, np, nq int) error {
	if len(cost) != np {
		return fmt.Errorf("emd: cost has %d rows, want %d", len(cost), np)
	}
	for i, row := range cost {
		if len(row) != nq {
			return fmt.Errorf("emd: cost row %d has %d cols, want %d", i, len(row), nq)
		}
		for j, c := range row {
			if c < 0 || math.IsNaN(c) || math.IsInf(c, 0) {
				return fmt.Errorf("emd: cost[%d][%d] invalid %g", i, j, c)
			}
		}
	}
	return nil
}

// EMD returns the Rubner Earth Mover's Distance between mass vectors p
// and q under the given ground-distance matrix: the minimum transport
// work divided by the transported mass min(Σp, Σq). For equal-mass
// unit histograms this equals the raw transport cost. It returns an
// error if either vector has zero mass.
func EMD(p, q []float64, cost [][]float64) (float64, error) {
	work, flow, err := minWork(p, q, cost)
	if err != nil {
		return 0, err
	}
	if flow <= 0 {
		return 0, fmt.Errorf("emd: zero transported mass")
	}
	return work / flow, nil
}

// Transport solves the balanced transportation problem exactly:
// minimize Σ f_ij cost[i][j] subject to row sums = supply, column sums
// = demand. Supply and demand totals must match within tolerance. It
// returns the optimal cost and a sparse flow plan.
func Transport(supply, demand []float64, cost [][]float64) (float64, []Flow, error) {
	totS, err := validateMass("supply", supply)
	if err != nil {
		return 0, nil, err
	}
	totD, err := validateMass("demand", demand)
	if err != nil {
		return 0, nil, err
	}
	if math.Abs(totS-totD) > massTol*math.Max(1, math.Max(totS, totD)) {
		return 0, nil, fmt.Errorf("emd: unbalanced transport %g vs %g", totS, totD)
	}
	work, flows, err := minWorkValidated(supply, demand, cost)
	return work, flows, err
}

// minWork computes the minimum work to move min(Σp, Σq) mass from p to
// q. It returns the work and the moved mass.
func minWork(p, q []float64, cost [][]float64) (work, moved float64, err error) {
	totP, err := validateMass("p", p)
	if err != nil {
		return 0, 0, err
	}
	totQ, err := validateMass("q", q)
	if err != nil {
		return 0, 0, err
	}
	if totP <= 0 || totQ <= 0 {
		return 0, 0, fmt.Errorf("emd: zero-mass histogram (%g, %g)", totP, totQ)
	}
	w, _, err := minWorkValidated(p, q, cost)
	if err != nil {
		return 0, 0, err
	}
	return w, math.Min(totP, totQ), nil
}

// minWorkValidated runs successive shortest paths on the bipartite
// transport network. Inputs are assumed non-negative and finite; the
// ground distances are checked here. The flow moved is
// min(Σsupply, Σdemand) — for balanced problems that moves everything.
func minWorkValidated(supply, demand []float64, cost [][]float64) (float64, []Flow, error) {
	n, m := len(supply), len(demand)
	if n == 0 || m == 0 {
		return 0, nil, fmt.Errorf("emd: empty problem (%d supplies, %d demands)", n, m)
	}
	if err := validateCost(cost, n, m); err != nil {
		return 0, nil, err
	}
	solver := newSSP(supply, demand, cost)
	return solver.run()
}
