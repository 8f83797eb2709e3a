package mitigate

import (
	"fmt"
	"math"
)

// FAIR is the FA*IR top-k re-ranking of Zehlike et al. (CIKM 2017),
// generalized from one binary protected group to the full partitioning
// the quantification engine discovers: every group g with target
// proportion p_g must hold at least m_g(t) of the first t positions
// for every prefix t ≤ k, where m_g(t) is the binomial
// minimum-representation table — the smallest count a fair
// Bernoulli(p_g) process would still exceed with probability above the
// adjusted significance level.
//
// The adjustment is the paper's exact model adjustment (see mtable.go):
// Alpha is split across the tested groups, and within each group the
// per-test level αc is binary-searched so the exact joint probability
// that a fair process fails any of the k prefix tests — computed by DP
// over the table's block structure — matches the group's share of
// Alpha as closely as the discrete table space allows.
//
// Within the constraints the ranking is utility-greedy: each position
// takes the best-scoring remaining candidate unless awarding it would
// make some future minimum unsatisfiable, in which case the slot goes
// to the most urgent constrained group (see forcedPick). Positions
// beyond k are filled purely by score.
type FAIR struct{}

// Name implements Mitigator.
func (FAIR) Name() string { return "fair" }

// Rerank implements Mitigator.
func (f FAIR) Rerank(in Input) ([]int, error) {
	n, err := in.validate(f.Name())
	if err != nil {
		return nil, err
	}
	targets, err := in.targets(f.Name(), n)
	if err != nil {
		return nil, err
	}
	alpha := in.Alpha
	if alpha == 0 {
		alpha = 0.1
	}
	if alpha < 0 || alpha >= 1 {
		return nil, fmt.Errorf("mitigate: %s: alpha %g outside (0,1)", f.Name(), alpha)
	}

	// Minimum-representation tables, and the up-front feasibility
	// check: a table demanding more members than a group has can never
	// be satisfied by any permutation.
	tables := make([][]int, len(in.Groups))
	for g := range in.Groups {
		mt := exactMTable(in.K, targets[g], alpha/float64(len(in.Groups)))
		tables[g] = mt.Min
		if need := tables[g][in.K]; need > len(in.Groups[g]) {
			return nil, &InfeasibleError{
				Strategy: f.Name(),
				Group:    g,
				Detail: fmt.Sprintf("minimum representation %d at k=%d exceeds group size %d (target %.3f, adjusted alpha %.2g)",
					need, in.K, len(in.Groups[g]), targets[g], mt.AlphaC),
			}
		}
	}
	return constrainedMerge(f.Name(), in, tables, nil)
}

// binomMinTable returns m[t] for t = 0..k: the smallest count m such
// that the binomial CDF F(m; t, p) exceeds alpha — FA*IR's minimum
// number of group members required at prefix length t for the ranking
// to pass the statistical test at significance alpha.
//
// m is nondecreasing in t and grows by at most one per step, so the
// scan maintains F(m; t, p) incrementally with two O(1) recurrences —
//
//	trial: F(m; t, p) = F(m; t-1, p) − p·P[X_{t-1} = m]
//	count: F(m+1; t, p) = F(m; t, p) + P[X_t = m+1]
//
// — each contributing one log-space pmf term, accumulated with Kahan
// compensation so the k-step running sum stays numerically stable.
// The whole table is O(k); the previous implementation re-summed the
// full CDF term-by-term at every probe of the scan.
func binomMinTable(k int, p, alpha float64) []int {
	table := make([]int, k+1)
	if p <= 0 {
		return table
	}
	if p >= 1 {
		for t := 1; t <= k; t++ {
			table[t] = t
		}
		return table
	}
	logP, logQ := math.Log(p), math.Log1p(-p)
	cdf, comp := 1.0, 0.0 // F(0; 0, p) = 1, with Kahan compensation
	add := func(x float64) {
		y := x - comp
		s := cdf + y
		comp = (s - cdf) - y
		cdf = s
	}
	m := 0
	pmf := 1.0 // P[X_0 = 0]
	for t := 1; t <= k; t++ {
		add(-p * pmf) // the mass that outgrows m on the t-th trial
		pmf = binomPMF(m, t, logP, logQ)
		for m < t && cdf <= alpha {
			m++
			pmf = binomPMF(m, t, logP, logQ)
			add(pmf)
		}
		table[t] = m
	}
	return table
}

// binomPMF returns P[X = m] for X ~ Binomial(t, p) as a single
// log-space term; logP and logQ are log(p) and log(1-p).
func binomPMF(m, t int, logP, logQ float64) float64 {
	lgt, _ := math.Lgamma(float64(t + 1))
	lgm, _ := math.Lgamma(float64(m + 1))
	lgtm, _ := math.Lgamma(float64(t - m + 1))
	return math.Exp(lgt - lgm - lgtm + float64(m)*logP + float64(t-m)*logQ)
}

// binomCDF returns P[X <= m] for X ~ Binomial(t, p), with each term
// computed in log space so large prefixes stay finite. It is the
// direct reference form of the incremental accumulation binomMinTable
// performs; tests cross-check the two.
func binomCDF(m, t int, p float64) float64 {
	if m >= t {
		return 1
	}
	logP, logQ := math.Log(p), math.Log1p(-p)
	sum := 0.0
	for i := 0; i <= m; i++ {
		sum += binomPMF(i, t, logP, logQ)
	}
	if sum > 1 {
		return 1
	}
	return sum
}
