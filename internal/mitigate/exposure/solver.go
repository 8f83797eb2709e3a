package exposure

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Config has no fields. The solver is exact at every population size
// and needs no tuning; the type stays so existing call sites that pass
// Config{} keep compiling.
type Config struct{}

// Component is one ranking of the optimal distribution with its
// probability.
type Component struct {
	// Weight is the convex coefficient; the weights of a solution are
	// positive and sum to 1.
	Weight float64
	// Ranking is a permutation of the population's row indices, best
	// first.
	Ranking []int
}

// Solution is the solved exposure LP: a distribution over at most
// 2G+2 rankings (G = group count) together with the expected
// quantities FaiRank reports, all computed from those rankings.
type Solution struct {
	// Support holds the rankings with positive weight, in the order the
	// column generation found them.
	Support []Component
	// GroupExposure[g] is group g's expected exposure under the
	// distribution: the weighted mean position discount per member.
	// The LP guarantees min/max ≥ the floor to solver tolerance.
	GroupExposure []float64
	// Utility is the expected utility Σ_k w_k Σ_i u_i·v_{π_k(i)}.
	Utility float64
}

// column is one variable of the master LP: a ranking (nil for the
// uniform seed) with its utility and per-group exposure.
type column struct {
	ranking  []int
	utility  float64
	exposure []float64
}

// weightDust is the largest master weight treated as zero: simplex
// rounding can leave a column that belongs at zero basic at ~1e-17.
const weightDust = 1e-12

// Solve solves the fairness-of-exposure LP for one population by
// column generation over whole rankings: scores order the rows (higher
// is better), groups is a disjoint cover of 0..n-1, and minRatio ∈
// (0,1] is the floor every pairwise ratio of expected group exposures
// must meet. The uniform distribution meets every floor ≤ 1, so errors
// are configuration errors or solver failures, never infeasibility.
// The Config argument is ignored.
func Solve(scores []float64, groups [][]int, minRatio float64, _ Config) (*Solution, error) {
	n := len(scores)
	if n == 0 {
		return nil, fmt.Errorf("exposure: no scores")
	}
	if len(groups) == 0 {
		return nil, fmt.Errorf("exposure: no groups")
	}
	if minRatio <= 0 || minRatio > 1 {
		return nil, fmt.Errorf("exposure: ratio floor %g outside (0,1]", minRatio)
	}
	groupOf := slices.Repeat([]int{-1}, n)
	covered := 0
	for g, rows := range groups {
		if len(rows) == 0 {
			return nil, fmt.Errorf("exposure: group %d is empty", g)
		}
		for _, r := range rows {
			if r < 0 || r >= n {
				return nil, fmt.Errorf("exposure: group %d row %d outside population of %d", g, r, n)
			}
			if groupOf[r] >= 0 {
				return nil, fmt.Errorf("exposure: row %d appears in two groups", r)
			}
			groupOf[r] = g
			covered++
		}
	}
	if covered != n {
		return nil, fmt.Errorf("exposure: groups cover %d of %d rows; a full partitioning is required", covered, n)
	}

	G := len(groups)
	bias := make([]float64, n)
	sumU, sumV, maxU := 0.0, 0.0, 0.0
	for i := range bias {
		bias[i] = PositionBias(i + 1)
		sumV += bias[i]
		sumU += scores[i]
		maxU = math.Max(maxU, math.Abs(scores[i]))
	}
	newColumn := func(ranking []int) column {
		c := column{ranking: ranking, exposure: make([]float64, G)}
		for pos, row := range ranking {
			c.utility += scores[row] * bias[pos]
			c.exposure[groupOf[row]] += bias[pos]
		}
		for g := range c.exposure {
			c.exposure[g] /= float64(len(groups[g]))
		}
		return c
	}

	// The uniform doubly-stochastic column (every row at every position
	// with probability 1/n) gives every group the same exposure, so it
	// makes the first master feasible at any floor. Its utility carries
	// a penalty M larger than any ranking's utility span: the n cyclic
	// shifts of any ranking average to the same exposures at utility
	// U(uniform), so every optimum of the full LP gives it weight 0.
	bigM := float64(n)*maxU*bias[0] + 1
	uniform := column{utility: sumU*sumV/float64(n) - bigM, exposure: slices.Repeat([]float64{sumV / float64(n)}, G)}
	cols := []column{newColumn(rankBy(scores))}

	// Pricing: under row duals y a ranking π's reduced cost is
	//	Σ_i u_i·v_π(i) − Σ_g (y_lo,g + y_hi,g)·E_g(π) − y_sum
	//	= Σ_i a_i·v_π(i) − y_sum,  a_i = u_i − (y_lo,g(i) + y_hi,g(i))/|g(i)|,
	// and v is decreasing, so by the rearrangement inequality sorting
	// rows by a descending maximizes it over all n! rankings. That best
	// Σ a·v bounds the full LP's optimum from above, plus fixedGain: what
	// the master's fixed columns (L, U, the slacks and t, each at most 1)
	// could still add where y prices them positively — zero for exact
	// master duals, but it keeps the bound valid under rounding drift.
	a := make([]float64, n)
	price := func(y []float64) column {
		for i := range a {
			g := groupOf[i]
			a[i] = scores[i] - (y[2*g]+y[2*g+1])/float64(len(groups[g]))
		}
		return newColumn(rankBy(a))
	}
	// next returns a column that improves the master with duals y and
	// value z, or nil once the best bound seen is within tol of z. It
	// prices first at a point between the duals of that best bound and
	// y (Wentges smoothing: the master's own duals oscillate, and with
	// many groups plain pricing tails off over hundreds of rounds), then
	// at y itself, where a non-improving best column proves optimality.
	tol := optTol * bigM
	var center []float64
	best := math.Inf(1)
	next := func(y []float64, z float64) *column {
		smoothed := y
		if center != nil {
			smoothed = make([]float64, len(y))
			for i := range y {
				smoothed[i] = 0.8*center[i] + 0.2*y[i]
			}
		}
		for _, at := range [][]float64{smoothed, y} {
			col := price(at)
			if bound := col.reducedCost(at) + at[2*G+1] + fixedGain(at, minRatio); bound < best {
				best, center = bound, at
			}
			if best-z <= tol {
				return nil
			}
			if col.reducedCost(y) > tol {
				return &col
			}
		}
		return nil
	}

	// Each pass solves the master over every column so far afresh,
	// then adds columns to the solved tableau until no ranking
	// improves it or its duals drift. The answer is read only from a
	// pass that added none, so it never rests on a tableau carried
	// through many pivots.
	maxRounds := 20*(2*G+2) + 200
	for rounds := 0; ; {
		master, err := newMaster(cols, uniform, minRatio)
		if err != nil {
			return nil, err
		}
		for added := 0; ; added++ {
			w, z, y := master.solution()
			if added > 0 && fixedGain(y, minRatio) > tol {
				break
			}
			col := next(y, z)
			if col == nil && added == 0 {
				if w[len(cols)] > weightDust {
					return nil, fmt.Errorf("exposure: optimum keeps weight %g on the uniform seed column", w[len(cols)])
				}
				return newSolution(cols, w), nil
			}
			if col == nil {
				break
			}
			if rounds++; rounds > maxRounds {
				return nil, fmt.Errorf("exposure: column generation did not converge in %d rounds", maxRounds)
			}
			cols = append(cols, *col)
			master.addColumn(col.utility, col.coefficients())
			if master.iterate() != nil {
				break
			}
		}
	}
}

// fixedGain is Σ max(0, c_j − y·A_j) over the master's fixed columns
// L, U, s_g, w_g and t (all with c_j = 0).
func fixedGain(y []float64, minRatio float64) float64 {
	G := len(y)/2 - 1
	lo, hi := 0.0, 0.0
	gain := math.Max(y[2*G], 0)
	for g := 0; g < G; g++ {
		lo, hi = lo+y[2*g], hi+y[2*g+1]
		gain += math.Max(y[2*g], 0) + math.Max(-y[2*g+1], 0)
	}
	return gain + math.Max(lo-y[2*G], 0) + math.Max(hi+minRatio*y[2*G], 0)
}

// reducedCost is c − y·A for the column under master duals y.
func (c column) reducedCost(y []float64) float64 {
	rc := c.utility
	for i, v := range c.coefficients() {
		rc -= y[i] * v
	}
	return rc
}

// coefficients is the column's constraint vector in the master's rows:
// E_g in both bound rows of every group, 0 in the floor row, 1 in the
// convexity row.
func (c column) coefficients() []float64 {
	G := len(c.exposure)
	out := make([]float64, 2*G+2)
	for g, e := range c.exposure {
		out[2*g], out[2*g+1] = e, e
	}
	out[2*G+1] = 1
	return out
}

// newMaster builds and solves the restricted master LP over cols plus
// the uniform seed (after them). Rows, for G groups: E_g − L − s_g = 0
// and E_g − U + w_g = 0 per group (so L ≤ every E_g ≤ U),
// L − R·U − t = 0 (the floor: min E ≥ R·max E), and Σ weights = 1.
// Variables: the columns, then L, U, s_0..s_{G−1}, w_0..w_{G−1}, t.
func newMaster(cols []column, uniform column, minRatio float64) (*tableau, error) {
	G := len(uniform.exposure)
	K := len(cols) + 1
	vL, vU := K, K+1
	nVars := K + 2 + 2*G + 1
	c := make([]float64, nVars)
	A := make([][]float64, 2*G+2)
	for i := range A {
		A[i] = make([]float64, nVars)
	}
	for k, col := range append(cols[:len(cols):len(cols)], uniform) {
		c[k] = col.utility
		for i, v := range col.coefficients() {
			A[i][k] = v
		}
	}
	for g := 0; g < G; g++ {
		A[2*g][vL] = -1
		A[2*g][vU+1+g] = -1
		A[2*g+1][vU] = -1
		A[2*g+1][vU+1+G+g] = 1
	}
	A[2*G][vL] = 1
	A[2*G][vU] = -minRatio
	A[2*G][nVars-1] = -1
	b := make([]float64, 2*G+2)
	b[2*G+1] = 1
	t, err := newTableau(c, A, b)
	if err != nil {
		return nil, err
	}
	if err := t.solve(); err != nil {
		return nil, fmt.Errorf("exposure: master: %w", err)
	}
	return t, nil
}

// newSolution keeps the columns with positive weight, renormalizes
// their weights to sum to 1, and derives the expected exposures and
// utility from the kept rankings.
func newSolution(cols []column, w []float64) *Solution {
	sol := &Solution{GroupExposure: make([]float64, len(cols[0].exposure))}
	total := 0.0
	for k := range cols {
		if w[k] > weightDust {
			total += w[k]
		}
	}
	for k, col := range cols {
		if w[k] <= weightDust {
			continue
		}
		wk := w[k] / total
		sol.Support = append(sol.Support, Component{Weight: wk, Ranking: col.ranking})
		sol.Utility += wk * col.utility
		for g, e := range col.exposure {
			sol.GroupExposure[g] += wk * e
		}
	}
	return sol
}

// Decompose returns the optimal distribution's support: the rankings
// Solve found, with their weights. The slice is the Solution's own.
// The error is always nil; it stays for existing call sites.
func (s *Solution) Decompose() ([]Component, error) { return s.Support, nil }

// ExposureRatio is the worst pairwise ratio of expected group
// exposures under the optimum, min/max — the statistic the LP floor
// constrains. Every group's exposure is positive.
func (s *Solution) ExposureRatio() float64 {
	lo, hi := math.Inf(1), 0.0
	for _, e := range s.GroupExposure {
		lo, hi = math.Min(lo, e), math.Max(hi, e)
	}
	return lo / hi
}

// PositionBias is the exposure discount of the 1-based rank, the
// 1/log2(1+rank) of Singh & Joachims that the whole repository uses.
func PositionBias(rank int) float64 { return 1 / math.Log2(1+float64(rank)) }

// rankBy orders the rows by key descending, ties by row index
// ascending — the repository-wide deterministic tie-break.
func rankBy(key []float64) []int {
	order := make([]int, len(key))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(key[b], key[a]); c != 0 {
			return c
		}
		return a - b
	})
	return order
}
