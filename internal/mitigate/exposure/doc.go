// Package exposure is the numeric core of FaiRank's stochastic
// fairness-of-exposure mitigation (Singh & Joachims, NeurIPS 2018).
// Solve finds the distribution over rankings that maximizes expected
// utility subject to a floor R on every pairwise ratio of expected
// group exposures:
//
//	maximize   Σ_k w_k · U(π_k)
//	subject to L ≤ E_g ≤ U for every group g,  L ≥ R·U,
//	           Σ_k w_k = 1,  w ≥ 0,
//
// where the π_k are rankings, U(π) = Σ_i u_i·v_π(i) is a ranking's
// utility (FaiRank passes pseudo-scores as u), v_j = 1/log2(1+j) is the
// position discount, and E_g = Σ_k w_k·E_g(π_k) is group g's expected
// exposure, E_g(π) being the mean discount of g's members under π.
// This is Singh & Joachims' LP over doubly-stochastic matrices written
// over their vertices, the permutations: the optimum is the same, and
// a basic optimum uses at most 2G+2 rankings for G groups.
//
// Solve generates the columns (Dantzig–Wolfe column generation): a
// master LP over the rankings found so far, solved by a small dense
// simplex, yields row duals y. Every LP coefficient is an item term
// times a position discount, so the ranking with the largest reduced
// cost sorts the rows by a_i = u_i − (y_lo,g + y_hi,g)/|g| for i's
// group g (rearrangement inequality). The master starts from the
// score-sorted ranking and the uniform doubly-stochastic column, which
// gives every group equal exposure and so makes every floor R ≤ 1
// feasible; a penalty keeps it out of every optimum. The result is
// exact at every population size.
//
// Everything here is deterministic: the simplex pivots by fixed
// index-ordered rules, pricing breaks ties by row index, and nothing
// reads a clock, a map or a worker count. Sampling from the
// distribution happens one layer up, in internal/mitigate.
package exposure
