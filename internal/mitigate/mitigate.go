// Package mitigate closes FaiRank's explore-and-repair loop: where
// internal/core quantifies on which partitioning a scoring function is
// most unfair, this package re-ranks the population so that the
// discovered groups are treated more fairly, and re-runs the
// quantification engine on the repaired ranking to measure what the
// intervention bought.
//
// Three re-ranking strategies are provided behind one Mitigator
// interface:
//
//   - "fair": FA*IR top-k re-ranking (Zehlike et al., CIKM 2017) —
//     every group must hold at least the binomial
//     minimum-representation count at each top-k prefix. The
//     significance adjustment is the paper's exact model adjustment:
//     Alpha is split across the tested groups, and within each group a
//     corrected per-test level αc is binary-searched until the exact
//     joint probability that a fair process fails any of the k prefix
//     tests (a DP over the table's block structure, see mtable.go)
//     matches the group's share of Alpha. Tables are memoized per
//     (k, p, α) so batch audits never recompute them;
//   - "detgreedy" / "detcons": deterministic constrained interleaving
//     in the style of Geyik et al. (KDD 2019) — per-group floor/ceiling
//     targets derived from population shares (or supplied by the
//     caller) enforced at every top-k prefix;
//   - "exposure": greedy rescoring that caps disparate exposure —
//     whenever the worst pairwise ratio of group mean position bias
//     (Singh & Joachims' exposure, the same statistic
//     fairness.ExposureRatio reports) would drop below a floor, the
//     next slot goes to the most under-exposed group instead of the
//     best-scoring candidate;
//   - "exposure-lp": the stochastic form of the same notion (Singh &
//     Joachims, NeurIPS 2018) — an LP over doubly-stochastic exposure
//     matrices (internal/mitigate/exposure) whose optimum is a
//     distribution over a few rankings; the returned ranking is
//     sampled from that distribution with a seeded RNG, and the
//     exposure floor holds exactly in expectation.
//
// All strategies are deterministic: ties break by higher score, then
// lower row index, and the one stochastic strategy draws from a
// seeded generator — so a mitigated ranking is reproducible across
// runs and worker counts. See docs/MITIGATION.md for when to use
// which strategy.
package mitigate

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// Input is the population a Mitigator re-ranks.
type Input struct {
	// Scores orders the population best-first (ties by row index),
	// indexed by row.
	Scores []float64
	// Groups is a disjoint partitioning of rows 0..len(Scores)-1 —
	// typically the leaves of the partitioning the quantification
	// engine found most unfair.
	Groups [][]int
	// K is the ranking prefix the representation constraints apply to.
	// Positions beyond K are filled by score. Must be in [1, n].
	K int
	// Targets[g] is group g's target proportion of every ranking
	// prefix. Empty derives population shares; when set it must have
	// one non-negative entry per group summing to at most 1.
	Targets []float64
	// Alpha is the FA*IR family-wise significance level (default
	// 0.1): the probability budget for a fair process failing any of
	// the k prefix tests, split across the tested groups and exactly
	// adjusted per group.
	Alpha float64
	// MinExposureRatio is the exposure floor of the "exposure" and
	// "exposure-lp" strategies, in (0, 1] (default 0.95). "exposure"
	// enforces it best-effort on its single output ranking;
	// "exposure-lp" enforces it exactly on the expected exposure of
	// its sampled distribution.
	MinExposureRatio float64
	// Seed drives all randomness of stochastic strategies
	// ("exposure-lp"): the same seed yields the same sampled ranking
	// on every run and worker count. 0 selects 1. Deterministic
	// strategies ignore it.
	Seed uint64
}

// Mitigator re-ranks a population to improve group fairness.
//
// The contract every implementation honors:
//
//   - Determinism. Rerank is a pure function of its Input: the same
//     Input produces a bit-identical ranking on every run, host, and
//     worker count. Ties break by higher score then lower row index,
//     and stochastic strategies draw exclusively from Input.Seed —
//     never from time, goroutine scheduling, or map order.
//   - Output shape. The result is always a permutation of
//     0..len(in.Scores)-1, best first.
//   - Infeasibility. A constraint set that no permutation of the
//     population can satisfy returns an *InfeasibleError (test with
//     errors.Is(err, ErrInfeasible)) — a finding about the
//     population, which the batch audit tallies per job.
//     Configuration mistakes (bad K, malformed groups, out-of-range
//     floors) return plain errors instead.
//   - Context. Mitigators take no context: re-ranking is a bounded
//     pure computation. Cancellation is observed by the surrounding
//     Evaluate loop at its quantification passes (see
//     EvaluateContext), which keeps a canceled run from ever
//     poisoning a shared solver cache.
type Mitigator interface {
	// Name identifies the strategy in configs and reports.
	Name() string
	// Rerank returns the mitigated ranking as row indices, best first.
	// The result is always a permutation of 0..len(in.Scores)-1; when
	// the constraints cannot be met it returns an *InfeasibleError.
	Rerank(in Input) ([]int, error)
}

// ErrInfeasible marks constraint sets no permutation of the input can
// satisfy. Test with errors.Is; the concrete *InfeasibleError carries
// the offending group.
var ErrInfeasible = errors.New("mitigate: infeasible constraints")

// InfeasibleError reports a representation constraint that no ranking
// of the given population can satisfy, e.g. a target minimum larger
// than the group itself.
type InfeasibleError struct {
	// Strategy is the mitigator that detected the infeasibility.
	Strategy string
	// Group indexes the partition whose constraint cannot be met.
	Group int
	// Detail explains the failing constraint.
	Detail string
}

// Error implements error.
func (e *InfeasibleError) Error() string {
	return fmt.Sprintf("mitigate: %s: group %d: %s", e.Strategy, e.Group, e.Detail)
}

// Unwrap makes errors.Is(err, ErrInfeasible) succeed.
func (e *InfeasibleError) Unwrap() error { return ErrInfeasible }

// Strategies lists the registered strategy names, sorted. Every
// surface that enumerates strategies — CLI help, the UI selector,
// report legends — derives from this list, so registering a strategy
// here (plus ByName and Describe) propagates it everywhere.
func Strategies() []string {
	return []string{"detcons", "detgreedy", "exposure", "exposure-lp", "fair"}
}

// Describe returns the one-line description of a registered strategy,
// or "" for unknown names. Like Strategies, this is the single source
// the documentation surfaces render from.
func Describe(name string) string {
	switch name {
	case "fair":
		return "FA*IR top-k re-ranking with exact model-adjusted binomial tables (Zehlike et al.)"
	case "detgreedy":
		return "greedy constrained interleaving toward per-group targets (Geyik et al.)"
	case "detcons":
		return "conservative constrained interleaving: floors enforced at every prefix (Geyik et al.)"
	case "exposure":
		return "greedy rescoring capping the worst pairwise exposure ratio, best-effort"
	case "exposure-lp":
		return "stochastic exposure LP sampling from an optimal distribution over rankings; floor holds exactly in expectation (Singh & Joachims)"
	default:
		return ""
	}
}

// ByName resolves a strategy name to its Mitigator with default
// parameters; Strategies lists the valid names.
func ByName(name string) (Mitigator, error) {
	switch name {
	case "fair", "":
		return FAIR{}, nil
	case "detgreedy":
		return Interleave{}, nil
	case "detcons":
		return Interleave{Constrained: true}, nil
	case "exposure":
		return ExposureCap{}, nil
	case "exposure-lp":
		return ExposureLP{}, nil
	default:
		return nil, fmt.Errorf("mitigate: unknown strategy %q (valid: %s)", name, strings.Join(Strategies(), ", "))
	}
}

// validate checks the shared Input invariants and returns n.
func (in Input) validate(strategy string) (int, error) {
	n := len(in.Scores)
	if n == 0 {
		return 0, fmt.Errorf("mitigate: %s: no scores", strategy)
	}
	if len(in.Groups) == 0 {
		return 0, fmt.Errorf("mitigate: %s: no groups", strategy)
	}
	if in.K < 1 || in.K > n {
		return 0, fmt.Errorf("mitigate: %s: k=%d outside [1,%d]", strategy, in.K, n)
	}
	seen := make([]bool, n)
	covered := 0
	for g, rows := range in.Groups {
		if len(rows) == 0 {
			return 0, fmt.Errorf("mitigate: %s: group %d is empty", strategy, g)
		}
		for _, r := range rows {
			if r < 0 || r >= n {
				return 0, fmt.Errorf("mitigate: %s: group %d row %d outside population of %d", strategy, g, r, n)
			}
			if seen[r] {
				return 0, fmt.Errorf("mitigate: %s: row %d appears in two groups", strategy, r)
			}
			seen[r] = true
			covered++
		}
	}
	if covered != n {
		return 0, fmt.Errorf("mitigate: %s: groups cover %d of %d rows; a full partitioning is required", strategy, covered, n)
	}
	return n, nil
}

// targets resolves Input.Targets, deriving population shares when
// unset.
func (in Input) targets(strategy string, n int) ([]float64, error) {
	if len(in.Targets) == 0 {
		out := make([]float64, len(in.Groups))
		for g, rows := range in.Groups {
			out[g] = float64(len(rows)) / float64(n)
		}
		return out, nil
	}
	if len(in.Targets) != len(in.Groups) {
		return nil, fmt.Errorf("mitigate: %s: %d targets for %d groups", strategy, len(in.Targets), len(in.Groups))
	}
	sum := 0.0
	for g, p := range in.Targets {
		if p < 0 || p > 1 {
			return nil, fmt.Errorf("mitigate: %s: target %g for group %d outside [0,1]", strategy, p, g)
		}
		sum += p
	}
	if sum > 1+1e-9 {
		return nil, fmt.Errorf("mitigate: %s: targets sum to %g > 1", strategy, sum)
	}
	return append([]float64(nil), in.Targets...), nil
}

// queue holds one group's members in ranking order (score descending,
// row ascending) with a cursor to its best remaining candidate.
type queue struct {
	rows []int
	next int
}

// head returns the best remaining row, or -1 when exhausted.
func (q *queue) head() int {
	if q.next >= len(q.rows) {
		return -1
	}
	return q.rows[q.next]
}

func (q *queue) pop() int {
	r := q.rows[q.next]
	q.next++
	return r
}

// queues builds the per-group candidate queues, each sorted best
// first with the deterministic score-then-row tie-break.
func (in Input) queues() []*queue {
	out := make([]*queue, len(in.Groups))
	for g, rows := range in.Groups {
		sorted := append([]int(nil), rows...)
		sort.SliceStable(sorted, func(a, b int) bool {
			ra, rb := sorted[a], sorted[b]
			if in.Scores[ra] != in.Scores[rb] {
				return in.Scores[ra] > in.Scores[rb]
			}
			return ra < rb
		})
		out[g] = &queue{rows: sorted}
	}
	return out
}

// bestOf returns the group among candidates whose head candidate ranks
// first (score descending, row ascending); -1 when every candidate
// queue is exhausted. candidates may be nil to consider every group.
func bestOf(qs []*queue, scores []float64, candidates []int) int {
	best := -1
	var bestRow int
	consider := func(g int) {
		r := qs[g].head()
		if r < 0 {
			return
		}
		if best < 0 || scores[r] > scores[bestRow] || (scores[r] == scores[bestRow] && r < bestRow) {
			best, bestRow = g, r
		}
	}
	if candidates == nil {
		for g := range qs {
			consider(g)
		}
	} else {
		for _, g := range candidates {
			consider(g)
		}
	}
	return best
}
