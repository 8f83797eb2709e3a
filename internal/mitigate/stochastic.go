package mitigate

import (
	"fmt"

	"repro/internal/mitigate/exposure"
	"repro/internal/stats"
)

// Distribution is the full output of a stochastic mitigator: a
// probability distribution over rankings (permutations with convex
// weights, the support of the exposure LP optimum) plus the
// expected-value statistics the distribution guarantees.
// Deterministic strategies commit to one permutation; a Distribution
// dominates them on expected-exposure constraints because the
// constraint is enforced on the mixture, not on any single
// realization (Singh & Joachims, NeurIPS 2018).
type Distribution struct {
	// Strategy names the mitigator that produced the distribution;
	// Seed is the resolved sampling seed.
	Strategy string
	Seed     uint64
	// Rankings are the support permutations (row indices, best first)
	// and Weights their convex coefficients (positive, summing to 1).
	Rankings [][]int
	Weights  []float64
	// Sampled indexes the ranking the seeded draw selected — the
	// realization Rerank returns and the rest of the loop evaluates.
	Sampled int
	// ExpectedExposure[g] is group g's expected exposure under the
	// distribution (mean accumulated position discount per member,
	// averaged over the support rankings); ExpectedRatio is the worst
	// pairwise ratio of those expectations — the quantity the LP
	// floor constrains, satisfied to solver tolerance even when any
	// single sampled ranking violates it.
	ExpectedExposure []float64
	ExpectedRatio    float64
	// ExpectedUtility is the expected score mass at discounted
	// positions, Σ u·P·v, under the optimum.
	ExpectedUtility float64
}

// Sample draws a ranking index from the distribution's weights using
// the seeded generator: a pure function of (Weights, seed), so every
// run, worker count, and host samples the same component.
func (d *Distribution) Sample(seed uint64) (int, error) {
	idx, err := stats.NewRNG(seed).Categorical(d.Weights)
	if err != nil {
		return 0, fmt.Errorf("mitigate: sampling distribution: %w", err)
	}
	return idx, nil
}

// Stochastic is a Mitigator that produces a full distribution over
// rankings rather than a single permutation. Rerank samples one
// realization from Distribute's output; callers that want the
// expected-value guarantees (the Evaluate loop, the batch audit)
// type-assert to this interface to get the whole distribution at no
// extra solve.
type Stochastic interface {
	Mitigator
	// Distribute returns the distribution with Sampled already drawn
	// from the resolved seed. The same Input yields a bit-identical
	// Distribution on every run.
	Distribute(in Input) (*Distribution, error)
}

// ExposureLP is the stochastic fairness-of-exposure strategy
// ("exposure-lp"): it solves Singh & Joachims' linear program over
// distributions of rankings — maximize expected utility subject to
// every pairwise ratio of expected group exposures staying at or above
// MinRatio — whose optimum is a convex combination of a few
// permutations, and samples the returned ranking from that
// distribution with a seeded RNG.
//
// Where the greedy "exposure" strategy caps the realized exposure of
// its single output ranking best-effort, exposure-lp certifies the
// constraint in expectation exactly (to LP tolerance, 1e-9) and is
// never infeasible: the uniform distribution over positions satisfies
// every floor ≤ 1, so errors are configuration errors only.
//
// Determinism: the solve and the seeded draw are both pure functions
// of the Input, so a fixed seed yields bit-identical results across
// runs and worker counts. Like
// "exposure", the strategy enforces an exposure floor rather than
// representation targets, and Input.K plays no role beyond
// validation.
type ExposureLP struct {
	// MinRatio is the expected-exposure ratio floor in (0, 1];
	// 0 falls back to Input.MinExposureRatio, then 0.95.
	MinRatio float64
	// Seed drives the sampling draw; 0 falls back to Input.Seed,
	// then 1.
	Seed uint64
}

// Name implements Mitigator.
func (ExposureLP) Name() string { return "exposure-lp" }

// Rerank implements Mitigator by sampling one ranking from the
// distribution Distribute returns.
func (m ExposureLP) Rerank(in Input) ([]int, error) {
	d, err := m.Distribute(in)
	if err != nil {
		return nil, err
	}
	return d.Rankings[d.Sampled], nil
}

// Distribute implements Stochastic: LP solve → seeded sample.
func (m ExposureLP) Distribute(in Input) (*Distribution, error) {
	if _, err := in.validate(m.Name()); err != nil {
		return nil, err
	}
	minRatio := m.MinRatio
	if minRatio == 0 {
		minRatio = in.MinExposureRatio
	}
	if minRatio == 0 {
		minRatio = 0.95
	}
	seed := m.Seed
	if seed == 0 {
		seed = in.Seed
	}
	if seed == 0 {
		seed = 1
	}
	sol, err := exposure.Solve(in.Scores, in.Groups, minRatio, exposure.Config{})
	if err != nil {
		return nil, err
	}
	d := &Distribution{
		Strategy:         m.Name(),
		Seed:             seed,
		Rankings:         make([][]int, len(sol.Support)),
		Weights:          make([]float64, len(sol.Support)),
		ExpectedExposure: sol.GroupExposure,
		ExpectedRatio:    sol.ExposureRatio(),
		ExpectedUtility:  sol.Utility,
	}
	for i, c := range sol.Support {
		d.Rankings[i] = c.Ranking
		d.Weights[i] = c.Weight
	}
	if d.Sampled, err = d.Sample(seed); err != nil {
		return nil, err
	}
	return d, nil
}
