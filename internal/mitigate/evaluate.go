package mitigate

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fairness"
	"repro/internal/obsv"
	"repro/internal/scoring"
)

// Options configures one mitigation run of the Evaluate harness.
type Options struct {
	// Strategy names the Mitigator: "fair" (default), "detgreedy",
	// "detcons", "exposure" or "exposure-lp".
	Strategy string
	// K is the top-k prefix the constraints (and the before/after
	// parity gap) apply to. 0 selects min(10, n); negative is an
	// error.
	K int
	// Targets maps group labels of the discovered partitioning to
	// target proportions. Empty derives population shares. When set,
	// every discovered group must be named.
	Targets map[string]float64
	// Alpha is the FA*IR family-wise significance level (default
	// 0.1), split across groups and exactly adjusted per group.
	Alpha float64
	// MinExposureRatio is the exposure floor of the "exposure" and
	// "exposure-lp" strategies (default 0.95).
	MinExposureRatio float64
	// Seed drives the "exposure-lp" sampling draw (default 1);
	// deterministic strategies ignore it. A fixed seed makes the
	// sampled ranking — and therefore the whole Outcome —
	// bit-identical across runs and worker counts.
	Seed uint64
}

// Metrics is one side of the before/after comparison, computed on a
// fixed partitioning so the two sides are comparable.
type Metrics struct {
	// Unfairness is the configured fairness measure (Definition 2)
	// applied to the ranking's pseudo-scores over the fixed
	// partitioning. Both sides use rank-derived pseudo-scores — the
	// mitigated side has no raw scores, only an order — so the EMD
	// numbers compare like for like.
	Unfairness float64
	// ParityGap is the top-k selection-rate gap (0 = demographic
	// parity at the cutoff).
	ParityGap float64
	// ExposureRatio is the worst pairwise ratio of group exposures
	// (1 = equal exposure).
	ExposureRatio float64
	// Stats holds the per-group ranking statistics.
	Stats []fairness.GroupRankStats
}

// Outcome is a completed quantify → mitigate → re-quantify loop.
type Outcome struct {
	// Strategy, K and Targets echo the resolved options (Targets in
	// group order; nil for the exposure strategy, which enforces an
	// exposure-ratio floor rather than representation targets).
	Strategy string
	K        int
	Targets  []float64
	// GroupLabels names the partitions under repair, in group order.
	GroupLabels []string
	// Ranking is the mitigated order, row indices best first.
	Ranking []int
	// Scores are the mitigated pseudo-scores ((n-rank)/(n-1) per row):
	// the repaired ranking in the same form every other FaiRank layer
	// consumes.
	Scores []float64
	// Before and After compare the original and mitigated rankings on
	// the partitioning BeforeResult discovered.
	Before, After Metrics
	// Utility is what the repair cost in ranking quality: NDCG@K of
	// the mitigated ranking under the original scores, and the mean
	// original score the top-K prefix gave up.
	Utility Utility
	// Distribution is the full distribution over rankings a stochastic
	// strategy produced — Ranking/Scores/After describe its sampled
	// realization, Distribution the expected-value guarantees of the
	// mixture (expected exposure per group, worst expected ratio).
	// Nil for deterministic strategies.
	Distribution *Distribution
	// BeforeResult is the quantification that discovered the
	// partitioning under repair; AfterResult re-runs the same search
	// on the mitigated ranking — the re-quantify half of the loop,
	// showing what the worst partitioning looks like after repair.
	// Both quantify rank-derived pseudo-scores (the mitigated side has
	// no raw scores, only an order), so their unfairness values
	// compare like for like.
	BeforeResult, AfterResult *core.Result
}

// Evaluate runs the full loop: quantify d under scores to find the
// most unfair partitioning, re-rank with the configured strategy to
// repair it, and re-quantify the mitigated ranking. cfg is the same
// configuration Quantify takes; its Workers and Cache knobs apply to
// both quantification passes, and every worker count produces an
// identical Outcome.
//
// The loop runs in rank space: scores are rank-normalized to
// pseudo-scores ((n-rank)/(n-1), the paper's rank-only transparency
// mode) before the first quantification, because the mitigated side
// only has an order — quantifying both sides on pseudo-scores makes
// every before/after number differ by the re-ranking alone.
//
// When the constraints are infeasible, the returned error satisfies
// errors.Is(err, ErrInfeasible) and the returned Outcome is non-nil
// but partial: the before side (Before, BeforeResult, GroupLabels,
// Targets) is populated, the mitigated side is zero. Every other
// error returns a nil Outcome.
func Evaluate(d *dataset.Dataset, scores []float64, cfg core.Config, opts Options) (*Outcome, error) {
	return EvaluateContext(context.Background(), d, scores, cfg, opts)
}

// EvaluateContext is Evaluate bounded by a context: both
// quantification passes observe cancellation at worker-pool
// granularity (see core.QuantifyContext), so a dead caller stops the
// loop mid-quantify without poisoning any shared cfg.Cache.
func EvaluateContext(ctx context.Context, d *dataset.Dataset, scores []float64, cfg core.Config, opts Options) (*Outcome, error) {
	ctx, sp := obsv.StartSpan(ctx, "mitigate.evaluate")
	o, err := evaluateContext(ctx, d, scores, cfg, opts)
	if sp != nil {
		if o != nil {
			sp.Set("strategy", o.Strategy)
			sp.Set("k", o.K)
		}
		if err != nil {
			sp.Set("error", err.Error())
		}
		sp.End()
	}
	return o, err
}

func evaluateContext(ctx context.Context, d *dataset.Dataset, scores []float64, cfg core.Config, opts Options) (*Outcome, error) {
	if opts.K < 0 {
		return nil, fmt.Errorf("mitigate: negative k %d", opts.K)
	}
	n := len(scores)
	opts.K = DefaultK(opts.K, n)
	m, err := ByName(opts.Strategy)
	if err != nil {
		return nil, err
	}
	usesTargets := m.Name() != "exposure" && m.Name() != "exposure-lp"
	if !usesTargets && len(opts.Targets) > 0 {
		// The exposure strategies never read representation targets;
		// accepting them would present unenforced proportions as
		// enforced.
		return nil, fmt.Errorf("mitigate: the %s strategy takes no representation targets (it bounds the exposure ratio; tune MinExposureRatio instead)", m.Name())
	}
	if cfg.Objective != core.MostUnfair {
		// Repairing the partitioning the engine found LEAST unfair is
		// nonsensical; the loop is defined over the most-unfair search.
		return nil, fmt.Errorf("mitigate: objective must be most-unfair, got %s", cfg.Objective)
	}

	// Rank-normalizing is monotone (ties keep their average rank), so
	// the original order — and therefore everything the strategies
	// see — is unchanged.
	original, err := scoring.PseudoScores(scores)
	if err != nil {
		return nil, err
	}

	before, err := core.QuantifyContext(ctx, d, original, cfg)
	if err != nil {
		return nil, err
	}
	parts := make([][]int, len(before.Groups))
	labels := make([]string, len(before.Groups))
	for i, g := range before.Groups {
		parts[i] = g.Rows
		labels[i] = g.Label()
	}
	targets, err := resolveTargets(opts.Targets, labels)
	if err != nil {
		return nil, err
	}

	in := Input{
		Scores:           original,
		Groups:           parts,
		K:                opts.K,
		Targets:          targets,
		Alpha:            opts.Alpha,
		MinExposureRatio: opts.MinExposureRatio,
		Seed:             opts.Seed,
	}
	// Resolve derived targets once so the Outcome reports exactly what
	// the strategy enforced (Input.targets re-derives the same
	// values); the exposure strategy enforces none, so it reports none.
	if usesTargets {
		if targets, err = in.targets(m.Name(), n); err != nil {
			return nil, err
		}
	} else {
		targets = nil
	}

	// The before side depends only on the original ranking, so it is
	// computed first: when the constraints are infeasible, the partial
	// Outcome carries it alongside the error and callers (the batch
	// audit) don't redo the quantification to report the job.
	beforeM, err := metricsFor(original, parts, opts.K, cfg.Measure)
	if err != nil {
		return nil, err
	}

	// Stochastic strategies produce a whole distribution; one solve
	// yields both the sampled realization the loop evaluates and the
	// expected-value guarantees the Outcome reports.
	var ranking []int
	var dist *Distribution
	if st, ok := m.(Stochastic); ok {
		if dist, err = st.Distribute(in); err == nil {
			ranking = dist.Rankings[dist.Sampled]
		}
	} else {
		ranking, err = m.Rerank(in)
	}
	if err != nil {
		if !errors.Is(err, ErrInfeasible) {
			// Configuration errors (bad Alpha, bad floor, ...) are not
			// findings about the population; no partial outcome.
			return nil, err
		}
		partial := &Outcome{
			Strategy:     m.Name(),
			K:            opts.K,
			Targets:      targets,
			GroupLabels:  labels,
			Before:       beforeM,
			BeforeResult: before,
		}
		return partial, err
	}

	mitigated, err := pseudoFromOrder(ranking, n)
	if err != nil {
		return nil, err
	}

	afterM, err := metricsFor(mitigated, parts, opts.K, cfg.Measure)
	if err != nil {
		return nil, err
	}

	// Utility loss is measured against the raw input scores — the
	// relevance ground truth the marketplace actually ranks by — not
	// the pseudo-scores the fairness comparison runs on.
	util, err := UtilityLoss(scores, ranking, opts.K)
	if err != nil {
		return nil, err
	}

	after, err := core.QuantifyContext(ctx, d, mitigated, cfg)
	if err != nil {
		return nil, err
	}

	return &Outcome{
		Strategy:     m.Name(),
		K:            opts.K,
		Targets:      targets,
		GroupLabels:  labels,
		Ranking:      ranking,
		Scores:       mitigated,
		Before:       beforeM,
		After:        afterM,
		Utility:      util,
		Distribution: dist,
		BeforeResult: before,
		AfterResult:  after,
	}, nil
}

// resolveTargets maps label-keyed target proportions onto group order.
// Nil targets stay nil (population shares are derived downstream).
func resolveTargets(byLabel map[string]float64, labels []string) ([]float64, error) {
	if len(byLabel) == 0 {
		return nil, nil
	}
	out := make([]float64, len(labels))
	seen := make(map[string]bool, len(byLabel))
	for i, label := range labels {
		p, ok := byLabel[label]
		if !ok {
			valid := append([]string(nil), labels...)
			sort.Strings(valid)
			return nil, fmt.Errorf("mitigate: no target for group %q (discovered groups: %v)", label, valid)
		}
		out[i] = p
		seen[label] = true
	}
	for label := range byLabel {
		if !seen[label] {
			valid := append([]string(nil), labels...)
			sort.Strings(valid)
			return nil, fmt.Errorf("mitigate: target names unknown group %q (discovered groups: %v)", label, valid)
		}
	}
	return out, nil
}

// pseudoFromOrder converts a best-first row order into pseudo-scores.
func pseudoFromOrder(order []int, n int) ([]float64, error) {
	ranks, err := scoring.RankingFromOrder(order, n)
	if err != nil {
		return nil, fmt.Errorf("mitigate: %w", err)
	}
	return scoring.PseudoScoresFromRanks(ranks)
}

// metricsFor computes one side of the comparison on a fixed
// partitioning. The population is ranked once: the parity gap and
// exposure ratio derive from the same RankStats pass (exposure does
// not depend on k), which matters when the batch audit runs this per
// job per side.
func metricsFor(scores []float64, parts [][]int, k int, measure fairness.Measure) (Metrics, error) {
	stats, err := fairness.RankStats(scores, parts, k)
	if err != nil {
		return Metrics{}, err
	}
	unfair, err := measure.Unfairness(scores, parts)
	if err != nil {
		return Metrics{}, err
	}
	return Metrics{
		Unfairness:    unfair,
		ParityGap:     fairness.ParityGapFromStats(stats),
		ExposureRatio: fairness.WorstExposureRatioFromStats(stats),
		Stats:         stats,
	}, nil
}
