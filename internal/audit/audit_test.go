package audit

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/marketplace"
	"repro/internal/mitigate"
	"repro/internal/scoring"
)

func testMarketplace(t testing.TB, n int) *marketplace.Marketplace {
	t.Helper()
	m, err := marketplace.PresetByName("crowdsourcing", n, 1)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestRunAuditsEveryJob(t *testing.T) {
	m := testMarketplace(t, 300)
	r, err := Run(m, core.Config{}, Options{Strategy: "detcons"})
	if err != nil {
		t.Fatal(err)
	}
	if r.Marketplace != m.Name {
		t.Errorf("marketplace %q, want %q", r.Marketplace, m.Name)
	}
	if len(r.Jobs) != len(m.Jobs) {
		t.Fatalf("%d job reports for %d jobs", len(r.Jobs), len(m.Jobs))
	}
	for i, j := range r.Jobs {
		if j.Job != m.Jobs[i].Name {
			t.Errorf("job %d is %q, want input order %q", i, j.Job, m.Jobs[i].Name)
		}
		if j.Infeasible {
			t.Errorf("job %q infeasible under population-share targets", j.Job)
			continue
		}
		if len(j.Groups) < 2 {
			t.Errorf("job %q repaired %d groups", j.Job, len(j.Groups))
		}
		if len(j.Attributes) == 0 {
			t.Errorf("job %q reports no partitioning attributes", j.Job)
		}
		if j.QuantifiedBefore <= 0 {
			t.Errorf("job %q pre-mitigation unfairness %f", j.Job, j.QuantifiedBefore)
		}
		if j.Utility.NDCG <= 0 || j.Utility.NDCG > 1 {
			t.Errorf("job %q NDCG %f outside (0,1]", j.Job, j.Utility.NDCG)
		}
		if j.Utility.MeanDisplacement < 0 {
			t.Errorf("job %q negative displacement %f", j.Job, j.Utility.MeanDisplacement)
		}
		if j.After.ParityGap > j.Before.ParityGap+1e-12 {
			t.Errorf("job %q: mitigation worsened the parity gap %f -> %f",
				j.Job, j.Before.ParityGap, j.After.ParityGap)
		}
	}
	if r.K != 10 {
		t.Errorf("default K = %d, want 10", r.K)
	}
	if r.Strategy != "detcons" {
		t.Errorf("strategy %q", r.Strategy)
	}
	if r.Infeasible != 0 {
		t.Errorf("infeasible tally %d", r.Infeasible)
	}
	if len(r.Worst) != 4 { // min(5, 4 jobs)
		t.Errorf("worst-N has %d entries, want 4", len(r.Worst))
	}
	if r.MeanUnfairnessBefore <= 0 || r.MeanNDCG <= 0 {
		t.Errorf("empty rollup: unfairness %f, NDCG %f", r.MeanUnfairnessBefore, r.MeanNDCG)
	}
	if r.Elapsed <= 0 {
		t.Error("no elapsed time recorded")
	}
}

// The worst-N rollup is ordered by pre-mitigation unfairness, worst
// first, and bounded by TopN.
func TestRunWorstOrdering(t *testing.T) {
	m := testMarketplace(t, 300)
	r, err := Run(m, core.Config{}, Options{TopN: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Worst) != 2 {
		t.Fatalf("worst-N has %d entries, want 2", len(r.Worst))
	}
	unfairness := map[string]float64{}
	for _, j := range r.Jobs {
		unfairness[j.Job] = j.QuantifiedBefore
	}
	if unfairness[r.Worst[0]] < unfairness[r.Worst[1]] {
		t.Errorf("worst list not sorted: %v (%f < %f)",
			r.Worst, unfairness[r.Worst[0]], unfairness[r.Worst[1]])
	}
	for _, j := range r.Jobs {
		name := j.Job
		if name != r.Worst[0] && name != r.Worst[1] && unfairness[name] > unfairness[r.Worst[1]] {
			t.Errorf("job %q (%f) beats worst[1] %q (%f) but is not listed",
				name, unfairness[name], r.Worst[1], unfairness[r.Worst[1]])
		}
	}
}

// Infeasible targets are a per-job finding: the job keeps its
// before-side fairness, the tally counts it, and the other jobs'
// loops complete.
func TestRunInfeasibleJobIsAFindingNotAFailure(t *testing.T) {
	m := testMarketplace(t, 120)
	// Demand an all-female prefix deeper than the female population:
	// no permutation satisfies floor(119 * 1.0) = 119 placements from
	// a ~45% group, so every job's constraints are infeasible.
	cfg := core.Config{Attributes: []string{"gender"}, MaxDepth: 1}
	r, err := Run(m, cfg, Options{
		Strategy: "detcons",
		K:        119,
		Targets:  map[string]float64{"gender=Female": 1.0, "gender=Male": 0.0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Infeasible != len(r.Jobs) {
		t.Fatalf("infeasible tally %d, want every one of %d jobs", r.Infeasible, len(r.Jobs))
	}
	if r.MeanNDCG != 0 || r.MeanUnfairnessAfter != 0 {
		t.Errorf("feasible-side means %f/%f from an all-infeasible audit", r.MeanNDCG, r.MeanUnfairnessAfter)
	}
	for _, j := range r.Jobs {
		if !j.Infeasible {
			continue
		}
		if !strings.Contains(j.Detail, "detcons") {
			t.Errorf("job %q: infeasibility detail %q does not name the strategy", j.Job, j.Detail)
		}
		if j.QuantifiedBefore <= 0 || j.Before.ParityGap < 0 {
			t.Errorf("job %q lost its before-side metrics", j.Job)
		}
		if j.QuantifiedAfter != 0 || j.Utility.NDCG != 0 {
			t.Errorf("job %q reports after-side metrics despite infeasibility", j.Job)
		}
		if j.Improved() {
			t.Errorf("job %q claims improvement despite infeasibility", j.Job)
		}
	}
}

func TestRunRankingsValidation(t *testing.T) {
	m := testMarketplace(t, 50)
	d := m.Workers
	scores, err := m.Score(m.Jobs[0].Name)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name     string
		rankings []Ranking
		opts     Options
	}{
		{"no rankings", nil, Options{}},
		{"unnamed", []Ranking{{Scores: scores}}, Options{}},
		{"duplicate names", []Ranking{{Name: "a", Scores: scores}, {Name: "a", Scores: scores}}, Options{}},
		{"wrong score length", []Ranking{{Name: "a", Scores: scores[:10]}}, Options{}},
		{"unknown strategy", []Ranking{{Name: "a", Scores: scores}}, Options{Strategy: "nope"}},
		{"negative workers", []Ranking{{Name: "a", Scores: scores}}, Options{Workers: -1}},
		{"negative topn", []Ranking{{Name: "a", Scores: scores}}, Options{TopN: -1}},
		{"negative k", []Ranking{{Name: "a", Scores: scores}}, Options{K: -5}},
		{"exposure with targets", []Ranking{{Name: "a", Scores: scores}},
			Options{Strategy: "exposure", Targets: map[string]float64{"gender=Female": 0.5, "gender=Male": 0.5}}},
	}
	for _, tc := range cases {
		if _, err := RunRankings(d, tc.rankings, core.Config{}, tc.opts); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
	if _, err := RunRankings(nil, []Ranking{{Name: "a", Scores: scores}}, core.Config{}, Options{}); err == nil {
		t.Error("nil dataset: no error")
	}
	if _, err := Run(nil, core.Config{}, Options{}); err == nil {
		t.Error("nil marketplace: no error")
	}
}

// A shared cache must not change the report — only skip work. The
// warm re-audit answers most distance evaluations from the cache.
func TestRunSharedCacheOnlySkipsWork(t *testing.T) {
	m := testMarketplace(t, 300)
	cfg := core.Config{Cache: core.NewCache()}
	opts := Options{Strategy: "detcons"}
	cold, err := Run(m, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Run(m, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	cold.Elapsed, warm.Elapsed = 0, 0
	if !reportsEqual(cold, warm) {
		t.Error("warm re-audit differs from cold audit")
	}
}

// reportsEqual compares two reports field by field, ignoring Elapsed
// (the callers zero it).
func reportsEqual(a, b *Report) bool {
	if a.Marketplace != b.Marketplace || a.Strategy != b.Strategy || a.K != b.K ||
		a.Infeasible != b.Infeasible ||
		a.MeanUnfairnessBefore != b.MeanUnfairnessBefore ||
		a.MeanUnfairnessAfter != b.MeanUnfairnessAfter ||
		a.MeanParityGapBefore != b.MeanParityGapBefore ||
		a.MeanParityGapAfter != b.MeanParityGapAfter ||
		a.MeanNDCG != b.MeanNDCG || a.MeanDisplacement != b.MeanDisplacement {
		return false
	}
	if len(a.Jobs) != len(b.Jobs) || len(a.Worst) != len(b.Worst) || len(a.Hotspots) != len(b.Hotspots) {
		return false
	}
	for i := range a.Worst {
		if a.Worst[i] != b.Worst[i] {
			return false
		}
	}
	for i := range a.Hotspots {
		if a.Hotspots[i] != b.Hotspots[i] {
			return false
		}
	}
	for i := range a.Jobs {
		if !jobsEqual(a.Jobs[i], b.Jobs[i]) {
			return false
		}
	}
	return true
}

func jobsEqual(a, b JobReport) bool {
	if a.Job != b.Job || a.Function != b.Function || a.Infeasible != b.Infeasible || a.Detail != b.Detail ||
		a.QuantifiedBefore != b.QuantifiedBefore || a.QuantifiedAfter != b.QuantifiedAfter ||
		a.Utility != b.Utility {
		return false
	}
	if len(a.Groups) != len(b.Groups) || len(a.Attributes) != len(b.Attributes) {
		return false
	}
	for i := range a.Groups {
		if a.Groups[i] != b.Groups[i] {
			return false
		}
	}
	for i := range a.Attributes {
		if a.Attributes[i] != b.Attributes[i] {
			return false
		}
	}
	return metricsEqual(a.Before, b.Before) && metricsEqual(a.After, b.After)
}

func metricsEqual(a, b mitigate.Metrics) bool {
	if a.Unfairness != b.Unfairness || a.ParityGap != b.ParityGap || a.ExposureRatio != b.ExposureRatio {
		return false
	}
	if len(a.Stats) != len(b.Stats) {
		return false
	}
	for i := range a.Stats {
		if a.Stats[i] != b.Stats[i] {
			return false
		}
	}
	return true
}

// RunRankings also audits rankings that never came from a
// marketplace, e.g. A/B variants of one function.
func TestRunRankingsGenericInput(t *testing.T) {
	m := testMarketplace(t, 200)
	d := m.Workers
	var rankings []Ranking
	for _, expr := range []string{"1*rating", "0.5*rating + 0.5*accuracy"} {
		fn, err := scoring.Parse(expr)
		if err != nil {
			t.Fatal(err)
		}
		scores, err := fn.Score(d)
		if err != nil {
			t.Fatal(err)
		}
		rankings = append(rankings, Ranking{Name: expr, Function: fn.String(), Scores: scores})
	}
	r, err := RunRankings(d, rankings, core.Config{}, Options{K: 15, TopN: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.K != 15 || len(r.Jobs) != 2 || len(r.Worst) != 1 {
		t.Errorf("K=%d jobs=%d worst=%d", r.K, len(r.Jobs), len(r.Worst))
	}
	if r.Strategy != "fair" {
		t.Errorf("default strategy %q, want fair", r.Strategy)
	}
}

// A stochastic strategy fills the expected-value columns of every
// feasible job and the marketplace rollup; a deterministic strategy
// leaves them zero so old snapshots stay byte-identical.
func TestRunStochasticRollup(t *testing.T) {
	m := testMarketplace(t, 300)
	cfg := core.Config{Attributes: []string{"gender"}, MaxDepth: 1}
	r, err := Run(m, cfg, Options{Strategy: "exposure-lp", Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	sum, feasible := 0.0, 0
	for _, j := range r.Jobs {
		if j.Infeasible {
			continue
		}
		feasible++
		if j.DistributionSupport <= 0 {
			t.Errorf("job %q: no distribution support", j.Job)
		}
		if len(j.ExpectedExposure) != len(j.Groups) {
			t.Errorf("job %q: %d expected exposures for %d groups",
				j.Job, len(j.ExpectedExposure), len(j.Groups))
		}
		if j.ExpectedRatio < 0.95-1e-9 {
			t.Errorf("job %q: expected ratio %g below the default 0.95 floor",
				j.Job, j.ExpectedRatio)
		}
		sum += j.ExpectedRatio
	}
	if feasible == 0 {
		t.Fatal("no feasible jobs to check")
	}
	if got, want := r.MeanExpectedRatio, sum/float64(feasible); got < want-1e-9 || got > want+1e-9 {
		t.Errorf("MeanExpectedRatio %g, want mean %g", got, want)
	}

	det, err := Run(m, cfg, Options{Strategy: "detcons"})
	if err != nil {
		t.Fatal(err)
	}
	if det.MeanExpectedRatio != 0 {
		t.Errorf("deterministic rollup carries MeanExpectedRatio %g", det.MeanExpectedRatio)
	}
	for _, j := range det.Jobs {
		if j.DistributionSupport != 0 || j.ExpectedRatio != 0 || j.ExpectedExposure != nil {
			t.Errorf("job %q: deterministic audit filled stochastic fields: %+v", j.Job, j)
		}
	}
}

// Only stochastic strategies key their snapshots on the sampling
// seed: deterministic params ignore it (old lineages stay valid), and
// seed 0 spells the same audit as the canonical seed 1.
func TestParamsKeySeed(t *testing.T) {
	cfg := core.Config{}
	key := func(opts Options) string {
		t.Helper()
		k, err := ParamsKey(cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	s1 := key(Options{Strategy: "exposure-lp", Seed: 1})
	s2 := key(Options{Strategy: "exposure-lp", Seed: 2})
	s0 := key(Options{Strategy: "exposure-lp"})
	if s1 == s2 {
		t.Error("stochastic params ignore the seed")
	}
	if s0 != s1 {
		t.Errorf("seed 0 should canonicalize to 1:\n%s\n%s", s0, s1)
	}
	d1 := key(Options{Strategy: "detcons", Seed: 1})
	d2 := key(Options{Strategy: "detcons", Seed: 2})
	if d1 != d2 {
		t.Error("deterministic params key on the unused seed")
	}
	if strings.Contains(d1, "seed=") {
		t.Errorf("deterministic key mentions a seed: %s", d1)
	}
}
