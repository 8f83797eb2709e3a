package mitigate

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/marketplace"
)

func stochasticFixture(t *testing.T) (*marketplace.Marketplace, []float64, core.Config) {
	t.Helper()
	m, err := marketplace.PresetByName("crowdsourcing", 150, 1)
	if err != nil {
		t.Fatal(err)
	}
	scores, err := m.Score("translation")
	if err != nil {
		t.Fatal(err)
	}
	return m, scores, core.Config{Attributes: []string{"gender"}, MaxDepth: 1}
}

// A fixed seed makes the whole Outcome — the sampled ranking, its
// pseudo-scores, and the full Distribution — bit-identical across
// solver worker counts: the stochastic path draws randomness only
// from the seeded generator, never from scheduling.
func TestExposureLPDeterministicAcrossWorkers(t *testing.T) {
	m, scores, cfg := stochasticFixture(t)
	var ref *Outcome
	for _, workers := range []int{1, 2, 8} {
		cfg.Workers = workers
		o, err := Evaluate(m.Workers, scores, cfg, Options{Strategy: "exposure-lp", Seed: 42})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if o.Distribution == nil {
			t.Fatalf("workers=%d: no distribution", workers)
		}
		if ref == nil {
			ref = o
			continue
		}
		if !reflect.DeepEqual(o.Ranking, ref.Ranking) {
			t.Errorf("workers=%d: ranking diverged", workers)
		}
		if !reflect.DeepEqual(o.Scores, ref.Scores) {
			t.Errorf("workers=%d: pseudo-scores diverged", workers)
		}
		if !reflect.DeepEqual(o.Distribution, ref.Distribution) {
			t.Errorf("workers=%d: distribution diverged", workers)
		}
	}
}

// The Outcome's realization is exactly the distribution's sampled
// component, the weights are a convex combination, and the mixture
// meets the expected-exposure floor the LP certified.
func TestExposureLPOutcomeDistribution(t *testing.T) {
	m, scores, cfg := stochasticFixture(t)
	o, err := Evaluate(m.Workers, scores, cfg, Options{
		Strategy:         "exposure-lp",
		Seed:             3,
		MinExposureRatio: 0.9,
	})
	if err != nil {
		t.Fatal(err)
	}
	d := o.Distribution
	if d == nil {
		t.Fatal("no distribution on the outcome")
	}
	if d.Strategy != "exposure-lp" || d.Seed != 3 {
		t.Errorf("distribution identity: %q seed %d", d.Strategy, d.Seed)
	}
	if d.Sampled < 0 || d.Sampled >= len(d.Rankings) {
		t.Fatalf("sampled index %d outside support %d", d.Sampled, len(d.Rankings))
	}
	if !reflect.DeepEqual(o.Ranking, d.Rankings[d.Sampled]) {
		t.Error("outcome ranking is not the sampled component")
	}
	sum := 0.0
	for _, w := range d.Weights {
		if w <= 0 {
			t.Errorf("non-positive weight %g", w)
		}
		sum += w
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("weights sum to %g, want 1", sum)
	}
	if d.ExpectedRatio < 0.9-1e-9 {
		t.Errorf("expected ratio %g below the 0.9 floor", d.ExpectedRatio)
	}
	if len(d.ExpectedExposure) != len(o.GroupLabels) {
		t.Errorf("%d expected exposures for %d groups", len(d.ExpectedExposure), len(o.GroupLabels))
	}
}

// Seed zero canonicalizes to 1, so the zero value of Options is as
// reproducible as an explicit seed; targets are rejected like the
// greedy exposure strategy rejects them.
func TestExposureLPSeedAndTargets(t *testing.T) {
	m, scores, cfg := stochasticFixture(t)
	zero, err := Evaluate(m.Workers, scores, cfg, Options{Strategy: "exposure-lp"})
	if err != nil {
		t.Fatal(err)
	}
	one, err := Evaluate(m.Workers, scores, cfg, Options{Strategy: "exposure-lp", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if zero.Distribution.Seed != 1 || !reflect.DeepEqual(zero.Ranking, one.Ranking) {
		t.Errorf("seed 0 did not canonicalize to 1 (resolved %d)", zero.Distribution.Seed)
	}
	_, err = Evaluate(m.Workers, scores, cfg, Options{
		Strategy: "exposure-lp",
		Targets:  map[string]float64{"gender=Female": 0.5, "gender=Male": 0.5},
	})
	if err == nil {
		t.Error("representation targets accepted by exposure-lp")
	}
}
