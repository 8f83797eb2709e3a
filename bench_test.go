// Benchmarks regenerating the performance dimension of every
// reproduction experiment (DESIGN.md §5). Each BenchmarkE<n> covers
// the hot path of experiment E<n>; the full tables (including quality
// numbers) are printed by `fairank experiment <id>` and recorded in
// EXPERIMENTS.md.
//
// Run with: go test -bench=. -benchmem
package fairank

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/emd"
	"repro/internal/marketplace"
	"repro/internal/mitigate"
	"repro/internal/stats"
)

// benchTable1 returns the Table 1 dataset and its paper scores.
func benchTable1(b *testing.B) (*Dataset, []float64) {
	b.Helper()
	d := Table1()
	fn, err := NewScorer(Table1Weights())
	if err != nil {
		b.Fatal(err)
	}
	scores, err := fn.Score(d)
	if err != nil {
		b.Fatal(err)
	}
	return d, scores
}

// benchPopulation generates a synthetic population with the given
// shape, reporting a fatal error on failure.
func benchPopulation(b *testing.B, n, nAttrs, nValues int) (*Dataset, []float64) {
	b.Helper()
	spec := PopulationSpec{
		N:      n,
		Skills: []SkillSpec{{Name: "skill", Mean: 0.55, StdDev: 0.18}},
	}
	for a := 0; a < nAttrs; a++ {
		attr := AttrSpec{Name: fmt.Sprintf("p%d", a+1)}
		for v := 0; v < nValues; v++ {
			attr.Values = append(attr.Values, fmt.Sprintf("v%d", v+1))
		}
		spec.Protected = append(spec.Protected, attr)
		spec.Biases = append(spec.Biases, Bias{
			Attr: attr.Name, Value: "v1", Skill: "skill", Shift: -0.12 / float64(a+1),
		})
	}
	d, err := Generate(spec, 1)
	if err != nil {
		b.Fatal(err)
	}
	scores, err := d.Num("skill")
	if err != nil {
		b.Fatal(err)
	}
	return d, scores
}

// BenchmarkE1Table1 measures scoring the Table 1 dataset (the f(w)
// column reproduction).
func BenchmarkE1Table1(b *testing.B) {
	d := Table1()
	fn, err := NewScorer(Table1Weights())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fn.Score(d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE2Figure2 measures Algorithm 1 on the paper's example
// dataset over the Figure 2 attribute set.
func BenchmarkE2Figure2(b *testing.B) {
	d, scores := benchTable1(b)
	cfg := Config{Attributes: []string{"gender", "language"}}
	var u float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Quantify(d, scores, cfg)
		if err != nil {
			b.Fatal(err)
		}
		u = res.Unfairness
	}
	b.ReportMetric(u, "unfairness")
}

// BenchmarkE3 compares the greedy solver against the exhaustive
// baseline on the same population (3 attributes × 2 values).
func BenchmarkE3(b *testing.B) {
	d, scores := benchPopulation(b, 1000, 3, 2)
	b.Run("greedy", func(b *testing.B) {
		var u float64
		for i := 0; i < b.N; i++ {
			res, err := Quantify(d, scores, Config{})
			if err != nil {
				b.Fatal(err)
			}
			u = res.Unfairness
		}
		b.ReportMetric(u, "unfairness")
	})
	b.Run("exhaustive", func(b *testing.B) {
		var u float64
		for i := 0; i < b.N; i++ {
			res, err := Exhaustive(d, scores, Config{})
			if err != nil {
				b.Fatal(err)
			}
			u = res.Unfairness
		}
		b.ReportMetric(u, "unfairness")
	})
}

// BenchmarkQuantify compares the sequential baseline (Workers=1)
// against the parallel engine (Workers=GOMAXPROCS), both cold-cache,
// plus the warm path where a shared Cache serves the memoized
// histograms and EMD distances of a previous identical run — the
// interactive-session revisit pattern. TryAllRoots widens the root
// fan-out the pool spreads over. All three variants return
// bit-identical results (see core's TestParallelEquivalence).
func BenchmarkQuantify(b *testing.B) {
	d, scores := benchPopulation(b, 20000, 6, 3)
	base := Config{TryAllRoots: true}
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cfg := base
			cfg.Workers = 1
			if _, err := Quantify(d, scores, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run(fmt.Sprintf("parallel/workers=%d", runtime.GOMAXPROCS(0)), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cfg := base
			if _, err := Quantify(d, scores, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel/warm-cache", func(b *testing.B) {
		cfg := base
		cfg.Cache = NewCache()
		if _, err := Quantify(d, scores, cfg); err != nil {
			b.Fatal(err) // prime the cache
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := Quantify(d, scores, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkQuantify1M exercises the incremental engine at the scale
// the paper's interactivity claim is about: a 1M-row population with
// 4 protected attributes × 3 values. cold is a from-scratch solve;
// warm-identical replays the same scores against a primed cache (the
// revisit pattern); requantify-one-group edits one protected group's
// scores by a per-iteration-varying delta before each run, so every
// iteration lands in a fresh cache scope chained to its predecessor
// and only the affected subtrees are re-solved (ROADMAP item 2's
// target: warm re-quantify under 10ms at 1M rows).
func BenchmarkQuantify1M(b *testing.B) {
	d, scores := benchPopulation(b, 1_000_000, 4, 3)
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Quantify(d, scores, Config{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm-identical", func(b *testing.B) {
		cfg := Config{Cache: NewCache()}
		if _, err := Quantify(d, scores, cfg); err != nil {
			b.Fatal(err) // prime the cache
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := Quantify(d, scores, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("requantify-one-group", func(b *testing.B) {
		cache := NewCache()
		cache.SetMaxScopes(4)
		cfg := Config{Cache: cache}
		cur := append([]float64(nil), scores...)
		if _, err := Quantify(d, cur, cfg); err != nil {
			b.Fatal(err) // prime the predecessor scope
		}
		// The edited group is one leaf cell: the conjunction of the
		// first value of every protected attribute (~1/81 of the rows).
		inCell := make([]bool, d.Len())
		for i := range inCell {
			inCell[i] = true
		}
		for _, attr := range []string{"p1", "p2", "p3", "p4"} {
			cv, err := d.Cat(attr)
			if err != nil {
				b.Fatal(err)
			}
			for r, code := range cv.Codes {
				if code != 0 {
					inCell[r] = false
				}
			}
		}
		// Pre-build a cycle of edited vectors, each a different delta:
		// every iteration is a genuinely new score vector (the 4-scope
		// LRU evicts any vector before its delta comes around again)
		// whose incremental predecessor is the previous iteration.
		const variants = 8
		edited := make([][]float64, variants)
		for v := range edited {
			delta := 0.05 + 0.01*float64(v)
			next := append([]float64(nil), cur...)
			for r := range next {
				if inCell[r] {
					s := next[r] + delta
					if s >= 1 {
						s -= 0.9
					}
					next[r] = s
				}
			}
			edited[v] = next
		}
		reused := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := Quantify(d, edited[i%variants], cfg)
			if err != nil {
				b.Fatal(err)
			}
			reused += res.Stats.ReusedDistances
		}
		if reused == 0 {
			b.Fatal("incremental re-quantify reused no distances")
		}
	})
}

// BenchmarkMitigate measures the full quantify → mitigate →
// re-quantify loop per strategy, plus the bare re-ranking cost of the
// constrained merge (fair/rerank-only) without the two engine runs.
func BenchmarkMitigate(b *testing.B) {
	d, scores := benchPopulation(b, 20000, 6, 3)
	cfg := Config{MaxDepth: 1}
	for _, strategy := range MitigationStrategies() {
		b.Run(strategy, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Mitigate(d, scores, cfg, MitigateOptions{Strategy: strategy, K: 500}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("fair/rerank-only", func(b *testing.B) {
		res, err := Quantify(d, scores, cfg)
		if err != nil {
			b.Fatal(err)
		}
		parts := make([][]int, len(res.Groups))
		for i, g := range res.Groups {
			parts[i] = g.Rows
		}
		m, err := MitigatorByName("fair")
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := m.Rerank(MitigateInput{Scores: scores, Groups: parts, K: 500}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkExposureLP isolates the stochastic exposure pipeline — the
// LP solve by column generation over whole rankings and the seeded
// draw — without the two quantification passes the full Evaluate loop
// adds. Both sizes are solved exactly: n=48 is an interactive
// shortlist, and n=5000 shows how pricing, which sorts the whole
// population for every candidate ranking, scales.
func BenchmarkExposureLP(b *testing.B) {
	for _, n := range []int{48, 5000} {
		_, scores := benchPopulation(b, n, 2, 3)
		groups := make([][]int, 3)
		for i := 0; i < n; i++ {
			groups[i%3] = append(groups[i%3], i)
		}
		in := mitigate.Input{Scores: scores, Groups: groups, K: 10, Seed: 1}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d, err := mitigate.ExposureLP{}.Distribute(in)
				if err != nil {
					b.Fatal(err)
				}
				if len(d.Rankings) == 0 {
					b.Fatal("empty distribution")
				}
			}
		})
	}
}

// BenchmarkAudit measures the marketplace-wide batch audit — the
// quantify → mitigate → re-quantify loop over every job — in three
// modes: fully sequential (one job at a time, solver sequential),
// parallel (jobs fanned over the audit pool, solver at GOMAXPROCS),
// and warm-cache (the parallel audit repeated against a primed shared
// cache: the re-audit pattern, where every histogram, split and EMD
// is memoized). All three produce bit-identical reports (see audit's
// TestAuditWorkerInvariance).
func BenchmarkAudit(b *testing.B) {
	m, err := Preset("crowdsourcing", 20000, 1)
	if err != nil {
		b.Fatal(err)
	}
	attrs := []string{"gender", "ethnicity", "language", "region"}
	opts := AuditOptions{Strategy: "detcons", K: 100}
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cfg := Config{Attributes: attrs, TryAllRoots: true, Workers: 1}
			o := opts
			o.Workers = 1
			if _, err := AuditAll(m, cfg, o); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run(fmt.Sprintf("parallel/workers=%d", runtime.GOMAXPROCS(0)), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cfg := Config{Attributes: attrs, TryAllRoots: true}
			if _, err := AuditAll(m, cfg, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel/warm-cache", func(b *testing.B) {
		cfg := Config{Attributes: attrs, TryAllRoots: true, Cache: NewCache()}
		if _, err := AuditAll(m, cfg, opts); err != nil {
			b.Fatal(err) // prime the cache
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := AuditAll(m, cfg, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAuditIncremental measures the incremental re-audit path
// against the warm-cache re-audit it replaces: all-reused skips every
// job outright (fingerprints plus rollup — the floor of the audit
// lifecycle), one-changed re-runs a single job against a warm cache,
// the operational "one scoring function drifted" case.
func BenchmarkAuditIncremental(b *testing.B) {
	m, err := Preset("crowdsourcing", 20000, 1)
	if err != nil {
		b.Fatal(err)
	}
	attrs := []string{"gender", "ethnicity", "language", "region"}
	cfg := Config{Attributes: attrs, TryAllRoots: true, Cache: NewCache()}
	opts := AuditOptions{Strategy: "detcons", K: 100}
	rankings, err := MarketplaceRankings(m)
	if err != nil {
		b.Fatal(err)
	}
	first, err := AuditRankings(m.Workers, rankings, cfg, opts)
	if err != nil {
		b.Fatal(err)
	}
	snap, err := NewAuditSnapshot("bench", cfg, opts, rankings, first)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("all-reused", func(b *testing.B) {
		o := opts
		o.Baseline = snap.Baseline("bench")
		for i := 0; i < b.N; i++ {
			r, err := AuditRankings(m.Workers, rankings, cfg, o)
			if err != nil {
				b.Fatal(err)
			}
			if r.Reused != len(rankings) {
				b.Fatalf("reused %d of %d jobs", r.Reused, len(rankings))
			}
		}
	})
	b.Run("one-changed", func(b *testing.B) {
		drifted := make([]AuditRanking, len(rankings))
		copy(drifted, rankings)
		scores := append([]float64(nil), rankings[0].Scores...)
		scores[0], scores[len(scores)-1] = scores[len(scores)-1], scores[0]
		drifted[0].Scores = scores
		o := opts
		o.Baseline = snap.Baseline("bench")
		for i := 0; i < b.N; i++ {
			r, err := AuditRankings(m.Workers, drifted, cfg, o)
			if err != nil {
				b.Fatal(err)
			}
			if r.Reused != len(rankings)-1 {
				b.Fatalf("reused %d of %d jobs", r.Reused, len(rankings))
			}
		}
	})
}

// BenchmarkE4Interactive measures QUANTIFY latency against population
// size (the paper's "interactive response time" claim; 6 protected
// attributes × 3 values).
func BenchmarkE4Interactive(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		d, scores := benchPopulation(b, n, 6, 3)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Quantify(d, scores, Config{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE5Anonymize measures the two k-anonymizers at k=5 on the
// crowdsourcing population.
func BenchmarkE5Anonymize(b *testing.B) {
	m, err := Preset("crowdsourcing", 2000, 1)
	if err != nil {
		b.Fatal(err)
	}
	quasi := []string{"gender", "ethnicity", "language", "region"}
	b.Run("mondrian", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Mondrian(m.Workers, quasi, 5); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("datafly", func(b *testing.B) {
		var hs []*Hierarchy
		for _, q := range quasi {
			vals, err := m.Workers.DistinctValues(q, nil)
			if err != nil {
				b.Fatal(err)
			}
			h, err := SuppressionHierarchy(q, vals)
			if err != nil {
				b.Fatal(err)
			}
			hs = append(hs, h)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := Datafly(m.Workers, hs, 5, 100); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE6RankOnly measures the rank-only pipeline: pseudo-score
// conversion plus quantification.
func BenchmarkE6RankOnly(b *testing.B) {
	m, err := Preset("crowdsourcing", 2000, 1)
	if err != nil {
		b.Fatal(err)
	}
	scores, err := m.Score("translation")
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{Attributes: []string{"gender", "ethnicity", "language", "region"}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pseudo, err := PseudoScores(scores)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Quantify(m.Workers, pseudo, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE7Auditor measures a full marketplace audit (4 jobs).
func BenchmarkE7Auditor(b *testing.B) {
	m, err := Preset("crowdsourcing", 1000, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{Attributes: []string{"gender", "ethnicity", "language", "region"}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Audit(m, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE8JobOwner measures a five-variant function comparison.
func BenchmarkE8JobOwner(b *testing.B) {
	m, err := Preset("crowdsourcing", 1000, 1)
	if err != nil {
		b.Fatal(err)
	}
	variants := []string{
		"0.7*language_test + 0.3*rating",
		"0.5*language_test + 0.5*rating",
		"0.3*language_test + 0.7*rating",
		"1*language_test",
		"0.4*language_test + 0.2*rating + 0.4*accuracy",
	}
	cfg := Config{Attributes: []string{"gender", "ethnicity", "language", "region"}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, expr := range variants {
			fn, err := ParseScorer(expr)
			if err != nil {
				b.Fatal(err)
			}
			scores, err := fn.Score(m.Workers)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := Quantify(m.Workers, scores, cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkE9EndUser measures the group-vs-rest gap computation of the
// END-USER scenario.
func BenchmarkE9EndUser(b *testing.B) {
	m, err := Preset("taskrabbit", 2000, 1)
	if err != nil {
		b.Fatal(err)
	}
	scores, err := m.Score("moving")
	if err != nil {
		b.Fatal(err)
	}
	group := And(Eq("gender", "Female"), Eq("ethnicity", "Black"))
	measure := DefaultMeasure()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := m.Workers.MatchingRows(group)
		if err != nil {
			b.Fatal(err)
		}
		inGroup := make(map[int]bool, len(rows))
		for _, r := range rows {
			inGroup[r] = true
		}
		var rest []int
		for r := 0; r < m.Workers.Len(); r++ {
			if !inGroup[r] {
				rest = append(rest, r)
			}
		}
		gh, err := measure.Histogram(scores, rows)
		if err != nil {
			b.Fatal(err)
		}
		rh, err := measure.Histogram(scores, rest)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := measure.PairwiseDistance(gh, rh); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE10Aggregations measures Algorithm 1 under each
// aggregation.
func BenchmarkE10Aggregations(b *testing.B) {
	m, err := Preset("crowdsourcing", 1000, 1)
	if err != nil {
		b.Fatal(err)
	}
	scores, err := m.Score("translation")
	if err != nil {
		b.Fatal(err)
	}
	attrs := []string{"gender", "ethnicity", "language", "region"}
	for _, name := range []string{"avg", "max", "min", "variance"} {
		agg, err := AggregatorByName(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			cfg := Config{Measure: Measure{Agg: agg}, Attributes: attrs}
			for i := 0; i < b.N; i++ {
				if _, err := core.Quantify(m.Workers, scores, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE11EMD measures the EMD solvers across bin counts.
func BenchmarkE11EMD(b *testing.B) {
	g := stats.NewRNG(1)
	randDist := func(n int) []float64 {
		v := make([]float64, n)
		s := 0.0
		for i := range v {
			v[i] = g.Float64() + 1e-9
			s += v[i]
		}
		for i := range v {
			v[i] /= s
		}
		return v
	}
	for _, bins := range []int{5, 10, 25, 50, 100} {
		p, q := randDist(bins), randDist(bins)
		w := 1.0 / float64(bins)
		b.Run(fmt.Sprintf("closed/bins=%d", bins), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := emd.Hist1D(p, q, w); err != nil {
					b.Fatal(err)
				}
			}
		})
		ground := emd.GroundDistance1D(bins, w)
		b.Run(fmt.Sprintf("transport/bins=%d", bins), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := emd.EMD(p, q, ground); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMarketplaceGenerate measures the population generator used
// by every scenario.
func BenchmarkMarketplaceGenerate(b *testing.B) {
	spec := marketplace.CrowdsourcingSpec(2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(spec, uint64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}
