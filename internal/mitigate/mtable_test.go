package mitigate

import (
	"math"
	"reflect"
	"sync"
	"testing"
)

// bruteForceFailureProb enumerates every outcome of a fair
// Bernoulli(p) process of length k = len(table)-1 and sums the
// probability of the trajectories that violate table at some prefix —
// the exact ground truth the DP must reproduce. Exponential; keep k
// small.
func bruteForceFailureProb(table []int, p float64) float64 {
	k := len(table) - 1
	fail := 0.0
	for mask := 0; mask < 1<<k; mask++ {
		count, failed := 0, false
		for t := 1; t <= k; t++ {
			if mask&(1<<(t-1)) != 0 {
				count++
			}
			if count < table[t] {
				failed = true
				break
			}
		}
		if !failed {
			continue
		}
		ones := 0
		for t := 0; t < k; t++ {
			if mask&(1<<t) != 0 {
				ones++
			}
		}
		fail += math.Pow(p, float64(ones)) * math.Pow(1-p, float64(k-ones))
	}
	return fail
}

// referenceMinTable is the pre-incremental form of binomMinTable: the
// full CDF re-summed term-by-term at every probe. Kept as the direct
// reference the O(k) scan is cross-checked against.
func referenceMinTable(k int, p, alpha float64) []int {
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
	m := 0
	for t := 1; t <= k; t++ {
		for m < t && binomCDF(m, t, p) <= alpha {
			m++
		}
		table[t] = m
	}
	return table
}

// TestMTablePaperExample pins the FA*IR paper's published example: at
// p=0.5, alpha=0.1 the unadjusted mTable over the first ten positions
// is ⟨0,0,0,1,1,1,2,2,3,3⟩ (Zehlike et al., CIKM 2017, Table 1).
func TestMTablePaperExample(t *testing.T) {
	want := []int{0, 0, 0, 0, 1, 1, 1, 2, 2, 3, 3} // index 0 unused
	if got := binomMinTable(10, 0.5, 0.1); !reflect.DeepEqual(got, want) {
		t.Fatalf("mTable(k=10, p=0.5, α=0.1) = %v, want %v", got, want)
	}
	// The exact adjustment at the same parameters must shrink the
	// per-test level below α (ten joint tests overshoot a 0.1 budget)
	// and land the joint failure probability within it.
	mt := exactAdjustment(10, 0.5, 0.1)
	if mt.AlphaC <= 0 || mt.AlphaC >= 0.1 {
		t.Errorf("αc = %g, want in (0, 0.1)", mt.AlphaC)
	}
	if mt.FailProb > 0.1 {
		t.Errorf("joint failure probability %g exceeds α=0.1", mt.FailProb)
	}
	// Pinned regression values for the corrected table, cross-checked
	// below against brute-force enumeration of the joint test: the
	// correction relaxes the unadjusted table at t=7 and t=9.
	if want := []int{0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 3}; !reflect.DeepEqual(mt.Min, want) {
		t.Errorf("corrected table = %v, want %v", mt.Min, want)
	}
	if got := bruteForceFailureProb(mt.Min, 0.5); math.Abs(got-mt.FailProb) > 1e-12 {
		t.Errorf("DP failure probability %g, brute force %g", mt.FailProb, got)
	}
	// And the table just above αc must overshoot α — the search found
	// the maximal table within budget. (The bisection tolerance is
	// α·1e-12, so probing α·1e-11 above αc lands beyond the bracket.)
	bigger := binomMinTable(10, 0.5, mt.AlphaC+0.1*1e-11)
	if reflect.DeepEqual(bigger, mt.Min) {
		t.Errorf("no larger table exists just above αc=%g; bracket invariant broken", mt.AlphaC)
	} else if fail := bruteForceFailureProb(bigger, 0.5); fail <= 0.1 {
		t.Errorf("larger table %v also fits α (failure %g); search was not maximal", bigger, fail)
	}
}

// TestJointFailureProbBruteForce cross-checks the block DP against
// exhaustive enumeration of every Bernoulli trajectory.
func TestJointFailureProbBruteForce(t *testing.T) {
	for _, k := range []int{1, 2, 3, 5, 8, 12, 14} {
		for _, p := range []float64{0.2, 0.5, 0.7} {
			for _, alpha := range []float64{0.05, 0.1, 0.3} {
				table := binomMinTable(k, p, alpha)
				got := jointFailureProb(table, p)
				want := bruteForceFailureProb(table, p)
				if math.Abs(got-want) > 1e-12 {
					t.Errorf("k=%d p=%g α=%g: DP %g, brute force %g", k, p, alpha, got, want)
				}
			}
		}
	}
}

func TestJointFailureProbDegenerate(t *testing.T) {
	if got := jointFailureProb(make([]int, 11), 0.5); got != 0 {
		t.Errorf("all-zero table failed with probability %g", got)
	}
	table := []int{0, 0, 1, 1, 2}
	if got := jointFailureProb(table, 0); got != 1 {
		t.Errorf("p=0 against a binding table: %g, want 1", got)
	}
	if got := jointFailureProb(table, 1); got != 0 {
		t.Errorf("p=1 never fails a sub-identity table: %g, want 0", got)
	}
}

// TestExactAdjustmentSweep is the property sweep of the exact model
// adjustment: for every (k, p, α) combination, αc lands in (0, α], the
// joint failure probability stays within α, the exact table binds at
// least as often as the Bonferroni table at the same family level
// (pointwise ⊒, for one group and for α split over three), each table
// is nondecreasing with steps of at most one, and the tables are
// monotone in α and (on this grid) in p.
func TestExactAdjustmentSweep(t *testing.T) {
	ks := []int{5, 10, 25, 100}
	ps := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
	alphas := []float64{0.01, 0.05, 0.1}
	for _, k := range ks {
		for _, alpha := range alphas {
			var prevP []int
			for _, p := range ps {
				mt := exactMTable(k, p, alpha)
				if mt.AlphaC <= 0 || mt.AlphaC > alpha {
					t.Fatalf("k=%d p=%g α=%g: αc=%g outside (0, α]", k, p, alpha, mt.AlphaC)
				}
				if mt.FailProb > alpha {
					t.Fatalf("k=%d p=%g α=%g: joint failure %g exceeds α", k, p, alpha, mt.FailProb)
				}
				for _, groups := range []int{1, 3} {
					checkDominatesBonferroni(t, k, p, alpha, groups)
				}
				for i := range mt.Min {
					if i > 0 {
						if step := mt.Min[i] - mt.Min[i-1]; step < 0 || step > 1 {
							t.Fatalf("k=%d p=%g α=%g: table step %d at t=%d", k, p, alpha, step, i)
						}
					}
				}
				// Monotone in α: a smaller family budget can only
				// shrink the table.
				smaller := exactMTable(k, p, alpha/2)
				for i := range mt.Min {
					if smaller.Min[i] > mt.Min[i] {
						t.Fatalf("k=%d p=%g: table at α=%g exceeds table at α=%g at t=%d",
							k, p, alpha/2, alpha, i)
					}
				}
				// Monotone in p on the sweep grid. (The discrete αc
				// correction makes fine-grained p monotonicity only
				// approximate; the 0.1-step grid is clean.)
				if prevP != nil {
					for i := range mt.Min {
						if mt.Min[i] < prevP[i] {
							t.Fatalf("k=%d α=%g: table at p=%g dips below p−0.1 at t=%d", k, alpha, p, i)
						}
					}
				}
				prevP = mt.Min
			}
		}
	}
}

// checkDominatesBonferroni asserts that the exact table for one of G
// groups sharing the family budget α is pointwise at least the oracle
// it must dominate, FA*IR's binomial table at the Bonferroni level
// α/(k·G) (the budget split uniformly across all k prefix tests of G
// groups), and returns that Bonferroni table.
func checkDominatesBonferroni(t *testing.T, k int, p, alpha float64, groups int) []int {
	t.Helper()
	exact := exactMTable(k, p, alpha/float64(groups)).Min
	bonf := binomMinTable(k, p, alpha/(float64(k)*float64(groups)))
	for i := range exact {
		if exact[i] < bonf[i] {
			t.Fatalf("k=%d p=%g α=%g G=%d: exact table %d at t=%d below Bonferroni %d",
				k, p, alpha, groups, exact[i], i, bonf[i])
		}
	}
	return bonf
}

// biasedPopulation is the acceptance scenario: a 30% protected group
// scored 0.1 lower on average than the 70% majority, scores
// interleaving at a 0.007 pitch so the first protected member ranks
// 16th by score — inside the exact table's first deadline (t=11 at
// k=25, α=0.1 split over two groups) but outside the Bonferroni
// table's (t=18).
func biasedPopulation() Input {
	n := 100
	scores := make([]float64, n)
	var a, b []int
	for r := 0; r < n; r++ {
		if r < 70 {
			scores[r] = 1 - float64(r)*0.007
			a = append(a, r)
		} else {
			scores[r] = 0.9 - float64(r-70)*0.007
			b = append(b, r)
		}
	}
	return Input{Scores: scores, Groups: [][]int{a, b}, K: 25, Alpha: 0.1}
}

// TestExactBindsWhereBonferroniDoesNot pins the acceptance criterion:
// on the mildly biased population a FA*IR merge under the Bonferroni
// tables forces no swap at all (they are satisfied by the biased
// ranking as-is), while the exact tables, which dominate them, force
// protected members up into the prefix.
func TestExactBindsWhereBonferroniDoesNot(t *testing.T) {
	in := biasedPopulation()
	targets, err := in.targets("fair", len(in.Scores))
	if err != nil {
		t.Fatal(err)
	}
	tables := make([][]int, len(in.Groups))
	for g := range in.Groups {
		tables[g] = checkDominatesBonferroni(t, in.K, targets[g], in.Alpha, len(in.Groups))
	}
	bonferroni, err := constrainedMerge("fair", in, tables, nil)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := FAIR{}.Rerank(in)
	if err != nil {
		t.Fatal(err)
	}
	checkPermutation(t, bonferroni, len(in.Scores))
	checkPermutation(t, exact, len(in.Scores))
	for i, r := range bonferroni {
		if r != scoreOrder(in.Scores)[i] {
			t.Fatalf("Bonferroni tables forced a swap at position %d; they should stay silent here", i+1)
		}
	}
	if reflect.DeepEqual(exact, bonferroni) {
		t.Fatal("exact tables forced no swap; the significance adjustment is still under-enforcing")
	}
	// The first exact deadline: at least one protected member within
	// the first 11 positions, where the biased order has none.
	protected := 0
	for _, r := range exact[:11] {
		if r >= 70 {
			protected++
		}
	}
	if protected == 0 {
		t.Fatalf("exact ranking %v holds no protected member in its first deadline window", exact[:11])
	}
}

// scoreOrder returns the pure score-descending order (ties by row).
func scoreOrder(scores []float64) []int {
	in := Input{Scores: scores, Groups: [][]int{allRows(len(scores))}, K: 1}
	return in.queues()[0].rows
}

func allRows(n int) []int {
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	return rows
}

// TestMTableDeterminism recomputes adjustments repeatedly and
// concurrently: every path — fresh computation, memoized hit, racing
// misses — must yield bit-identical tables. This is the guarantee that
// lets audit reports stay byte-stable across worker counts.
func TestMTableDeterminism(t *testing.T) {
	type combo struct {
		k        int
		p, alpha float64
	}
	combos := []combo{{10, 0.5, 0.1}, {25, 0.3, 0.05}, {100, 0.7, 0.01}}
	base := make([]*mTable, len(combos))
	for i, c := range combos {
		base[i] = exactAdjustment(c.k, c.p, c.alpha)
		if again := exactAdjustment(c.k, c.p, c.alpha); !reflect.DeepEqual(base[i], again) {
			t.Fatalf("%+v: repeated computation differs", c)
		}
	}
	var wg sync.WaitGroup
	results := make([][]*mTable, 8)
	for w := range results {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out := make([]*mTable, len(combos))
			for i, c := range combos {
				out[i] = exactMTable(c.k, c.p, c.alpha)
			}
			results[w] = out
		}(w)
	}
	wg.Wait()
	for w, out := range results {
		for i := range combos {
			if !reflect.DeepEqual(out[i], base[i]) {
				t.Fatalf("goroutine %d combo %+v: memoized table differs from direct computation", w, combos[i])
			}
		}
	}
}

func TestMTableMemoization(t *testing.T) {
	first := exactMTable(42, 0.37, 0.08)
	if again := exactMTable(42, 0.37, 0.08); again != first {
		t.Error("second lookup did not return the cached table")
	}
	// Overflow drops the map wholesale; the next lookup recomputes an
	// identical table under a fresh cache. Evict the real key so the
	// lookup misses and takes the overflow path.
	mtableCache.Lock()
	delete(mtableCache.m, mtKey{k: 42, p: 0.37, alpha: 0.08})
	for i := 0; len(mtableCache.m) < mtableCacheCap; i++ {
		mtableCache.m[mtKey{k: -i - 1}] = &mTable{}
	}
	mtableCache.Unlock()
	refetched := exactMTable(42, 0.37, 0.08)
	if !reflect.DeepEqual(refetched, first) {
		t.Error("recomputed table after cache reset differs")
	}
	mtableCache.RLock()
	size := len(mtableCache.m)
	mtableCache.RUnlock()
	if size >= mtableCacheCap {
		t.Errorf("cache did not reset on overflow: %d entries", size)
	}
}

// TestBinomMinTableIncrementalMatchesDirect pits the O(k) incremental
// scan against direct CDF re-summation across proportions, levels
// (down to the tiny values the binary search probes) and table sizes.
func TestBinomMinTableIncrementalMatchesDirect(t *testing.T) {
	// The alpha grid avoids exact collisions with CDF values (e.g.
	// α=1e-6 equals F(0; 3, 0.99) = 0.01³ up to rounding, where two
	// correctly-rounded implementations may land on opposite sides of
	// the <= boundary).
	for _, k := range []int{1, 2, 3, 5, 17, 64, 200} {
		for _, p := range []float64{0.05, 0.3, 0.5, 0.9, 0.99} {
			for _, alpha := range []float64{3e-6, 1e-3, 0.013, 0.1, 0.4} {
				got := binomMinTable(k, p, alpha)
				want := referenceMinTable(k, p, alpha)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("k=%d p=%g α=%g: incremental %v, direct %v", k, p, alpha, got, want)
				}
			}
		}
	}
}

// TestBinomMinTableAllocs guards the satellite fix: the incremental
// scan allocates the result slice and nothing else.
func TestBinomMinTableAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(20, func() {
		binomMinTable(200, 0.3, 0.01)
	}); n > 1 {
		t.Errorf("binomMinTable allocates %.0f objects per run, want <= 1", n)
	}
}

// BenchmarkMTable is the bench-gate family for table construction:
// legacy-table is the raw incremental minimum-table scan, construct is
// a full exact adjustment (binary search + DPs) computed cold, and
// memoized is the audit hot path — the cache hit that makes per-job
// table cost vanish.
func BenchmarkMTable(b *testing.B) {
	b.Run("legacy-table/k=100", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			binomMinTable(100, 0.3, 0.001)
		}
	})
	b.Run("construct/k=100", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			exactAdjustment(100, 0.3, 0.05)
		}
	})
	b.Run("memoized/k=100", func(b *testing.B) {
		exactMTable(100, 0.3, 0.05) // warm the cache
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			exactMTable(100, 0.3, 0.05)
		}
	})
}
