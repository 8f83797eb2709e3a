package mitigate

import "sync"

// This file is the FA*IR model-adjustment subsystem: the exact
// multiple-test correction of Zehlike et al. (CIKM 2017), which
// dominates the Bonferroni split α/(k·groups) the mitigator once used.
//
// FA*IR tests every prefix 1..k of a ranking against a binomial
// minimum-representation table, so a fair Bernoulli(p) process faces k
// dependent hypothesis tests and its probability of failing at least
// one is well above the per-test significance. The paper's correction
// computes that joint failure probability exactly — a dynamic program
// over the table's block structure — and binary-searches a corrected
// per-test level αc so the joint failure probability of the resulting
// table is as close to the requested family-wise α as the discrete
// table space allows, without exceeding it.
//
// Tables are memoized per (k, p, α): a marketplace audit re-ranks
// thousands of jobs whose discovered groups share a handful of target
// proportions, and the adjustment costs ~60 DP evaluations per fresh
// triple, so the cache keeps table construction off the audit hot path
// (see BenchmarkMTable).

// mTable is one group's minimum-representation table together with the
// exact model adjustment that produced it.
type mTable struct {
	// K is the ranking prefix the table covers.
	K int
	// P is the group's target proportion.
	P float64
	// Alpha is the requested family-wise significance of the k joint
	// prefix tests.
	Alpha float64
	// AlphaC is the corrected per-test significance the table was
	// built at — the largest level whose joint failure probability
	// stays within Alpha. Always in (0, Alpha].
	AlphaC float64
	// Min[t] is the minimum number of group members required among the
	// first t positions, t = 0..K. Shared across callers via the memo
	// cache; never mutate.
	Min []int
	// FailProb is the exact probability that a fair Bernoulli(P)
	// process fails at least one of the K prefix tests under Min.
	// Always <= Alpha.
	FailProb float64
}

// jointFailureProb returns the exact probability that a fair
// Bernoulli(p) process of length len(table)-1 violates table at some
// prefix: P[∃t: successes among the first t trials < table[t]].
//
// The DP walks the table's block structure. Prefix counts only grow,
// so between two steps of the (nondecreasing) table the constraint is
// implied by the one at the previous step: only the block boundaries —
// the positions where the table increases — can newly fail, and the
// state after each boundary is the distribution of success counts
// among the surviving (never-failed) trajectories. A trajectory that
// reaches table[k] successes can never fail again (no later minimum
// exceeds the final one), so the state space is capped at table[k]
// with an absorbing "safe" mass — the DP is O(k·table[k]).
func jointFailureProb(table []int, p float64) float64 {
	k := len(table) - 1
	mMax := table[k]
	if mMax <= 0 {
		return 0 // an all-zero table is unfailable
	}
	if p <= 0 {
		return 1 // no successes ever, yet the table demands some
	}
	if p >= 1 {
		return 0 // all successes; table[t] <= t is always met
	}
	q := 1 - p
	// dist[s] = P[s successes so far and no prefix test failed yet],
	// for s < mMax; safe absorbs trajectories with s >= mMax.
	dist := make([]float64, mMax)
	dist[0] = 1
	safe := 0.0
	for t := 1; t <= k; t++ {
		// One Bernoulli trial, highest count first so each state reads
		// its predecessors before they are overwritten.
		safe += dist[mMax-1] * p
		for s := mMax - 1; s >= 1; s-- {
			dist[s] = dist[s]*q + dist[s-1]*p
		}
		dist[0] *= q
		// Block boundary: trajectories below the new minimum fail here.
		if req := table[t]; req > table[t-1] {
			for s := 0; s < req && s < mMax; s++ {
				dist[s] = 0
			}
		}
	}
	success := safe
	for _, m := range dist {
		success += m
	}
	if success > 1 {
		success = 1
	}
	return 1 - success
}

// exactAdjustment computes the exact model adjustment for one group:
// the largest per-test significance αc whose minimum-representation
// table keeps the joint failure probability of a fair process within
// alpha. The joint failure probability is nondecreasing in the
// per-test level (larger levels only grow the tables), so a binary
// search over (0, alpha] converges; the discrete table space makes the
// failure probability a step function, and the search settles on the
// conservative side of the step nearest alpha.
func exactAdjustment(k int, p, alpha float64) *mTable {
	mt := &mTable{K: k, P: p, Alpha: alpha, AlphaC: alpha}
	if p <= 0 || p >= 1 {
		// Degenerate proportions have deterministic fair processes
		// (table all-zero resp. identity): no adjustment to make.
		mt.Min = binomMinTable(k, p, alpha)
		return mt
	}
	table := binomMinTable(k, p, alpha)
	if fail := jointFailureProb(table, p); fail <= alpha {
		// The unadjusted tables already keep the joint test within α —
		// the k prefix tests are too correlated (or the table space too
		// coarse) to overshoot. αc = α is the exact answer.
		mt.Min, mt.FailProb = table, fail
		return mt
	}
	// Invariant: fail(lo) <= alpha < fail(hi). lo=0 yields all-zero
	// tables (failure 0); the union bound fail(ac) <= k·ac pulls lo off
	// zero within ~log2(k) halvings, so AlphaC ends in (0, alpha].
	lo, hi := 0.0, alpha
	for i := 0; i < 64 && hi-lo > alpha*1e-12; i++ {
		mid := lo + (hi-lo)/2
		if jointFailureProb(binomMinTable(k, p, mid), p) <= alpha {
			lo = mid
		} else {
			hi = mid
		}
	}
	mt.AlphaC = lo
	mt.Min = binomMinTable(k, p, lo)
	mt.FailProb = jointFailureProb(mt.Min, p)
	return mt
}

// mtKey identifies one memoized adjustment.
type mtKey struct {
	k        int
	p, alpha float64
}

// mtableCacheCap bounds the memo; on overflow the whole map is
// dropped — retention is a performance matter only, never correctness
// (exactAdjustment is a pure function).
const mtableCacheCap = 1 << 12

var mtableCache = struct {
	sync.RWMutex
	m map[mtKey]*mTable
}{m: make(map[mtKey]*mTable, 64)}

// exactMTable returns the memoized exact adjustment for (k, p, alpha).
// Concurrent misses on the same key may both compute; the results are
// identical and either may be cached — no single-flight needed for a
// pure function this cheap.
func exactMTable(k int, p, alpha float64) *mTable {
	key := mtKey{k: k, p: p, alpha: alpha}
	mtableCache.RLock()
	mt := mtableCache.m[key]
	mtableCache.RUnlock()
	if mt != nil {
		return mt
	}
	mt = exactAdjustment(k, p, alpha)
	mtableCache.Lock()
	if len(mtableCache.m) >= mtableCacheCap {
		mtableCache.m = make(map[mtKey]*mTable, 64)
	}
	mtableCache.m[key] = mt
	mtableCache.Unlock()
	return mt
}
