package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/dataset"
	"repro/internal/fairness"
	"repro/internal/fingerprint"
	"repro/internal/histogram"
	"repro/internal/partition"
)

// Cache memoizes the expensive sub-computations of the quantification
// engine — group histograms, candidate-split evaluations (scores and
// children row-sets), and pairwise histogram distances (the EMD calls
// that dominate Algorithm 1's cost) — so that TryAllRoots restarts,
// repeated panels of an interactive session, and overlapping subgroups
// across requests never recompute the same value.
//
// Entries are scoped by the identity of the inputs they depend on: the
// dataset (by pointer — datasets are immutable), the score vector (up
// to the canonical float equivalence of internal/fingerprint: the sign
// of zero and NaN payloads never change a histogram), and the fairness
// measure (distance, aggregator, bins). Two runs only share entries
// when all three match, so a shared Cache can never change a result —
// only skip work. Structures that depend on the dataset alone — split
// row-partitions and splittable-attribute scans — are memoized once
// per dataset and shared by every score vector (see dataScope).
//
// The cache additionally links each new scope to the most recently
// used scope of the same (dataset, measure, population size), the
// predecessor a re-quantify after a small score edit diffs itself
// against to re-solve only the affected branches (see engine.diff).
//
// A Cache is safe for concurrent use by any number of engine runs; a
// nil *Cache is valid everywhere one is accepted and simply scopes the
// memoization to the single run. Every memo is one generic
// single-flight memoTable: each entry is computed exactly once, which
// also keeps Stats counters deterministic regardless of worker count.
type Cache struct {
	mu     sync.Mutex
	scopes map[scopeKey][]*cacheScope
	// data holds the score-independent memos, one per dataset. Its
	// size is bounded by the dataset's own group structure, not by the
	// stream of score vectors, so it is exempt from scope eviction and
	// released by dropDataset/Reset.
	data map[*dataset.Dataset]*dataScope
	// latest tracks the most recently used scope per (dataset,
	// measure, population size) — the predecessor candidate for the
	// next new scope of that shape.
	latest map[latestKey]*cacheScope
	// nScopes counts every scope across the slices; maxScopes > 0
	// bounds it with least-recently-used eviction (see SetMaxScopes).
	nScopes   int
	maxScopes int
	// seq stamps scope accesses for the LRU order.
	seq uint64
	// free recycles the score buffers of evicted scopes once no engine
	// pins them and no live scope links to them, keyed by length. A
	// long-lived bounded session churns one multi-MB vector per new
	// scope; reusing warm pages spares each the page-fault cost of a
	// fresh allocation, which dominates the warm re-quantify path at
	// large populations.
	free map[int][][]float64
}

// NewCache returns an empty cache ready to be shared across runs via
// Config.Cache. A Session creates one automatically.
func NewCache() *Cache {
	return &Cache{scopes: make(map[scopeKey][]*cacheScope)}
}

// SetMaxScopes bounds how many scopes — distinct (dataset, scores,
// measure) combinations — the cache retains, evicting the least
// recently used beyond the bound. Each scope holds every histogram,
// split and distance memoized for its combination, so the bound is
// what keeps a long-lived server's memory flat when clients keep
// sending new score vectors. 0 (the default) means unbounded, and so
// does a negative n; callers validate their bound first.
func (c *Cache) SetMaxScopes(n int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.maxScopes = n
	c.evictLocked()
}

// Scopes reports how many scopes the cache currently holds.
func (c *Cache) Scopes() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nScopes
}

// evictLocked drops least-recently-used scopes until the bound holds.
// Called with c.mu held. An evicted scope can stay reachable a little
// longer as the predecessor link of the scope that superseded it; the
// chain is at most one hop, so at most one evicted scope per live
// scope survives until its successor is itself evicted or superseded.
func (c *Cache) evictLocked() {
	if c.maxScopes <= 0 {
		return
	}
	for c.nScopes > c.maxScopes {
		var oldestKey scopeKey
		oldestIdx := -1
		var oldest uint64
		for k, ss := range c.scopes {
			for i, s := range ss {
				if oldestIdx < 0 || s.lastUsed < oldest {
					oldestKey, oldestIdx, oldest = k, i, s.lastUsed
				}
			}
		}
		ss := c.scopes[oldestKey]
		victim := ss[oldestIdx]
		c.scopes[oldestKey] = append(ss[:oldestIdx], ss[oldestIdx+1:]...)
		if len(c.scopes[oldestKey]) == 0 {
			delete(c.scopes, oldestKey)
		}
		victim.prev.Store(nil)
		for lk, s := range c.latest {
			if s == victim {
				delete(c.latest, lk)
			}
		}
		c.nScopes--
		victim.evicted = true
		if victim.refs == 0 && !c.referencedLocked(victim) {
			c.recycleLocked(victim)
		}
	}
}

// referencedLocked reports whether any live scope links to v as its
// incremental predecessor. Called with c.mu held; the scan is bounded
// by the scope cap.
func (c *Cache) referencedLocked(v *cacheScope) bool {
	for _, ss := range c.scopes {
		for _, s := range ss {
			if s.prev.Load() == v {
				return true
			}
		}
	}
	return false
}

// recycleLocked moves an unreachable scope's score buffer to the free
// list (bounded per length) and detaches it so any stray later read
// fails loudly instead of seeing another run's scores. Called with
// c.mu held.
func (c *Cache) recycleLocked(s *cacheScope) {
	if s.scores == nil {
		return
	}
	if c.free == nil {
		c.free = make(map[int][][]float64)
	}
	if n := len(s.scores); len(c.free[n]) < 4 {
		c.free[n] = append(c.free[n], s.scores)
	}
	s.scores = nil
}

// newScoreBufLocked returns a buffer holding a copy of scores,
// preferring a recycled one. Called with c.mu held.
func (c *Cache) newScoreBufLocked(scores []float64) []float64 {
	if bufs := c.free[len(scores)]; len(bufs) > 0 {
		buf := bufs[len(bufs)-1]
		c.free[len(scores)] = bufs[:len(bufs)-1]
		copy(buf, scores)
		return buf
	}
	return append([]float64(nil), scores...)
}

// dropDataset removes every scope keyed by d and the dataset's shared
// memo, releasing the memoized work of a dataset that is being
// replaced or discarded. (If the same dataset is registered under
// several names, dropping one drops the memoized work for all —
// sharing then rebuilds the scope on demand.)
func (c *Cache) dropDataset(d *dataset.Dataset) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, ss := range c.scopes {
		if k.data == d {
			for _, s := range ss {
				s.prev.Store(nil)
			}
			c.nScopes -= len(ss)
			delete(c.scopes, k)
		}
	}
	for lk := range c.latest {
		if lk.data == d {
			delete(c.latest, lk)
		}
	}
	delete(c.data, d)
	c.free = nil
}

// Reset drops every memoized entry, releasing the datasets and score
// vectors the cache holds references to.
func (c *Cache) Reset() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, ss := range c.scopes {
		for _, s := range ss {
			s.prev.Store(nil)
		}
	}
	c.scopes = make(map[scopeKey][]*cacheScope)
	c.data = nil
	c.latest = nil
	c.nScopes = 0
	c.free = nil
}

// scopeKey identifies the inputs a memoized value depends on.
type scopeKey struct {
	data      *dataset.Dataset
	scoreHash uint64
	measure   string
}

// latestKey identifies the shapes whose scopes can serve as each
// other's incremental predecessor: same dataset, same measure, same
// population size (the bin-index diff is row-aligned).
type latestKey struct {
	data    *dataset.Dataset
	measure string
	n       int
}

// measureID renders every measure field that can change a histogram or
// distance value. Measure.Name() alone is not enough: a Distance's
// name need not render every field that changes its value, and the
// Lo/Hi score range reshapes every histogram bin.
func measureID(m fairness.Measure) string {
	return fmt.Sprintf("%T%+v|%T%+v|bins=%d|lo=%g|hi=%g", m.Dist, m.Dist, m.Agg, m.Agg, m.Bins, m.Lo, m.Hi)
}

// acquire returns the scope for (d, scores, measure), creating it on
// first use, together with its incremental predecessor; both are
// pinned against buffer recycling until releaseScopes. Scores are
// matched by canonical float equality (fingerprint.EqualCanon):
// vectors differing only in zero signs or NaN payloads bin
// identically, so they share one scope — the warm path costs nothing
// for such edits. A newly created scope is linked to the most
// recently used scope of the same (dataset, measure, size) as its
// incremental predecessor; the predecessor's own link is cleared so
// chains never exceed one hop. On a nil Cache the result is a fresh
// private scope with no predecessor.
func (c *Cache) acquire(d *dataset.Dataset, scores []float64, m fairness.Measure) (s, prev *cacheScope) {
	if c == nil {
		return &cacheScope{scores: scores}, nil
	}
	mid := measureID(m)
	key := scopeKey{data: d, scoreHash: fingerprint.Hash64(scores), measure: mid}
	lk := latestKey{data: d, measure: mid, n: len(scores)}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.scopes == nil {
		c.scopes = make(map[scopeKey][]*cacheScope)
	}
	if c.latest == nil {
		c.latest = make(map[latestKey]*cacheScope)
	}
	c.seq++
	for _, s := range c.scopes[key] {
		if fingerprint.EqualCanon(s.scores, scores) {
			s.lastUsed = c.seq
			c.latest[lk] = s
			s.refs++
			if prev := s.prev.Load(); prev != nil {
				prev.refs++
				return s, prev
			}
			return s, nil
		}
	}
	s = &cacheScope{scores: c.newScoreBufLocked(scores), lastUsed: c.seq, refs: 1}
	if p := c.latest[lk]; p != nil {
		s.prev.Store(p)
		p.prev.Store(nil) // bound predecessor chains to one hop
		p.refs++
		prev = p
	}
	c.latest[lk] = s
	c.scopes[key] = append(c.scopes[key], s)
	c.nScopes++
	c.evictLocked()
	return s, prev
}

// releaseScopes unpins scopes returned by acquire once a run is done
// with them. The final release of an evicted, unreferenced scope
// recycles its score buffer. Nil entries (and a nil Cache) are
// ignored.
func (c *Cache) releaseScopes(scopes ...*cacheScope) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, s := range scopes {
		if s == nil {
			continue
		}
		s.refs--
		if s.evicted && s.refs == 0 && !c.referencedLocked(s) {
			c.recycleLocked(s)
		}
	}
}

// scopeFor is acquire without the pin — for callers that only inspect
// scope identity and never read score buffers after later runs.
func (c *Cache) scopeFor(d *dataset.Dataset, scores []float64, m fairness.Measure) *cacheScope {
	s, prev := c.acquire(d, scores, m)
	c.releaseScopes(s, prev)
	return s
}

// dataScopeFor returns the score-independent memo for d, creating it
// on first use. On a nil Cache it returns a fresh private memo.
func (c *Cache) dataScopeFor(d *dataset.Dataset) *dataScope {
	if c == nil {
		return &dataScope{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.data == nil {
		c.data = make(map[*dataset.Dataset]*dataScope)
	}
	s := c.data[d]
	if s == nil {
		s = &dataScope{}
		c.data[d] = s
	}
	return s
}

// splitKey identifies one candidate split: a canonical group and the
// attribute it would be divided on.
type splitKey struct {
	group partition.Key
	attr  string
}

// attrsKey identifies one splittable-attribute scan: a canonical
// group, the candidate list (order-sensitive) and the minimum group
// size.
type attrsKey struct {
	group   partition.Key
	attrs   string
	minSize int
}

// distKey identifies one unordered group pair by the canonical
// ordering of their keys (distances are symmetric).
type distKey struct {
	a, b partition.Key
}

// memo is one single-flight memoized value: the first do runs f and
// every concurrent or later caller blocks on, then shares, its result
// — value and error alike.
type memo[V any] struct {
	once sync.Once
	// ready is stored after v and err are written, so a reader that
	// never entered once (a successor scope consulting its
	// predecessor, see memoTable.done) can use a finished value
	// without racing the computing goroutine.
	ready atomic.Bool
	v     V
	err   error
}

// do returns the memoized result, computing it with f on first use.
func (m *memo[V]) do(f func() (V, error)) (V, error) {
	m.once.Do(func() {
		defer m.ready.Store(true)
		m.v, m.err = f()
	})
	return m.v, m.err
}

// memoTable maps comparable keys to memos. The warm path is a
// read-locked lookup with no interface boxing, so a hit allocates
// nothing; the zero value is ready to use.
type memoTable[K comparable, V any] struct {
	mu sync.RWMutex
	m  map[K]*memo[V]
}

// entry returns the memo for k, creating it on first use.
func (t *memoTable[K, V]) entry(k K) *memo[V] {
	t.mu.RLock()
	e := t.m[k]
	t.mu.RUnlock()
	if e != nil {
		return e
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if e := t.m[k]; e != nil {
		return e
	}
	if t.m == nil {
		t.m = make(map[K]*memo[V])
	}
	e = &memo[V]{}
	t.m[k] = e
	return e
}

// done returns k's value if it finished without error, and never
// creates an entry or waits — the read a predecessor scope answers
// from.
func (t *memoTable[K, V]) done(k K) (V, bool) {
	t.mu.RLock()
	e := t.m[k]
	t.mu.RUnlock()
	if e == nil || !e.ready.Load() || e.err != nil {
		var zero V
		return zero, false
	}
	return e.v, true
}

// dataScope holds the memo tables that depend on the dataset alone —
// never on scores or measure: the row partitions candidate splits
// create and the splittable-attribute scans of the recursion. Sharing
// them across all score scopes is what makes a warm re-quantify after
// a score edit skip every O(rows) counting sort.
type dataScope struct {
	children memoTable[splitKey, splitChildren]
	attrs    memoTable[attrsKey, []string]
	// validated memoizes Tree.Validate per leaf set (by leafSetKey):
	// identical keys over one dataset mean identical row sets, so the
	// O(rows) disjointness and coverage scan runs once per
	// partitioning.
	validated memoTable[string, struct{}]
}

// splitChildren is the row partition a split creates, memoized so a
// hit skips the O(rows) counting sort. The children's condition lists
// carry the first caller's root-to-group path order (parentConds);
// engine.splitChildren re-labels them when a different path reaches
// the same canonical group.
type splitChildren struct {
	parentConds []partition.Cond
	children    []partition.Group
}

// cacheScope holds the memo tables of one (dataset, scores, measure)
// combination: group histograms, split scores, pairwise distances and
// final breakdowns, each a single-flight memoTable, so concurrent
// workers asking for the same key block on one computation instead of
// duplicating it.
type cacheScope struct {
	scores []float64
	// lastUsed is the cache's access stamp for LRU eviction, read and
	// written under Cache.mu only.
	lastUsed uint64
	// refs counts runs currently holding this scope (as their own
	// scope or as their incremental predecessor) and evicted marks a
	// scope dropped from the cache maps while still pinned; both are
	// guarded by Cache.mu and drive score-buffer recycling.
	refs    int
	evicted bool
	// prev links to the scope this one superseded — the incremental
	// predecessor a run diffs its bin indices against to reuse
	// histograms, distances and split scores for untouched subtrees.
	// Cleared when a successor scope takes over, so chains never grow
	// past one hop.
	prev atomic.Pointer[cacheScope]

	// bins is the scope's shared per-row bin index vector, the
	// precomputation that turns every histogram build into a counting
	// loop.
	bins memo[*fairness.BinIndexer]

	hists  memoTable[partition.Key, histogram.Hist]
	splits memoTable[splitKey, float64]
	dists  memoTable[distKey, float64]
	finals memoTable[string, finalBreakdown]
}

// finalBreakdown is one memoized final breakdown, keyed by the ordered
// leaf set. dists duplicates the pair distances as a bare vector so an
// incremental successor can patch only the pairs with a dirty endpoint
// and re-aggregate.
type finalBreakdown struct {
	hists      []histogram.Hist
	pairs      []fairness.PairBreakdown
	dists      []float64
	unfairness float64
}

// binIndexer returns the scope's per-row bin index vector, computing
// it once. The scope's own score copy is preferred so predecessor
// diffs always compare indexers built from the vectors the scopes were
// keyed by; scores is the fallback for hand-built scopes without one.
func (s *cacheScope) binIndexer(m fairness.Measure, scores []float64) (*fairness.BinIndexer, error) {
	return s.bins.do(func() (*fairness.BinIndexer, error) {
		src := s.scores
		if src == nil {
			src = scores
		}
		return m.NewBinIndexer(src)
	})
}
