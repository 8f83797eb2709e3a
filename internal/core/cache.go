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
// memoization to the single run. Each entry is computed exactly once
// (single-flight), which also keeps Stats counters deterministic
// regardless of worker count.
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

// dataScope holds the memo tables that depend on the dataset alone —
// never on scores or measure: the row partitions candidate splits
// create and the splittable-attribute scans of the recursion. Sharing
// them across all score scopes is what makes a warm re-quantify after
// a score edit skip every O(rows) counting sort.
type dataScope struct {
	mu       sync.RWMutex
	children map[splitKey]*childrenEntry
	attrs    map[attrsKey]*attrsEntry
	// validated records leaf sets (by leafSetKey) whose partitioning
	// invariants Tree.Validate already confirmed: identical keys over
	// one dataset mean identical row sets, so the O(rows) disjointness
	// and coverage scan never repeats for a known-good partitioning.
	validated map[string]struct{}
}

// wasValidated reports whether the leaf set was already validated.
func (s *dataScope) wasValidated(key string) bool {
	s.mu.RLock()
	_, ok := s.validated[key]
	s.mu.RUnlock()
	return ok
}

// markValidated records a leaf set that passed Tree.Validate.
func (s *dataScope) markValidated(key string) {
	s.mu.Lock()
	if s.validated == nil {
		s.validated = make(map[string]struct{})
	}
	s.validated[key] = struct{}{}
	s.mu.Unlock()
}

// cacheScope holds the memo tables of one (dataset, scores, measure)
// combination. Tables are plain maps keyed by comparable structs under
// an RWMutex — the warm path is a read-locked lookup with no interface
// boxing, so a memo hit allocates nothing. The entries hold sync.Once
// values, so concurrent workers asking for the same key block on one
// computation instead of duplicating it (single-flight).
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

	// binOnce guards the scope's shared per-row bin index vector, the
	// precomputation that turns every histogram build into a counting
	// loop.
	binOnce sync.Once
	binIdx  *fairness.BinIndexer
	binErr  error

	mu     sync.RWMutex
	hists  map[partition.Key]*histEntry
	splits map[splitKey]*splitEntry
	dists  map[distKey]*distEntry
	finals map[string]*finalizeEntry
}

// binIndexer returns the scope's per-row bin index vector, computing
// it once. The scope's own score copy is preferred so predecessor
// diffs always compare indexers built from the vectors the scopes were
// keyed by; scores is the fallback for hand-built scopes without one.
func (s *cacheScope) binIndexer(m fairness.Measure, scores []float64) (*fairness.BinIndexer, error) {
	s.binOnce.Do(func() {
		src := s.scores
		if src == nil {
			src = scores
		}
		s.binIdx, s.binErr = m.NewBinIndexer(src)
	})
	return s.binIdx, s.binErr
}

type histEntry struct {
	once sync.Once
	// ready is set inside the once body after h/err are written, so a
	// different scope can read a completed entry without racing the
	// computing goroutine (same-scope readers synchronize via once).
	ready atomic.Bool
	h     histogram.Hist
	err   error
}

type splitEntry struct {
	once  sync.Once
	ready atomic.Bool
	val   float64
	err   error
}

// childrenEntry memoizes the row partition a split creates, so a memo
// hit skips the O(rows) counting sort. The stored children's condition
// lists carry the first caller's root-to-group path order; evalSplit
// re-labels them when a different path reaches the same canonical
// group.
type childrenEntry struct {
	once        sync.Once
	parentConds []partition.Cond
	children    []partition.Group
	err         error
}

// attrsEntry memoizes one splittable-attribute scan.
type attrsEntry struct {
	once sync.Once
	val  []string
	err  error
}

type distEntry struct {
	once  sync.Once
	ready atomic.Bool
	v     float64
	err   error
}

// finalizeEntry memoizes one final breakdown, keyed by the ordered
// leaf set. dists duplicates the pair distances as a bare vector so an
// incremental successor can patch only the pairs with a dirty
// endpoint and re-aggregate.
type finalizeEntry struct {
	once       sync.Once
	ready      atomic.Bool
	hists      []histogram.Hist
	pairs      []fairness.PairBreakdown
	dists      []float64
	unfairness float64
	err        error
}

func (s *cacheScope) histEntry(key partition.Key) *histEntry {
	s.mu.RLock()
	e := s.hists[key]
	s.mu.RUnlock()
	if e != nil {
		return e
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.hists == nil {
		s.hists = make(map[partition.Key]*histEntry)
	}
	if e := s.hists[key]; e != nil {
		return e
	}
	e = &histEntry{}
	s.hists[key] = e
	return e
}

// lookupHist returns the memoized histogram entry for key without
// creating one — the read predecessor scopes answer from.
func (s *cacheScope) lookupHist(key partition.Key) *histEntry {
	s.mu.RLock()
	e := s.hists[key]
	s.mu.RUnlock()
	return e
}

func (s *cacheScope) splitEntry(key splitKey) *splitEntry {
	s.mu.RLock()
	e := s.splits[key]
	s.mu.RUnlock()
	if e != nil {
		return e
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.splits == nil {
		s.splits = make(map[splitKey]*splitEntry)
	}
	if e := s.splits[key]; e != nil {
		return e
	}
	e = &splitEntry{}
	s.splits[key] = e
	return e
}

// lookupSplit returns the memoized split entry for key without
// creating one.
func (s *cacheScope) lookupSplit(key splitKey) *splitEntry {
	s.mu.RLock()
	e := s.splits[key]
	s.mu.RUnlock()
	return e
}

func (s *dataScope) childrenEntry(key splitKey) *childrenEntry {
	s.mu.RLock()
	e := s.children[key]
	s.mu.RUnlock()
	if e != nil {
		return e
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.children == nil {
		s.children = make(map[splitKey]*childrenEntry)
	}
	if e := s.children[key]; e != nil {
		return e
	}
	e = &childrenEntry{}
	s.children[key] = e
	return e
}

func (s *dataScope) attrsEntry(key attrsKey) *attrsEntry {
	s.mu.RLock()
	e := s.attrs[key]
	s.mu.RUnlock()
	if e != nil {
		return e
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.attrs == nil {
		s.attrs = make(map[attrsKey]*attrsEntry)
	}
	if e := s.attrs[key]; e != nil {
		return e
	}
	e = &attrsEntry{}
	s.attrs[key] = e
	return e
}

func (s *cacheScope) distEntry(key distKey) *distEntry {
	s.mu.RLock()
	e := s.dists[key]
	s.mu.RUnlock()
	if e != nil {
		return e
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dists == nil {
		s.dists = make(map[distKey]*distEntry)
	}
	if e := s.dists[key]; e != nil {
		return e
	}
	e = &distEntry{}
	s.dists[key] = e
	return e
}

// lookupDist returns the memoized distance entry for key without
// creating one.
func (s *cacheScope) lookupDist(key distKey) *distEntry {
	s.mu.RLock()
	e := s.dists[key]
	s.mu.RUnlock()
	return e
}

func (s *cacheScope) finalizeEntry(key string) *finalizeEntry {
	s.mu.RLock()
	e := s.finals[key]
	s.mu.RUnlock()
	if e != nil {
		return e
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.finals == nil {
		s.finals = make(map[string]*finalizeEntry)
	}
	if e := s.finals[key]; e != nil {
		return e
	}
	e = &finalizeEntry{}
	s.finals[key] = e
	return e
}

// lookupFinalize returns the memoized final breakdown for key without
// creating one.
func (s *cacheScope) lookupFinalize(key string) *finalizeEntry {
	s.mu.RLock()
	e := s.finals[key]
	s.mu.RUnlock()
	return e
}
