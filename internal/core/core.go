// Package core implements FaiRank's contribution: finding the most
// (or least) unfair partitioning of a set of individuals over their
// protected attributes under a scoring function (paper Definition 1),
// using the greedy recursive QUANTIFY algorithm (paper Algorithm 1)
// with an exhaustive optimal solver as baseline.
package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/emd"
	"repro/internal/fairness"
	"repro/internal/fingerprint"
	"repro/internal/histogram"
	"repro/internal/partition"
)

// ErrDegeneratePartition reports an aggregation over zero pairwise
// distances: a partitioning with fewer than two groups has no pairs
// to compare. Before this error existed, stats.Mean/Max/Min returned
// 0 for the empty slice, so a degenerate single-leaf candidate
// silently scored "perfectly fair" and could win the LeastUnfair
// objective over every genuine multi-group partitioning.
var ErrDegeneratePartition = errors.New("degenerate partitioning: fewer than two groups")

// Objective selects which optimization problem to solve.
type Objective int

const (
	// MostUnfair solves the Most Unfair Partitioning Problem
	// (argmax unfairness, paper Definition 1).
	MostUnfair Objective = iota
	// LeastUnfair solves the Least Unfair Partitioning Problem
	// (argmin, paper §3.1).
	LeastUnfair
)

// String returns "most-unfair" or "least-unfair".
func (o Objective) String() string {
	switch o {
	case MostUnfair:
		return "most-unfair"
	case LeastUnfair:
		return "least-unfair"
	default:
		return fmt.Sprintf("Objective(%d)", int(o))
	}
}

// ObjectiveByName parses "most"/"most-unfair" or "least"/"least-unfair".
func ObjectiveByName(name string) (Objective, error) {
	switch name {
	case "most", "most-unfair", "":
		return MostUnfair, nil
	case "least", "least-unfair":
		return LeastUnfair, nil
	default:
		return 0, fmt.Errorf("core: unknown objective %q (valid: most, most-unfair, least, least-unfair)", name)
	}
}

// Config parameterizes a quantification run.
type Config struct {
	// Measure is the fairness formulation (zero value = Definition 2:
	// average pairwise EMD over 5-bin histograms of [0,1] scores).
	Measure fairness.Measure
	// Objective selects most- vs least-unfair search.
	Objective Objective
	// Attributes lists the protected attributes to partition on. If
	// empty, all categorical protected attributes of the dataset are
	// used. Numeric attributes must be bucketized first.
	Attributes []string
	// MinGroupSize forbids splits creating partitions smaller than
	// this (default 1, the paper's behaviour).
	MinGroupSize int
	// MaxDepth bounds the partitioning tree depth (0 = unlimited).
	MaxDepth int
	// EnumerationLimit bounds the exhaustive search space (0 = 1<<20).
	EnumerationLimit int
	// TryAllRoots runs the greedy recursion once per splittable root
	// attribute instead of only the "most unfair" one, returning the
	// best final partitioning. One of the restarts is exactly
	// Algorithm 1's choice, so the result is never worse than the
	// plain greedy at roughly |attributes|× the cost — a cheap step
	// toward the exhaustive optimum.
	TryAllRoots bool
	// Workers bounds the solver's concurrency: sibling subtrees,
	// candidate splits and root restarts fan out over a pool of this
	// many workers. 0 selects runtime.GOMAXPROCS(0); 1 runs fully
	// sequentially. Results are bit-identical for every worker count.
	Workers int
	// Cache optionally shares memoized histograms, split evaluations
	// and pairwise distances across runs (see Cache). Entries are
	// scoped by dataset, scores and measure, so sharing can only skip
	// work, never change a result. Nil scopes the memoization to the
	// single run.
	Cache *Cache

	// disablePrune and disableReuse switch off the bound-based pair
	// pruning and the cross-scope incremental reuse. Both paths are
	// bit-identical to the plain computation by construction; these
	// are the in-package escape hatches the property tests compare
	// against.
	disablePrune bool
	disableReuse bool
}

// normalize fills defaults and validates the configuration against d.
func (c Config) normalize(d *dataset.Dataset) (Config, error) {
	if c.MinGroupSize <= 0 {
		c.MinGroupSize = 1
	}
	if c.MaxDepth < 0 {
		return c, fmt.Errorf("core: negative MaxDepth %d", c.MaxDepth)
	}
	if c.Workers < 0 {
		return c, fmt.Errorf("core: negative Workers %d", c.Workers)
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if len(c.Attributes) == 0 {
		for _, name := range d.Schema().Protected() {
			a, err := d.Schema().Attr(name)
			if err != nil {
				return c, err
			}
			if a.Kind == dataset.Categorical {
				c.Attributes = append(c.Attributes, name)
			}
		}
		if len(c.Attributes) == 0 {
			return c, fmt.Errorf("core: dataset has no categorical protected attributes; bucketize numeric ones first")
		}
	} else {
		seen := make(map[string]bool, len(c.Attributes))
		for _, name := range c.Attributes {
			if seen[name] {
				return c, fmt.Errorf("core: attribute %q listed twice", name)
			}
			seen[name] = true
			a, err := d.Schema().Attr(name)
			if err != nil {
				return c, fmt.Errorf("core: %w", err)
			}
			if a.Kind != dataset.Categorical {
				return c, fmt.Errorf("core: attribute %q is numeric; bucketize it before partitioning", name)
			}
		}
	}
	return c, nil
}

// Stats reports the work a solver performed.
type Stats struct {
	// DistanceEvals counts the histogram-distance evaluations the
	// solver requested. The count is identical for every worker
	// count: an evaluation answered by the memoization cache still
	// counts (see CachedDistances), though distance work skipped
	// wholesale by a memoized split score is not re-counted.
	DistanceEvals int
	// CachedDistances counts how many of DistanceEvals were answered
	// by the memoization cache instead of being recomputed.
	CachedDistances int
	// ReusedDistances counts how many of DistanceEvals were answered
	// from the predecessor scope's memo after the incremental diff
	// proved neither group's score histogram changed — the warm
	// re-quantify path after a small score edit. Zero when the run has
	// no usable predecessor.
	ReusedDistances int
	// PrunedPairs counts pairwise solves the max/min aggregation
	// skipped because cheap EMD bounds proved the pair could not
	// change the aggregate. Pruned pairs are never requested, so they
	// do not appear in DistanceEvals.
	PrunedPairs int
	// SplitsEvaluated counts candidate splits scored by mostUnfair
	// (like DistanceEvals, memoized evaluations included).
	SplitsEvaluated int
	// Partitionings counts full partitionings evaluated (exhaustive
	// solver only).
	Partitionings int
	// Elapsed is the wall-clock solver time.
	Elapsed time.Duration
}

// Result is a solved partitioning with its fairness quantification.
type Result struct {
	// Tree is the partitioning tree (nil for exhaustive results,
	// which are discovered as flat leaf sets).
	Tree *partition.Tree
	// Groups is the final partitioning (the tree's leaves).
	Groups []partition.Group
	// Hists holds the normalized score histogram of each group.
	Hists []histogram.Hist
	// Pairwise holds every pairwise distance between groups.
	Pairwise []fairness.PairBreakdown
	// Unfairness is Definition 2 applied to Groups.
	Unfairness float64
	// Objective and Measure echo the configuration used.
	Objective Objective
	Measure   fairness.Measure
	Stats     Stats
}

// engine carries the shared state of one solver run. All of its
// methods are safe for concurrent use by the worker pool: memoized
// values live in single-flight cache entries and the counters are
// atomic.
type engine struct {
	d       *dataset.Dataset
	scores  []float64
	cfg     Config
	measure fairness.Measure
	// ctx carries the caller's deadline/cancellation. It is consulted
	// only OUTSIDE memoized computations (see ctxErr), so an aborted
	// run can never store a context error — or a half-computed value —
	// in a shared cache: every cache entry is either fully computed or
	// never started, and a retry after cancellation is bit-identical
	// to a cold run.
	ctx context.Context
	// scope holds the memoized histograms, split evaluations and
	// pairwise distances for this (dataset, scores, measure)
	// combination — private to the run, or shared via Config.Cache.
	scope *cacheScope
	// dscope holds the score-independent memos (split row partitions,
	// splittable-attribute scans) shared by every scope of the
	// dataset.
	dscope *dataScope
	// prev is the scope this run's scope superseded, captured once at
	// engine construction: the incremental predecessor whose memos
	// answer for every subtree the score edit left untouched. Nil when
	// there is none (or reuse is disabled).
	prev *cacheScope
	// pinned is the predecessor as acquired (even under disableReuse),
	// released together with scope when the run ends so the cache can
	// recycle evicted score buffers.
	pinned *cacheScope
	// sem is the worker pool: each held token is one extra goroutine
	// beyond the caller. Nil when Workers == 1 (fully sequential).
	sem chan struct{}

	// linearW is the histogram bin width when the measure's distance
	// is the closed-form 1-D EMD (0 otherwise) — the precondition for
	// the mean and triangle bounds aggWithin prunes with.
	linearW float64
	// aggKind classifies the aggregator for the pruned path.
	aggKind aggKind

	// diffOnce computes, once per run, the rows whose histogram bin
	// changed between prev's scores and this run's — the dirty set
	// driving all cross-scope reuse decisions.
	diffOnce sync.Once
	diffOK   bool
	dirty    []int32 // dirty rows, ascending
	// dirtyBins maps each dirty row to its predecessor and current bin
	// — everything a histogram patch needs, without either scope's full
	// per-row bin index.
	dirtyBins map[int32]binPair
	// dirtyWords is a bitmap over rows (1 = dirty), built lazily on the
	// first fallback merge against an unresolvable group's row list.
	bitmapOnce sync.Once
	dirtyWords []uint64
	// cellIdx groups the dirty rows by protected cell so per-group
	// dirty resolution is O(#dirty cells) instead of a scan over the
	// group's row list; nil when an attribute is not categorical.
	cellIdx *dirtyCellIndex
	// dirtyMemo memoizes dirtyRows per canonical group key for the run.
	dirtyMemo memoTable[partition.Key, []int32]

	distEvals       atomic.Int64
	cachedDists     atomic.Int64
	reusedDists     atomic.Int64
	prunedPairs     atomic.Int64
	splitsEvaluated atomic.Int64
	// partitionings is only touched by the sequential exhaustive
	// enumeration.
	partitionings int
}

// aggKind classifies the measure's aggregator for bound-based
// pruning: only max and min aggregates can be computed exactly from a
// subset of the pairs.
type aggKind int

const (
	aggOther aggKind = iota
	aggMax
	aggMin
)

func newEngine(d *dataset.Dataset, scores []float64, cfg Config) (*engine, error) {
	if d == nil || d.Len() == 0 {
		return nil, fmt.Errorf("core: empty dataset")
	}
	if len(scores) != d.Len() {
		return nil, fmt.Errorf("core: %d scores for %d individuals", len(scores), d.Len())
	}
	cfg, err := cfg.normalize(d)
	if err != nil {
		return nil, err
	}
	scope, prev := cfg.Cache.acquire(d, scores, cfg.Measure)
	e := &engine{
		d:       d,
		scores:  scores,
		cfg:     cfg,
		measure: cfg.Measure,
		scope:   scope,
		dscope:  cfg.Cache.dataScopeFor(d),
		pinned:  prev,
	}
	if !cfg.disableReuse {
		e.prev = prev
	}
	if w, ok := cfg.Measure.LinearEMDBinWidth(); ok && !cfg.disablePrune {
		e.linearW = w
	}
	switch cfg.Measure.Agg.(type) {
	case fairness.MaxAgg:
		e.aggKind = aggMax
	case fairness.MinAgg:
		e.aggKind = aggMin
	}
	if cfg.Workers > 1 {
		e.sem = make(chan struct{}, cfg.Workers-1)
	}
	return e, nil
}

// ctxErr reports the run's cancellation state: nil while the caller's
// context is live, the wrapped context error once it is done. It is
// the solver's cooperative cancellation point, called at worker-pool
// granularity — before each subtree recursion, candidate-split
// evaluation, restart and finalize — and deliberately NEVER from
// inside a memoized (memo.do) computation: a check inside the memo
// would store the context error as the entry's permanent result,
// poisoning the shared cache for every later run.
func (e *engine) ctxErr() error {
	if e.ctx == nil {
		return nil
	}
	select {
	case <-e.ctx.Done():
		return fmt.Errorf("core: %w", e.ctx.Err())
	default:
		return nil
	}
}

// release unpins the run's cache scopes so the cache can recycle
// evicted score buffers. Called once when the run ends; safe on a
// run without a shared cache.
func (e *engine) release() {
	e.cfg.Cache.releaseScopes(e.scope, e.pinned)
}

// binPair is a dirty row's bin before and after the score edit.
type binPair struct {
	oldBin, newBin int32
}

// diff computes, once, the set of rows whose histogram bin differs
// between this run's scores and the predecessor scope's, and reports
// whether a usable diff exists. Bins are a pure function of the
// canonical score, so the scan compares scores canonically and bins
// only the rows that actually changed — one streaming pass plus
// O(changed) arithmetic, never a full per-row bin index. Bin indices
// are the only view of the scores the engine ever takes, so rows
// outside the dirty set contribute identically to every histogram,
// distance and aggregate — the invariant all cross-scope reuse rests
// on.
func (e *engine) diff() bool {
	e.diffOnce.Do(func() {
		prev := e.prev
		if prev == nil || len(prev.scores) != len(e.scores) {
			return
		}
		binOf, err := e.measure.NewBinMapper()
		if err != nil {
			return
		}
		old := prev.scores
		var dirty []int32
		var bins map[int32]binPair
		for r, v := range e.scores {
			// Raw-bit equality implies canonical equality; canonicalize
			// only the rare mismatches so the scan stays memory-bound.
			if math.Float64bits(v) == math.Float64bits(old[r]) ||
				fingerprint.CanonBits(v) == fingerprint.CanonBits(old[r]) {
				continue
			}
			ob, nb := binOf(old[r]), binOf(v)
			if ob == nb {
				continue
			}
			if bins == nil {
				bins = make(map[int32]binPair)
			}
			dirty = append(dirty, int32(r))
			bins[int32(r)] = binPair{oldBin: ob, newBin: nb}
		}
		e.dirty, e.dirtyBins, e.diffOK = dirty, bins, true
		if len(dirty) > 0 {
			e.cellIdx = e.buildCellIndex()
		}
	})
	return e.diffOK
}

// dirtyBitmap returns the bitmap over rows (1 = dirty), built on
// first use: only the row-merge fallback of dirtyRows needs it.
func (e *engine) dirtyBitmap() []uint64 {
	e.bitmapOnce.Do(func() {
		bm := make([]uint64, (len(e.scores)+63)/64)
		for _, r := range e.dirty {
			bm[r>>6] |= 1 << (uint(r) & 63)
		}
		e.dirtyWords = bm
	})
	return e.dirtyWords
}

// dirtyCellIndex buckets the run's dirty rows by protected cell — the
// tuple of categorical codes over the run's attributes. Split-produced
// groups contain exactly the rows satisfying their condition
// conjunction (Split partitions the parent's rows by value, starting
// from the full population), so a group's dirty rows are the union of
// the cells matching its conditions: O(#dirty cells · #conds) per
// group instead of a search over its row list.
type dirtyCellIndex struct {
	attrs   []string
	valCode []map[string]int // per attr: domain value → code
	cells   []dirtyCell
}

// dirtyCell is one protected cell holding dirty rows. rows are
// ascending within the cell (cells are filled from the ascending
// global dirty list), but a multi-cell union is grouped by cell, not
// globally sorted — consumers treat the list as a set.
type dirtyCell struct {
	codes []int
	rows  []int32
}

// buildCellIndex buckets e.dirty by cell; nil when a configured
// attribute is not categorical (the row-merge fallback still answers).
func (e *engine) buildCellIndex() *dirtyCellIndex {
	attrs := e.cfg.Attributes
	idx := &dirtyCellIndex{attrs: attrs, valCode: make([]map[string]int, len(attrs))}
	cols := make([][]int, len(attrs))
	for i, a := range attrs {
		cv, err := e.d.Cat(a)
		if err != nil {
			return nil
		}
		cols[i] = cv.Codes
		m := make(map[string]int, len(cv.Domain))
		for c, v := range cv.Domain {
			m[v] = c
		}
		idx.valCode[i] = m
	}
	byCell := make(map[string]int)
	var key []byte
	for _, r := range e.dirty {
		key = key[:0]
		for _, col := range cols {
			key = binary.AppendUvarint(key, uint64(col[r]))
		}
		ci, ok := byCell[string(key)]
		if !ok {
			ci = len(idx.cells)
			byCell[string(key)] = ci
			codes := make([]int, len(cols))
			for i, col := range cols {
				codes[i] = col[r]
			}
			idx.cells = append(idx.cells, dirtyCell{codes: codes})
		}
		idx.cells[ci].rows = append(idx.cells[ci].rows, r)
	}
	return idx
}

// resolve returns the dirty rows satisfying conds and whether the
// conditions could be resolved against the index at all (a condition
// on an unindexed attribute cannot; a condition on a value absent
// from the data matches no rows and resolves to an empty set).
func (idx *dirtyCellIndex) resolve(conds []partition.Cond, all []int32) ([]int32, bool) {
	if len(conds) == 0 {
		return all, true
	}
	type want struct {
		attr, code int
	}
	wants := make([]want, len(conds))
	for i, c := range conds {
		ai := -1
		for j, a := range idx.attrs {
			if a == c.Attr {
				ai = j
				break
			}
		}
		if ai < 0 {
			return nil, false
		}
		code, ok := idx.valCode[ai][c.Value]
		if !ok {
			return nil, true
		}
		wants[i] = want{attr: ai, code: code}
	}
	var out []int32
	for ci := range idx.cells {
		cell := &idx.cells[ci]
		match := true
		for _, w := range wants {
			if cell.codes[w.attr] != w.code {
				match = false
				break
			}
		}
		if match {
			out = append(out, cell.rows...)
		}
	}
	return out, true
}

// dirtyRows returns the dirty rows of g (as a set, grouped by cell),
// memoized per canonical group key. Split-produced groups and the
// root resolve against the cell index; anything else falls back to
// merging the global dirty list against the group's rows.
func (e *engine) dirtyRows(g partition.Group) ([]int32, bool) {
	if !e.diff() {
		return nil, false
	}
	if len(e.dirty) == 0 {
		return nil, true
	}
	out, _ := e.dirtyMemo.entry(g.Key()).do(func() ([]int32, error) {
		if e.cellIdx != nil {
			if len(g.Conds) == 0 {
				// Only the full-population root is condition-free; a bare
				// group over a row subset must use its row list.
				if len(g.Rows) == e.d.Len() {
					return e.dirty, nil
				}
			} else if g.SplitProduced() {
				if out, ok := e.cellIdx.resolve(g.Conds, e.dirty); ok {
					return out, nil
				}
			}
		}
		out, _ := e.dirtyIn(g.Rows)
		return out, nil
	})
	return out, true
}

// groupClean reports whether no row of g changed histogram bins since
// the predecessor scope.
func (e *engine) groupClean(g partition.Group) bool {
	din, ok := e.dirtyRows(g)
	return ok && len(din) == 0
}

// dirtyIn returns the dirty rows contained in rows (both ascending),
// and whether a usable predecessor diff exists at all.
func (e *engine) dirtyIn(rows []int) ([]int32, bool) {
	if !e.diff() {
		return nil, false
	}
	if len(e.dirty) == 0 {
		return nil, true
	}
	var out []int32
	if len(e.dirty)*32 < len(rows) {
		for _, r := range e.dirty {
			i := sort.SearchInts(rows, int(r))
			if i < len(rows) && rows[i] == int(r) {
				out = append(out, r)
			}
		}
		return out, true
	}
	bm := e.dirtyBitmap()
	for _, r := range rows {
		if bm[r>>6]&(1<<(uint(r)&63)) != 0 {
			out = append(out, int32(r))
		}
	}
	return out, true
}

// runParallel runs fn(0) .. fn(n-1), spreading calls over the worker
// pool when tokens are free and running them inline on the calling
// goroutine otherwise (which bounds total concurrency at Workers and
// cannot deadlock under recursion). Each call writes only to its own
// index, so the outcome is independent of scheduling; the first error
// in index order is returned.
func (e *engine) runParallel(n int, fn func(int) error) error {
	if e.sem == nil || n <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		select {
		case e.sem <- struct{}{}:
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				defer func() { <-e.sem }()
				errs[i] = fn(i)
			}(i)
		default:
			errs[i] = fn(i)
		}
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// histOf returns the (memoized) normalized histogram of a group. The
// build counts the scope's precomputed per-row bin indices — no float
// arithmetic per row — and fans large row sets out over the worker
// pool.
func (e *engine) histOf(g partition.Group) (histogram.Hist, error) {
	return e.scope.hists.entry(g.Key()).do(func() (histogram.Hist, error) {
		// Try the cross-scope patch first: it needs no bin index, so a
		// fully-incremental run never builds one.
		if h, ok := e.reuseHist(g); ok {
			return h, nil
		}
		bi, err := e.scope.binIndexer(e.measure, e.scores)
		var h histogram.Hist
		if err == nil {
			h, err = e.buildHist(bi, g.Rows)
		}
		if err != nil {
			return histogram.Hist{}, fmt.Errorf("core: histogram of %q: %w", g.Label(), err)
		}
		return h, nil
	})
}

// reuseHist answers a group histogram from the predecessor scope:
// returned as-is when none of the group's rows changed bins, or
// patched by moving one unit of integer mass per dirty row. Both
// paths are bit-identical to a fresh count — the patched path
// reconstructs the exact integer counts (counts are row tallies < 2⁵²,
// so count·size rounds back exactly), moves whole units, and divides
// by the same group size the fresh build divides by.
func (e *engine) reuseHist(g partition.Group) (histogram.Hist, bool) {
	if e.prev == nil {
		return histogram.Hist{}, false
	}
	ph, ok := e.prev.hists.done(g.Key())
	if !ok {
		return histogram.Hist{}, false
	}
	din, ok := e.dirtyRows(g)
	if !ok {
		return histogram.Hist{}, false
	}
	if len(din) == 0 {
		return ph, true
	}
	t := float64(len(g.Rows))
	counts := make([]float64, len(ph.Counts))
	for i, c := range ph.Counts {
		counts[i] = math.Round(c * t)
	}
	for _, r := range din {
		bp := e.dirtyBins[r]
		if bp.newBin < 0 || bp.oldBin < 0 {
			// The score became (or was) NaN: fall back to the fresh
			// build so the error matches the non-incremental path.
			return histogram.Hist{}, false
		}
		counts[bp.oldBin]--
		counts[bp.newBin]++
	}
	for i := range counts {
		counts[i] /= t
	}
	return histogram.Hist{Lo: ph.Lo, Hi: ph.Hi, Counts: counts}, true
}

// histShardRows is the number of rows one histogram-count shard
// covers; groups smaller than two shards are counted inline.
const histShardRows = 8192

// buildHist counts rows into a normalized histogram via the bin
// indexer. Large groups are sharded across the worker pool: each shard
// counts into its own buffer and the buffers are summed in shard
// order, so the result is bit-identical to the sequential count
// (integer-valued float64 additions are exact).
func (e *engine) buildHist(bi *fairness.BinIndexer, rows []int) (histogram.Hist, error) {
	shards := 0
	if e.sem != nil {
		shards = len(rows) / histShardRows
		if shards > e.cfg.Workers {
			shards = e.cfg.Workers
		}
	}
	if shards < 2 {
		return bi.Histogram(rows)
	}
	counts := make([][]float64, shards)
	chunk := (len(rows) + shards - 1) / shards
	err := e.runParallel(shards, func(i int) error {
		lo, hi := i*chunk, (i+1)*chunk
		if hi > len(rows) {
			hi = len(rows)
		}
		counts[i] = make([]float64, bi.Bins())
		return bi.Count(counts[i], rows[lo:hi])
	})
	if err != nil {
		return histogram.Hist{}, err
	}
	merged := counts[0]
	for _, c := range counts[1:] {
		for j := range merged {
			merged[j] += c[j]
		}
	}
	t := float64(len(rows))
	for j := range merged {
		merged[j] /= t
	}
	lo, hi := bi.Range()
	return histogram.Hist{Lo: lo, Hi: hi, Counts: merged}, nil
}

// groupDistance returns the (memoized) histogram distance between two
// groups, keyed by the canonical ordering of their keys so both
// argument orders share one entry (distances are symmetric).
func (e *engine) groupDistance(a, b partition.Group) (float64, error) {
	ka, kb := a.Key(), b.Key()
	if kb < ka {
		ka, kb = kb, ka
		a, b = b, a
	}
	e.distEvals.Add(1)
	key := distKey{a: ka, b: kb}
	computed, reused := false, false
	v, err := e.scope.dists.entry(key).do(func() (float64, error) {
		computed = true
		if v, ok := e.reuseDist(key, a, b); ok {
			reused = true
			return v, nil
		}
		ha, err := e.histOf(a)
		if err != nil {
			return 0, err
		}
		hb, err := e.histOf(b)
		if err != nil {
			return 0, err
		}
		return e.measure.PairwiseDistance(ha, hb)
	})
	if !computed {
		e.cachedDists.Add(1)
	} else if reused {
		e.reusedDists.Add(1)
	}
	return v, err
}

// reuseDist answers a pairwise distance from the predecessor scope
// when neither endpoint contains a row that changed bins: both
// histograms are then bit-identical to the predecessor's, so the
// distance is too.
func (e *engine) reuseDist(key distKey, a, b partition.Group) (float64, bool) {
	if e.prev == nil {
		return 0, false
	}
	v, ok := e.prev.dists.done(key)
	if !ok || !e.groupClean(a) || !e.groupClean(b) {
		return 0, false
	}
	return v, true
}

// splitChildren returns the (memoized) children of splitting g on
// attr. The row partition is computed once per canonical (group,
// attr); a memo hit skips the counting sort entirely. Condition lists
// carry the caller's root-to-group path order, which differs between
// restarts reaching the same canonical group — when it does, the
// cached children are re-labelled for this caller, sharing their rows
// and canonical keys.
func (e *engine) splitChildren(g partition.Group, attr string) ([]partition.Group, error) {
	sc, err := e.dscope.children.entry(splitKey{group: g.Key(), attr: attr}).do(func() (splitChildren, error) {
		children, err := partition.Split(e.d, g, attr)
		return splitChildren{parentConds: g.Conds, children: children}, err
	})
	if err != nil {
		return nil, err
	}
	if condsEqual(sc.parentConds, g.Conds) {
		return sc.children, nil
	}
	out := make([]partition.Group, len(sc.children))
	for i, c := range sc.children {
		conds := make([]partition.Cond, len(g.Conds)+1)
		copy(conds, g.Conds)
		conds[len(g.Conds)] = c.Conds[len(c.Conds)-1]
		out[i] = c.Relabel(conds)
	}
	return out, nil
}

// condsEqual reports whether two condition lists are identical
// including order (the cheap common case in splitChildren: the memoized
// children were built from the same path).
func condsEqual(a, b []partition.Cond) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// evalSplit returns the children a split of g on attr creates and the
// (memoized) aggregated pairwise distance among them — the score
// mostUnfairAttr ranks candidate attributes by. The aggregate value
// depends only on the rows and is safe to share across restarts.
func (e *engine) evalSplit(g partition.Group, attr string) ([]partition.Group, float64, error) {
	children, err := e.splitChildren(g, attr)
	if err != nil {
		return nil, 0, err
	}
	e.splitsEvaluated.Add(1)
	key := splitKey{group: g.Key(), attr: attr}
	v, err := e.scope.splits.entry(key).do(func() (float64, error) {
		// A split's aggregate depends only on the children's
		// histograms; when every row of the parent kept its bin, the
		// predecessor's value is bit-identical and the whole
		// evaluation — counting sorts, histograms, distances — is
		// skipped for this subtree.
		if e.prev != nil && e.groupClean(g) {
			if v, ok := e.prev.splits.done(key); ok {
				return v, nil
			}
		}
		return e.aggWithin(children)
	})
	return children, v, err
}

// splittableAttrs memoizes partition.SplittableAttrs per dataset: the
// result depends only on the group's rows, the candidate list and the
// minimum size — never on scores — so warm re-quantifies skip the
// O(rows·attrs) scan entirely.
func (e *engine) splittableAttrs(g partition.Group, attrs []string) ([]string, error) {
	key := attrsKey{
		group:   g.Key(),
		attrs:   strings.Join(attrs, "\x1f"),
		minSize: e.cfg.MinGroupSize,
	}
	return e.dscope.attrs.entry(key).do(func() ([]string, error) {
		return partition.SplittableAttrs(e.d, g, attrs, e.cfg.MinGroupSize)
	})
}

// distsPool recycles the pairwise-distance scratch slices of
// aggAcross/aggWithin: the search calls them once per candidate split
// and sibling comparison, and the slices otherwise account for most
// of the evaluator's garbage on the hot path.
var distsPool = sync.Pool{New: func() any { return new([]float64) }}

// aggAcross aggregates the distances from each group in as to each
// group in bs (the avg(EMD(children, siblings)) construction of
// Algorithm 1, with the aggregation pluggable). Empty sides are
// rejected: aggregating zero distances would silently report perfect
// fairness (see ErrDegeneratePartition).
func (e *engine) aggAcross(as, bs []partition.Group) (float64, error) {
	agg := e.measure.Agg
	if agg == nil {
		agg = fairness.Average{}
	}
	if len(as) == 0 || len(bs) == 0 {
		return 0, fmt.Errorf("core: %w", ErrDegeneratePartition)
	}
	buf := distsPool.Get().(*[]float64)
	dists := (*buf)[:0]
	for _, a := range as {
		for _, b := range bs {
			d, err := e.groupDistance(a, b)
			if err != nil {
				*buf = dists
				distsPool.Put(buf)
				return 0, err
			}
			dists = append(dists, d)
		}
	}
	v := agg.Aggregate(dists)
	*buf = dists
	distsPool.Put(buf)
	return v, nil
}

// aggWithin aggregates the pairwise distances among groups. Fewer
// than two groups have no pairs and return ErrDegeneratePartition —
// the bug this replaces scored such degenerate candidates as
// perfectly fair. For max/min aggregates under the closed-form EMD,
// pairs that provably cannot change the aggregate are skipped (see
// aggWithinPruned).
func (e *engine) aggWithin(groups []partition.Group) (float64, error) {
	agg := e.measure.Agg
	if agg == nil {
		agg = fairness.Average{}
	}
	if len(groups) < 2 {
		return 0, fmt.Errorf("core: %w", ErrDegeneratePartition)
	}
	if v, ok, err := e.aggWithinPruned(groups); ok {
		return v, err
	}
	buf := distsPool.Get().(*[]float64)
	dists := (*buf)[:0]
	for i := 0; i < len(groups); i++ {
		for j := i + 1; j < len(groups); j++ {
			d, err := e.groupDistance(groups[i], groups[j])
			if err != nil {
				*buf = dists
				distsPool.Put(buf)
				return 0, err
			}
			dists = append(dists, d)
		}
	}
	v := agg.Aggregate(dists)
	*buf = dists
	distsPool.Put(buf)
	return v, nil
}

// aggWithinPruned computes a max or min pairwise aggregate without
// solving every pair, and reports whether it applied. It requires the
// closed-form 1-D EMD (a true metric on equal-mass histograms, with
// the |Δmean|·w lower bound of emd.Hist1DLowerBound): the distances
// from group 0 to every other group are solved exactly — real pairs,
// counted as usual — and every remaining pair (i,j) is first bounded
// by
//
//	|D(0,i) − D(0,j)|  ≤  D(i,j)  ≤  D(0,i) + D(0,j)   (triangle)
//	|μᵢ − μⱼ|·w        ≤  D(i,j)                        (mean bound)
//
// A pair whose upper bound cannot exceed the running max (resp. whose
// lower bound cannot undercut the running min) is skipped. Bounds are
// slackened by emd.BoundMargin so floating-point rounding can never
// prune a pair real arithmetic would keep, and the aggregate is the
// max/min over a distance set that provably contains the extremum —
// bit-identical to aggregating all pairs.
func (e *engine) aggWithinPruned(groups []partition.Group) (float64, bool, error) {
	if e.linearW <= 0 || (e.aggKind != aggMax && e.aggKind != aggMin) || len(groups) < 3 {
		return 0, false, nil
	}
	n := len(groups)
	ref := make([]float64, n)
	means := make([]float64, n)
	for i, g := range groups {
		h, err := e.histOf(g)
		if err != nil {
			return 0, true, err
		}
		means[i] = emd.MeanIndex(h.Counts)
		if i > 0 {
			if ref[i], err = e.groupDistance(groups[0], g); err != nil {
				return 0, true, err
			}
		}
	}
	isMax := e.aggKind == aggMax
	best := ref[1]
	for _, d := range ref[2:] {
		if (isMax && d > best) || (!isMax && d < best) {
			best = d
		}
	}
	for i := 1; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if isMax {
				ub := ref[i] + ref[j]
				if ub+emd.BoundMargin(ub) <= best {
					e.prunedPairs.Add(1)
					continue
				}
			} else {
				lb := emd.Hist1DLowerBound(means[i], means[j], e.linearW)
				if tri := math.Abs(ref[i] - ref[j]); tri > lb {
					lb = tri
				}
				if lb-emd.BoundMargin(lb) >= best {
					e.prunedPairs.Add(1)
					continue
				}
			}
			d, err := e.groupDistance(groups[i], groups[j])
			if err != nil {
				return 0, true, err
			}
			if (isMax && d > best) || (!isMax && d < best) {
				best = d
			}
		}
	}
	return best, true, nil
}

// statsSnapshot reads the work counters into a Stats value.
func (e *engine) statsSnapshot() Stats {
	return Stats{
		DistanceEvals:   int(e.distEvals.Load()),
		CachedDistances: int(e.cachedDists.Load()),
		ReusedDistances: int(e.reusedDists.Load()),
		PrunedPairs:     int(e.prunedPairs.Load()),
		SplitsEvaluated: int(e.splitsEvaluated.Load()),
		Partitionings:   e.partitionings,
	}
}

// better reports whether candidate improves on incumbent under the
// configured objective.
func (e *engine) better(candidate, incumbent float64) bool {
	if e.cfg.Objective == LeastUnfair {
		return candidate < incumbent
	}
	return candidate > incumbent
}

// finalize computes Definition 2 on the final groups and assembles
// the Result. The O(leaves²) pairwise breakdown deliberately bypasses
// the groupDistance memo: for the default closed-form 5-bin EMD,
// computing a distance is cheaper than building its cache key
// (routing this matrix through the memo measured 12× slower on
// BenchmarkQuantify), and most leaf pairs never recur in the search.
// Instead the whole breakdown is memoized per ordered leaf set — a
// warm repeat returns it outright, and a re-quantify after a score
// edit patches only the pairs with a dirty endpoint from the
// predecessor scope's breakdown (see computeFinal).
func (e *engine) finalize(tree *partition.Tree, groups []partition.Group) (*Result, error) {
	key := leafSetKey(groups)
	fb, err := e.scope.finals.entry(key).do(func() (finalBreakdown, error) {
		return e.computeFinal(key, groups)
	})
	if err != nil {
		return nil, err
	}
	return &Result{
		Tree:       tree,
		Groups:     groups,
		Hists:      fb.hists,
		Pairwise:   fb.pairs,
		Unfairness: fb.unfairness,
		Objective:  e.cfg.Objective,
		Measure:    e.measure,
		Stats:      e.statsSnapshot(),
	}, nil
}

// leafSetKey renders an ordered leaf set as one string key
// (length-prefixed canonical group keys, so no concatenation of
// distinct sets can collide).
func leafSetKey(groups []partition.Group) string {
	var b strings.Builder
	for _, g := range groups {
		k := string(g.Key())
		fmt.Fprintf(&b, "%d:", len(k))
		b.WriteString(k)
	}
	return b.String()
}

// computeFinal produces the final breakdown for one ordered leaf set.
// When the predecessor scope finalized the same leaf set, only the
// pairs with an endpoint containing dirty rows are re-solved; clean
// pairs keep the predecessor's bit-identical distances and the
// aggregate is recomputed over the full vector (identical inputs in
// identical order, so an all-clean leaf set reuses the predecessor's
// breakdown wholesale).
func (e *engine) computeFinal(key string, groups []partition.Group) (finalBreakdown, error) {
	fb := finalBreakdown{hists: make([]histogram.Hist, len(groups))}
	var pe finalBreakdown
	var dirtyLeaf []bool
	if e.prev != nil && e.diff() {
		if cand, ok := e.prev.finals.done(key); ok && len(cand.dists) == len(groups)*(len(groups)-1)/2 {
			pe = cand
			dirtyLeaf = make([]bool, len(groups))
		}
	}
	anyDirty := false
	for i, g := range groups {
		h, err := e.histOf(g)
		if err != nil {
			return finalBreakdown{}, err
		}
		fb.hists[i] = h
		if dirtyLeaf != nil {
			dirtyLeaf[i] = !e.groupClean(g)
			anyDirty = anyDirty || dirtyLeaf[i]
		}
	}
	if dirtyLeaf != nil {
		if !anyDirty {
			pe.hists = fb.hists
			return pe, nil
		}
		var err error
		fb.pairs, fb.dists, fb.unfairness, err = e.measure.BreakdownPatched(fb.hists, pe.dists, dirtyLeaf)
		if err == nil {
			return fb, nil
		}
		// Any patch failure falls through to the full breakdown.
	}
	var err error
	fb.pairs, fb.unfairness, err = e.measure.Breakdown(fb.hists)
	if err != nil {
		return finalBreakdown{}, err
	}
	fb.dists = make([]float64, len(fb.pairs))
	for i, p := range fb.pairs {
		fb.dists[i] = p.Distance
	}
	return fb, nil
}
