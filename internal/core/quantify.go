package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/dataset"
	"repro/internal/obsv"
	"repro/internal/partition"
)

// Quantify runs the paper's Algorithm 1 (QUANTIFY): a greedy recursive
// search for an unfair partitioning of d's individuals under the given
// scores.
//
// Following the paper: the population is first split on its most
// unfair attribute; then each partition recursively decides whether to
// split further by comparing the aggregated distance of the partition
// to its siblings against the aggregated distance of its prospective
// children to those same siblings (Algorithm 1 lines 4-9). On a
// split, each child recurses with the other children as its sibling
// set and the used attribute removed (line 13). For the least-unfair
// objective the comparison flips, as §3.2 notes ("other formulations
// require to change this test only").
//
// The recursion fans out over a bounded pool of cfg.Workers goroutines
// (sibling subtrees, candidate splits and TryAllRoots restarts run
// concurrently) and memoizes histograms, split evaluations and
// pairwise distances in a single-flight cache (see Cache). All
// comparisons are resolved in deterministic candidate order after the
// parallel phase, so the result is bit-identical for every worker
// count.
func Quantify(d *dataset.Dataset, scores []float64, cfg Config) (*Result, error) {
	return QuantifyContext(context.Background(), d, scores, cfg)
}

// QuantifyContext is Quantify bounded by a context: when ctx is
// canceled or its deadline passes, the search stops dispatching work
// at worker-pool granularity (between subtree recursions, candidate
// splits, restarts and finalization) and returns ctx's error. A
// canceled run leaves any shared Config.Cache consistent — entries are
// either fully computed or never started — so retrying the same
// request produces a result bit-identical to a cold run.
func QuantifyContext(ctx context.Context, d *dataset.Dataset, scores []float64, cfg Config) (*Result, error) {
	// The span wraps the whole run and annotates it with the solver
	// counters afterwards; instrumentation never reaches inside the
	// memoized computations (same rule as cancellation). With no
	// active trace the cost is one context lookup.
	ctx, sp := obsv.StartSpan(ctx, "core.quantify")
	res, err := quantifyContext(ctx, d, scores, cfg)
	finishSolverSpan(sp, res, err)
	return res, err
}

func quantifyContext(ctx context.Context, d *dataset.Dataset, scores []float64, cfg Config) (*Result, error) {
	start := time.Now()
	e, err := newEngine(d, scores, cfg)
	if err != nil {
		return nil, err
	}
	e.ctx = ctx
	defer e.release()
	if err := e.ctxErr(); err != nil {
		return nil, err
	}
	rootGroup := partition.Root(d)
	splittable, err := e.splittableAttrs(rootGroup, e.cfg.Attributes)
	if err != nil {
		return nil, err
	}

	if len(splittable) == 0 {
		// Nothing to split on: the trivial single-partition result.
		tree := &partition.Tree{Root: &partition.Node{Group: rootGroup}, NumRows: d.Len()}
		res, err := e.finalize(tree, tree.LeafGroups())
		if err != nil {
			return nil, err
		}
		res.Stats.Elapsed = time.Since(start)
		return res, nil
	}

	// Root candidates: Algorithm 1 uses only the most unfair
	// attribute; TryAllRoots restarts the recursion from every
	// splittable attribute and keeps the best final partitioning.
	var rootAttrs []string
	if e.cfg.TryAllRoots {
		rootAttrs = splittable
	} else {
		attr, _, err := e.mostUnfairAttr(rootGroup, splittable)
		if err != nil {
			return nil, err
		}
		rootAttrs = []string{attr}
	}

	results := make([]*Result, len(rootAttrs))
	err = e.runParallel(len(rootAttrs), func(i int) error {
		if err := e.ctxErr(); err != nil {
			return err
		}
		tree, err := e.buildTree(rootGroup, rootAttrs[i], d.Len())
		if err != nil {
			return err
		}
		res, err := e.finalize(tree, tree.LeafGroups())
		if err != nil {
			return err
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	var best *Result
	for _, res := range results {
		if best == nil || e.better(res.Unfairness, best.Unfairness) {
			best = res
		}
	}
	best.Stats = e.statsSnapshot()
	best.Stats.Elapsed = time.Since(start)
	return best, nil
}

// buildTree grows one greedy partitioning tree rooted at a split on
// rootAttr, running Algorithm 1's recursion below it.
func (e *engine) buildTree(rootGroup partition.Group, rootAttr string, numRows int) (*partition.Tree, error) {
	rootNode := &partition.Node{Group: rootGroup, SplitAttr: rootAttr}
	tree := &partition.Tree{Root: rootNode, NumRows: numRows}
	children, err := e.splitChildren(rootGroup, rootAttr)
	if err != nil {
		return nil, err
	}
	for _, g := range children {
		rootNode.Children = append(rootNode.Children, &partition.Node{Group: g})
	}
	if e.cfg.MaxDepth != 1 {
		remaining := without(e.cfg.Attributes, rootAttr)
		err := e.runParallel(len(rootNode.Children), func(i int) error {
			return e.quantify(rootNode.Children[i], otherGroups(children, i), remaining, 2)
		})
		if err != nil {
			return nil, err
		}
	}
	// Validation is memoized per dataset: a leaf set with the same
	// canonical keys holds the same rows, so one pass settles it for
	// every later run (warm re-quantifies skip the O(rows) scan). A
	// failure is memoized too: Validate is a pure function of the rows.
	_, err = e.dscope.validated.entry(leafSetKey(tree.LeafGroups())).do(func() (struct{}, error) {
		return struct{}{}, tree.Validate()
	})
	if err != nil {
		return nil, fmt.Errorf("core: solver produced invalid tree: %w", err)
	}
	return tree, nil
}

// quantify is the recursive step of Algorithm 1. node is "current",
// siblings the sibling groups, avail the unused attributes; depth is
// the depth children would occupy.
func (e *engine) quantify(node *partition.Node, siblings []partition.Group, avail []string, depth int) error {
	if err := e.ctxErr(); err != nil {
		return err
	}
	if e.cfg.MaxDepth > 0 && depth > e.cfg.MaxDepth {
		return nil // leaf by depth bound
	}
	splittable, err := e.splittableAttrs(node.Group, avail)
	if err != nil {
		return err
	}
	if len(splittable) == 0 {
		return nil // leaf: A = ∅ (line 1-2)
	}
	// Line 4: currentAvg = agg distance of current to its siblings.
	currentVal, err := e.aggAcross([]partition.Group{node.Group}, siblings)
	if err != nil {
		return err
	}
	// Line 5: the most unfair attribute for this group.
	attr, children, err := e.mostUnfairAttr(node.Group, splittable)
	if err != nil {
		return err
	}
	// Line 8: childrenAvg = agg distance of children to the siblings.
	childrenVal, err := e.aggAcross(children, siblings)
	if err != nil {
		return err
	}
	// Line 9: keep current unless the children are strictly worse
	// (resp. better for least-unfair).
	if !e.better(childrenVal, currentVal) {
		return nil
	}
	node.SplitAttr = attr
	remaining := without(avail, attr)
	for _, g := range children {
		node.Children = append(node.Children, &partition.Node{Group: g})
	}
	// Lines 12-14: recurse per child with the other children as
	// siblings, sibling subtrees in parallel.
	return e.runParallel(len(node.Children), func(i int) error {
		return e.quantify(node.Children[i], otherGroups(children, i), remaining, depth+1)
	})
}

// mostUnfairAttr scores each candidate attribute by the aggregated
// pairwise distance among the children its split would create, and
// returns the best under the objective (argmax for most-unfair,
// argmin for least-unfair), together with those children. Candidates
// are evaluated concurrently (memoized via evalSplit), then compared
// in candidate order, so ties keep the earliest attribute
// (deterministic).
func (e *engine) mostUnfairAttr(g partition.Group, candidates []string) (string, []partition.Group, error) {
	if len(candidates) == 0 {
		return "", nil, fmt.Errorf("core: no splittable attributes for %q", g.Label())
	}
	children := make([][]partition.Group, len(candidates))
	vals := make([]float64, len(candidates))
	err := e.runParallel(len(candidates), func(i int) error {
		// Checked here, outside evalSplit's memoized computation, so a
		// canceled run aborts between candidates without poisoning the
		// split-score cache.
		if err := e.ctxErr(); err != nil {
			return err
		}
		var err error
		children[i], vals[i], err = e.evalSplit(g, candidates[i])
		return err
	})
	if err != nil {
		return "", nil, err
	}
	best := 0
	for i := 1; i < len(candidates); i++ {
		if e.better(vals[i], vals[best]) {
			best = i
		}
	}
	return candidates[best], children[best], nil
}

// without returns attrs minus drop, preserving order.
func without(attrs []string, drop string) []string {
	out := make([]string, 0, len(attrs)-1)
	for _, a := range attrs {
		if a != drop {
			out = append(out, a)
		}
	}
	return out
}

// otherGroups returns all groups except the i-th.
func otherGroups(groups []partition.Group, i int) []partition.Group {
	out := make([]partition.Group, 0, len(groups)-1)
	out = append(out, groups[:i]...)
	out = append(out, groups[i+1:]...)
	return out
}
