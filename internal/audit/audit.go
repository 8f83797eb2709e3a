// Package audit runs FaiRank's explore-and-repair loop over a whole
// marketplace at once: every job is quantified, mitigated and
// re-quantified (quantify → mitigate → re-audit), and the per-job
// findings roll up into one marketplace-level Report.
//
// This is the batch form of the AUDITOR scenario (paper §4). Geyik et
// al. (KDD 2019) deployed fairness-aware re-ranking fleet-wide over
// every LinkedIn Talent Search query rather than one query at a time;
// this package is that scaling step for FaiRank — audit every job of
// a platform in one call, report which jobs are hotspots, what the
// repair buys (fairness deltas) and what it costs (NDCG@k and score
// displacement, per Singh & Joachims' utility framing).
//
// Jobs fan out over a bounded worker pool; each per-job loop is
// independent work against the same immutable population, and all
// engine runs share one memoization Cache (Config.Cache; the runner
// installs one when the caller didn't), so a re-audit of the same
// marketplace — the "did the repair stick?" pass — skips the
// histogram, split and EMD work of the first. Results are
// bit-identical for every Workers count and invariant under job-list
// permutation: per-job work writes only its own slot, and every
// rollup is computed in a canonical order.
package audit

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/faultinject"
	"repro/internal/marketplace"
	"repro/internal/mitigate"
	"repro/internal/obsv"
)

// Options configures a batch audit on top of the solver Config.
type Options struct {
	// Strategy names the mitigation strategy applied to every job:
	// any name in mitigate.Strategies(); "" selects "fair".
	Strategy string
	// K is the top-k prefix the representation constraints and the
	// parity/utility metrics apply to (0 = min(10, n)).
	K int
	// TopN bounds the worst-jobs rollup (0 = min(5, jobs)).
	TopN int
	// Workers bounds how many jobs are audited concurrently
	// (0 = GOMAXPROCS, 1 = sequential). Independent of Config.Workers,
	// which bounds the solver inside one job; the report is
	// bit-identical for every combination.
	Workers int
	// Alpha is the FA*IR family-wise significance level (default
	// 0.1), split across groups and exactly adjusted per group.
	Alpha float64
	// MinExposureRatio is the exposure floor of the "exposure" and
	// "exposure-lp" strategies (default 0.95).
	MinExposureRatio float64
	// Seed drives the "exposure-lp" sampling draw for every job
	// (default 1); deterministic strategies ignore it. One audit uses
	// one seed — per-job variation comes from each job's own LP
	// distribution, not from reseeding.
	Seed uint64
	// Targets maps group labels to target proportions, applied to
	// every job (empty derives population shares per job). Because the
	// same table is enforced marketplace-wide, it only makes sense
	// with a Config that discovers the same partitioning for every
	// job (e.g. Attributes plus MaxDepth 1); a job whose discovered
	// groups don't match the targets fails the audit. Targets no
	// ranking can satisfy count into the infeasible tally instead.
	Targets map[string]float64
	// Emit, when non-nil, streams per-job reports as the audit runs:
	// it is called exactly once per error-free job, in canonical
	// input order, from whichever worker completes the emit frontier.
	// Calls are serialized, and the emitted sequence is bit-identical
	// for every Workers count — the invariance every other audit
	// output already has. Jobs reused from a Baseline are emitted
	// like any other.
	Emit func(index int, job JobReport)
	// Baseline, when non-nil, turns the run into an incremental
	// re-audit: jobs whose name, function and score fingerprint match
	// the stored run are skipped entirely — no quantification, no
	// mitigation — and the stored JobReport is spliced in. The
	// baseline applies only when its Params match this run's
	// ParamsKey; see Report.Reused for how many jobs were skipped.
	Baseline *Baseline
	// Faults is the test-only fault-injection harness. When non-nil,
	// every job hits the "audit.job" site before it runs, so tests can
	// deterministically delay, fail, or cancel-at the Nth job. Nil in
	// production (one nil check per job); excluded from ParamsKey —
	// faults never change what a completed report says.
	Faults *faultinject.Injector
	// Obs, when non-nil, publishes audit progress into the registry:
	// run/job/reuse/infeasible counters and a per-job latency
	// histogram. Like Faults it is excluded from ParamsKey —
	// observability never changes what a completed report says — and
	// nil costs only nil-safe no-op metric calls.
	Obs *obsv.Registry
}

// ErrCanceled is returned by RunContext/RunRankingsContext when the
// context ends before the audit completes, alongside a partial Report
// of the jobs that did complete, so callers can persist a resumable
// snapshot of the work already paid for.
var ErrCanceled = errors.New("audit: canceled")

// Ranking is one named ranking to audit — a marketplace job's scores,
// or any externally observed ranking over the same population.
type Ranking struct {
	// Name identifies the ranking in the report. Names must be unique
	// within one audit.
	Name string
	// Function describes how the scores were produced (display only).
	Function string
	// Scores orders the population best-first, indexed by row.
	Scores []float64
}

// JobReport is one job's row of the marketplace audit: the fairness
// of its ranking before and after mitigation, and what the repair
// cost in ranking quality.
type JobReport struct {
	// Job and Function identify the audited ranking.
	Job      string
	Function string
	// Groups labels the partitioning under repair (the most unfair
	// partitioning of the original ranking), in group order;
	// Attributes lists the protected attributes it splits on, sorted.
	Groups     []string
	Attributes []string
	// Before and After compare the original and mitigated rankings on
	// that fixed partitioning (EMD unfairness over pseudo-scores,
	// top-k parity gap, worst exposure ratio). After is zero when
	// Infeasible.
	Before, After mitigate.Metrics
	// QuantifiedBefore is the unfairness of the discovered
	// partitioning; QuantifiedAfter re-runs the same search on the
	// mitigated ranking — the re-audit half of the loop (zero when
	// Infeasible).
	QuantifiedBefore, QuantifiedAfter float64
	// Utility is the repair's ranking-quality cost (zero when
	// Infeasible).
	Utility mitigate.Utility
	// Infeasible marks jobs whose representation targets no ranking
	// of the population can satisfy; Detail carries the constraint
	// that failed. The job still reports its before-side fairness.
	Infeasible bool
	Detail     string
	// Stochastic-strategy rollups, set only when the strategy produced
	// a distribution over rankings (exposure-lp): the per-group
	// expected exposure of the mixture (group order matches Groups),
	// the worst pairwise ratio of those expectations — the quantity the
	// LP floor certifies, distinct from After.ExposureRatio which
	// describes the single sampled realization — and how many
	// permutations the distribution supports. Omitted from JSON for
	// deterministic strategies so their stored reports are unchanged.
	ExpectedExposure    []float64 `json:",omitempty"`
	ExpectedRatio       float64   `json:",omitempty"`
	DistributionSupport int       `json:",omitempty"`
	// Reused marks jobs spliced in from an Options.Baseline without
	// re-running the loop. Excluded from the serialized form so an
	// incremental re-audit reproduces a stored report byte for byte.
	Reused bool `json:"-"`
}

// Improved reports whether mitigation strictly reduced the job's
// re-quantified unfairness.
func (j JobReport) Improved() bool {
	return !j.Infeasible && j.QuantifiedAfter < j.QuantifiedBefore
}

// Hotspot counts how many jobs' most-unfair partitionings split on a
// protected attribute — the marketplace-level "where does the bias
// live" rollup.
type Hotspot struct {
	Attribute string
	Jobs      int
}

// Report is a completed marketplace audit.
type Report struct {
	// Marketplace names the audited platform; Strategy and K echo the
	// resolved options.
	Marketplace string
	Strategy    string
	K           int
	// Jobs holds one report per audited ranking, in input order.
	Jobs []JobReport
	// Worst names the TopN jobs with the highest pre-mitigation
	// unfairness, worst first (ties by name).
	Worst []string
	// Hotspots counts, per protected attribute, the jobs whose
	// most-unfair partitioning splits on it, ordered by count
	// descending then attribute name.
	Hotspots []Hotspot
	// Infeasible counts jobs whose constraints could not be met.
	Infeasible int
	// Marketplace-level means over the feasible jobs (zero when every
	// job is infeasible): re-quantified unfairness before and after
	// mitigation, top-k parity gap before and after, and the utility
	// cost of the repairs.
	MeanUnfairnessBefore, MeanUnfairnessAfter float64
	MeanParityGapBefore, MeanParityGapAfter   float64
	MeanNDCG, MeanDisplacement                float64
	// MeanExpectedRatio is the mean worst expected-exposure ratio over
	// the feasible jobs, set only when the strategy is stochastic —
	// the marketplace-level form of the LP's in-expectation guarantee.
	// Omitted from JSON otherwise so deterministic snapshots are
	// unchanged.
	MeanExpectedRatio float64 `json:",omitempty"`
	// Reused counts jobs spliced in from an Options.Baseline without
	// re-running the loop; Elapsed is the wall-clock time of the
	// whole audit. Both are run artifacts, not findings, and are
	// excluded from the serialized form so that a report's JSON is
	// fully deterministic (snapshots of identical audits are byte
	// identical).
	Reused  int           `json:"-"`
	Elapsed time.Duration `json:"-"`
}

// Run audits every job of a marketplace: each job's ranking goes
// through the full quantify → mitigate → re-quantify loop and the
// findings roll up into one Report. cfg configures the quantification
// engine exactly as in core.Quantify; opts adds the mitigation and
// batching knobs.
func Run(m *marketplace.Marketplace, cfg core.Config, opts Options) (*Report, error) {
	return RunContext(context.Background(), m, cfg, opts)
}

// RunContext is Run bounded by a context: when ctx is canceled or its
// deadline passes, no further jobs are dispatched, in-flight jobs
// abort at worker-pool granularity (see core.QuantifyContext), and
// the call returns a partial Report of the completed jobs together
// with an error wrapping ErrCanceled.
func RunContext(ctx context.Context, m *marketplace.Marketplace, cfg core.Config, opts Options) (*Report, error) {
	rankings, err := Rankings(m)
	if err != nil {
		return nil, err
	}
	r, err := RunRankingsContext(ctx, m.Workers, rankings, cfg, opts)
	if r != nil {
		r.Marketplace = m.Name
	}
	return r, err
}

// Rankings scores every job of a marketplace into the named-ranking
// form RunRankings audits — the step Run performs implicitly, exposed
// for callers that also need the score vectors themselves (snapshot
// fingerprints, incremental baselines).
func Rankings(m *marketplace.Marketplace) ([]Ranking, error) {
	if m == nil || len(m.Jobs) == 0 {
		return nil, fmt.Errorf("audit: marketplace has no jobs to audit")
	}
	rankings := make([]Ranking, len(m.Jobs))
	for i, job := range m.Jobs {
		scores, err := job.Function.Score(m.Workers)
		if err != nil {
			return nil, fmt.Errorf("audit: scoring job %q: %w", job.Name, err)
		}
		rankings[i] = Ranking{Name: job.Name, Function: job.Function.String(), Scores: scores}
	}
	return rankings, nil
}

// RunRankings audits a set of named rankings over one population —
// the generic entry point behind Run, for callers whose "jobs" are
// not marketplace.Job values (externally observed rankings, A/B
// variants of one function, ...).
func RunRankings(d *dataset.Dataset, rankings []Ranking, cfg core.Config, opts Options) (*Report, error) {
	return RunRankingsContext(context.Background(), d, rankings, cfg, opts)
}

// RunRankingsContext is RunRankings bounded by a context. Cancellation
// stops job dispatch and reaches into in-flight jobs (their quantify
// passes abort between memoized computations); the call returns the
// completed jobs as a partial Report alongside the ErrCanceled error —
// input order preserved, rollups computed over the completed subset —
// so the caller can snapshot it and resume later via
// Options.Baseline.
func RunRankingsContext(ctx context.Context, d *dataset.Dataset, rankings []Ranking, cfg core.Config, opts Options) (*Report, error) {
	start := time.Now()
	if d == nil || d.Len() == 0 {
		return nil, fmt.Errorf("audit: empty population")
	}
	if len(rankings) == 0 {
		return nil, fmt.Errorf("audit: no rankings to audit")
	}
	seen := make(map[string]bool, len(rankings))
	for i, r := range rankings {
		if r.Name == "" {
			return nil, fmt.Errorf("audit: ranking %d has no name", i)
		}
		if seen[r.Name] {
			return nil, fmt.Errorf("audit: duplicate ranking name %q", r.Name)
		}
		seen[r.Name] = true
		if len(r.Scores) != d.Len() {
			return nil, fmt.Errorf("audit: ranking %q has %d scores for %d individuals", r.Name, len(r.Scores), d.Len())
		}
	}
	strategy, err := mitigate.ByName(opts.Strategy)
	if err != nil {
		return nil, err
	}
	if opts.Workers < 0 {
		return nil, fmt.Errorf("audit: negative Workers %d", opts.Workers)
	}
	if opts.TopN < 0 {
		return nil, fmt.Errorf("audit: negative TopN %d", opts.TopN)
	}
	if opts.K < 0 {
		return nil, fmt.Errorf("audit: negative K %d (0 selects the min(10, n) default)", opts.K)
	}
	k := mitigate.DefaultK(opts.K, d.Len())
	// The run span parents every per-job span; the counters march as
	// jobs finish so an operator watching /metrics sees progress, not
	// just completions. Both are no-ops when unwired.
	ctx, span := obsv.StartSpan(ctx, "audit.run")
	defer span.End()
	span.Set("jobs", len(rankings))
	obs := newAuditMetrics(opts.Obs)
	obs.runs.Inc()
	if cfg.Cache == nil {
		// One cache for the whole batch: the per-job before/after
		// passes and any re-audit through the same Config share the
		// memoized histograms, splits and distances.
		cfg.Cache = core.NewCache()
	}

	workers := opts.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(rankings) {
		workers = len(rankings)
	}
	jobs := make([]JobReport, len(rankings))
	errs := make([]error, len(rankings))

	// Incremental re-audit: splice stored reports for every ranking
	// the baseline covers; only the rest go through the loop.
	var reused []bool
	if opts.Baseline != nil {
		params, perr := ParamsKey(cfg, opts)
		if perr != nil {
			return nil, perr
		}
		reused = opts.Baseline.plan(params, rankings, jobs)
	}
	skip := func(i int) bool { return reused != nil && reused[i] }

	// Streaming: jobs complete in scheduling order, but Emit must see
	// them in canonical input order so the stream is bit-identical
	// for every worker count. markDone advances a frontier over the
	// completed set and emits every contiguous finished job.
	var emitMu sync.Mutex
	emitted := 0
	finished := make([]bool, len(rankings))
	markDone := func(i int) {
		if opts.Emit == nil {
			return
		}
		emitMu.Lock()
		defer emitMu.Unlock()
		finished[i] = true
		for emitted < len(finished) && finished[emitted] {
			if errs[emitted] == nil {
				opts.Emit(emitted, jobs[emitted])
			}
			emitted++
		}
	}
	// completed[i] is set once job i has a full, error-free report —
	// run or spliced from the baseline. Each slot is written by one
	// goroutine and read only after the pool drains, and the partial
	// report on cancellation is built from exactly these slots.
	completed := make([]bool, len(rankings))
	runOne := func(i int) {
		t0 := time.Now()
		jobs[i], errs[i] = auditOne(ctx, d, rankings[i], cfg, opts, k)
		obs.jobSeconds.ObserveSeconds(int64(time.Since(t0)))
		completed[i] = errs[i] == nil
		if errs[i] == nil {
			obs.jobs.Inc()
			if jobs[i].Infeasible {
				obs.infeasible.Inc()
			}
		}
		markDone(i)
	}
	// cancelReturn builds the partial result: the completed jobs in
	// input order, rolled up over that subset, plus an error wrapping
	// ErrCanceled and the context's cause.
	cancelReturn := func() (*Report, error) {
		obs.canceled.Inc()
		span.Set("canceled", true)
		partial := &Report{Strategy: strategy.Name(), K: k}
		for i := range jobs {
			if !completed[i] {
				continue
			}
			partial.Jobs = append(partial.Jobs, jobs[i])
			if skip(i) {
				partial.Reused++
			}
		}
		rollup(partial, opts.TopN)
		partial.Elapsed = time.Since(start)
		return partial, fmt.Errorf("%w: %w", ErrCanceled, ctx.Err())
	}
	if workers <= 1 {
		for i := range rankings {
			if ctx.Err() != nil {
				return cancelReturn()
			}
			if skip(i) {
				completed[i] = true
				obs.jobs.Inc()
				obs.reused.Inc()
				markDone(i)
				continue
			}
			runOne(i)
		}
	} else {
		idx := make(chan int)
		done := make(chan struct{})
		for w := 0; w < workers; w++ {
			go func() {
				for i := range idx {
					runOne(i)
				}
				done <- struct{}{}
			}()
		}
		wasCanceled := false
		for i := range rankings {
			if ctx.Err() != nil {
				wasCanceled = true
				break
			}
			if skip(i) {
				completed[i] = true
				obs.jobs.Inc()
				obs.reused.Inc()
				markDone(i)
				continue
			}
			// Dispatch, but stop waiting for a free worker if the
			// caller cancels while every worker is busy. A Background
			// context's Done channel is nil and never fires, so the
			// select degrades to a plain send.
			select {
			case idx <- i:
			case <-ctx.Done():
				wasCanceled = true
			}
			if wasCanceled {
				break
			}
		}
		close(idx)
		for w := 0; w < workers; w++ {
			<-done
		}
		if wasCanceled {
			return cancelReturn()
		}
	}
	// A cancellation that lands after the last dispatch still aborts
	// in-flight jobs; their context errors are a cancellation, not a
	// job failure.
	if ctx.Err() != nil {
		return cancelReturn()
	}
	// First error in input order, independent of completion order.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	r := &Report{Strategy: strategy.Name(), K: k, Jobs: jobs}
	for i := range jobs {
		if skip(i) {
			r.Reused++
		}
	}
	rollup(r, opts.TopN)
	r.Elapsed = time.Since(start)
	span.Set("reused", r.Reused)
	return r, nil
}

// auditOne runs the full loop for one ranking. Infeasible constraint
// sets are a finding, not a failure: the job keeps its before-side
// fairness and is tallied, so one impossible target cannot sink a
// thousand-job audit.
func auditOne(ctx context.Context, d *dataset.Dataset, r Ranking, cfg core.Config, opts Options, k int) (JobReport, error) {
	// Per-job span: the finest granularity a request trace reaches.
	// The mitigate/quantify spans of this job nest under it.
	ctx, sp := obsv.StartSpan(ctx, "audit.job")
	defer sp.End()
	sp.Set("job", r.Name)
	// Fault-injection site: tests delay/fail/cancel here to pin a
	// fault to the Nth job deterministically. No-op when unarmed.
	if err := opts.Faults.HitContext(ctx, "audit.job"); err != nil {
		sp.Set("error", err.Error())
		return JobReport{}, fmt.Errorf("audit: job %q: %w", r.Name, err)
	}
	o, err := mitigate.EvaluateContext(ctx, d, r.Scores, cfg, mitigate.Options{
		Strategy:         opts.Strategy,
		K:                k,
		Targets:          opts.Targets,
		Alpha:            opts.Alpha,
		MinExposureRatio: opts.MinExposureRatio,
		Seed:             opts.Seed,
	})
	if err == nil {
		j := JobReport{
			Job:              r.Name,
			Function:         r.Function,
			Groups:           o.GroupLabels,
			Attributes:       groupAttrs(o.BeforeResult),
			Before:           o.Before,
			After:            o.After,
			QuantifiedBefore: o.BeforeResult.Unfairness,
			QuantifiedAfter:  o.AfterResult.Unfairness,
			Utility:          o.Utility,
		}
		if d := o.Distribution; d != nil {
			j.ExpectedExposure = d.ExpectedExposure
			j.ExpectedRatio = d.ExpectedRatio
			j.DistributionSupport = len(d.Rankings)
		}
		return j, nil
	}
	if !errors.Is(err, mitigate.ErrInfeasible) || o == nil {
		sp.Set("error", err.Error())
		return JobReport{}, fmt.Errorf("audit: job %q: %w", r.Name, err)
	}
	sp.Set("infeasible", true)

	// Infeasible: Evaluate's partial Outcome already carries the
	// before side, so the job is reported without redoing the
	// quantification.
	return JobReport{
		Job:              r.Name,
		Function:         r.Function,
		Groups:           o.GroupLabels,
		Attributes:       groupAttrs(o.BeforeResult),
		Before:           o.Before,
		QuantifiedBefore: o.BeforeResult.Unfairness,
		Infeasible:       true,
		Detail:           err.Error(),
	}, nil
}

// groupAttrs returns the sorted set of protected attributes the
// result's partitioning conditions on.
func groupAttrs(res *core.Result) []string {
	seen := map[string]bool{}
	for _, g := range res.Groups {
		for _, c := range g.Conds {
			seen[c.Attr] = true
		}
	}
	out := make([]string, 0, len(seen))
	for a := range seen {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// rollup fills the marketplace-level aggregates. Every aggregate is
// computed in a canonical order (sorted copies, name tie-breaks), so
// the rollup is invariant under permutation of the job list — not
// just equal up to float reordering.
func rollup(r *Report, topN int) {
	if topN == 0 {
		topN = 5
	}
	if topN > len(r.Jobs) {
		topN = len(r.Jobs)
	}

	order := make([]int, len(r.Jobs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ja, jb := r.Jobs[order[a]], r.Jobs[order[b]]
		if ja.QuantifiedBefore != jb.QuantifiedBefore {
			return ja.QuantifiedBefore > jb.QuantifiedBefore
		}
		return ja.Job < jb.Job
	})
	r.Worst = make([]string, 0, topN)
	for _, i := range order[:topN] {
		r.Worst = append(r.Worst, r.Jobs[i].Job)
	}

	counts := map[string]int{}
	for _, j := range r.Jobs {
		for _, a := range j.Attributes {
			counts[a]++
		}
	}
	r.Hotspots = make([]Hotspot, 0, len(counts))
	for a, c := range counts {
		r.Hotspots = append(r.Hotspots, Hotspot{Attribute: a, Jobs: c})
	}
	sort.Slice(r.Hotspots, func(a, b int) bool {
		if r.Hotspots[a].Jobs != r.Hotspots[b].Jobs {
			return r.Hotspots[a].Jobs > r.Hotspots[b].Jobs
		}
		return r.Hotspots[a].Attribute < r.Hotspots[b].Attribute
	})

	var ub, ua, pb, pa, nd, md, er []float64
	for _, j := range r.Jobs {
		if j.Infeasible {
			r.Infeasible++
			continue
		}
		ub = append(ub, j.QuantifiedBefore)
		ua = append(ua, j.QuantifiedAfter)
		pb = append(pb, j.Before.ParityGap)
		pa = append(pa, j.After.ParityGap)
		nd = append(nd, j.Utility.NDCG)
		md = append(md, j.Utility.MeanDisplacement)
		if j.DistributionSupport > 0 {
			er = append(er, j.ExpectedRatio)
		}
	}
	r.MeanUnfairnessBefore = meanSorted(ub)
	r.MeanUnfairnessAfter = meanSorted(ua)
	r.MeanParityGapBefore = meanSorted(pb)
	r.MeanParityGapAfter = meanSorted(pa)
	r.MeanNDCG = meanSorted(nd)
	r.MeanDisplacement = meanSorted(md)
	r.MeanExpectedRatio = meanSorted(er)
}

// meanSorted averages vals after sorting them, so the float summation
// order — and therefore the result, bit for bit — does not depend on
// the order jobs were listed in.
func meanSorted(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}
