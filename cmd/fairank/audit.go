package main

import (
	"flag"
	"fmt"
	"io"
	"strings"

	fairank "repro"
)

// runAudit audits a whole marketplace. With -strategy set it runs the
// full batch loop — quantify → mitigate → re-quantify every job over
// a bounded worker pool — and prints the rollup report (worst-N jobs,
// before/after fairness, NDCG@k utility loss). Without -strategy it
// keeps the quantify-only report of the plain AUDITOR scenario.
//
// -out persists the audit as a snapshot file; -diff re-audits
// incrementally against a stored snapshot — skipping every job whose
// scores did not change — and prints the longitudinal drift report.
func runAudit(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("audit", flag.ContinueOnError)
	preset := fs.String("preset", "crowdsourcing", "marketplace preset (crowdsourcing, taskrabbit, fiverr, qapa)")
	n := fs.Int("n", 2000, "population size")
	seed := fs.Uint64("seed", 1, "random seed")
	rankOnly := fs.Bool("rank-only", false, "audit from rankings only (quantify-only mode)")
	agg := fs.String("agg", "avg", "avg | max | min | variance")
	bins := fs.Int("bins", 5, "histogram bins")
	strategy := fs.String("strategy", "", "mitigate every job with this strategy and re-audit: "+strings.Join(fairank.MitigationStrategies(), " | ")+" (empty = quantify only)")
	k := fs.Int("k", 0, "top-k prefix for mitigation constraints and utility metrics (default min(10, n))")
	topN := fs.Int("top-n", 0, "worst-N jobs in the rollup (default min(5, jobs))")
	workers := fs.Int("workers", 0, "jobs audited concurrently (0 = all CPUs, 1 = sequential; report is identical)")
	targets := fs.String("targets", "", "comma-separated group=proportion targets enforced on every job (use with -attrs and -max-depth 1)")
	alpha := fs.Float64("alpha", 0.1, "FA*IR family-wise significance level, split across groups and exactly adjusted per group")
	minRatio := fs.Float64("min-ratio", 0.95, "exposure strategies: worst-group exposure ratio floor")
	mitigateSeed := fs.Uint64("mitigate-seed", 1, "exposure-lp: sampling seed used for every job (distinct from -seed, which generates the population)")
	attrs := fs.String("attrs", "", "comma-separated protected attributes to partition on")
	maxDepth := fs.Int("max-depth", 0, "maximum tree depth (0 = unlimited)")
	outPath := fs.String("out", "", "persist the audit as a snapshot file (batch mode only)")
	diffPath := fs.String("diff", "", "re-audit incrementally against this stored snapshot and print what drifted (batch mode only)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *k < 0 {
		return fmt.Errorf("-k must be non-negative, got %d (0 selects the min(10, n) default)", *k)
	}
	if *topN < 0 {
		return fmt.Errorf("-top-n must be non-negative, got %d (0 selects the min(5, jobs) default)", *topN)
	}
	if *workers < 0 {
		return fmt.Errorf("-workers must be non-negative, got %d (0 selects all CPUs)", *workers)
	}
	m, err := fairank.Preset(*preset, *n, *seed)
	if err != nil {
		return err
	}
	if *topN > len(m.Jobs) {
		return fmt.Errorf("-top-n %d exceeds the marketplace's %d job(s); pass at most %d (or 0 for the default)",
			*topN, len(m.Jobs), len(m.Jobs))
	}
	aggFn, err := fairank.AggregatorByName(*agg)
	if err != nil {
		return err
	}
	cfg := fairank.Config{
		Measure:    fairank.Measure{Agg: aggFn, Bins: *bins},
		Attributes: splitList(*attrs),
		MaxDepth:   *maxDepth,
	}

	if *outPath != "" || *diffPath != "" {
		if *strategy == "" {
			return fmt.Errorf("-out/-diff need the batch audit; pass -strategy (one of %s)",
				strings.Join(fairank.MitigationStrategies(), " | "))
		}
	}

	if *strategy != "" {
		if *rankOnly {
			return fmt.Errorf("-rank-only and -strategy are mutually exclusive (the batch audit already compares in rank space)")
		}
		targetMap, err := parseTargets(*targets)
		if err != nil {
			return err
		}
		opts := fairank.AuditOptions{
			Strategy:         *strategy,
			K:                *k,
			TopN:             *topN,
			Workers:          *workers,
			Targets:          targetMap,
			Alpha:            *alpha,
			MinExposureRatio: *minRatio,
			Seed:             *mitigateSeed,
		}
		rankings, err := fairank.MarketplaceRankings(m)
		if err != nil {
			return err
		}
		// The stored snapshot becomes the incremental baseline: every
		// job whose score vector (and parameters) did not change is
		// spliced in from disk instead of re-audited. A snapshot taken
		// under different parameters or over a different population
		// cannot be compared — that would misreport a config change as
		// longitudinal drift — so refuse it up front instead of after
		// a wasted full re-audit.
		datasetID := fmt.Sprintf("preset:%s/n=%d/seed=%d", *preset, *n, *seed)
		var prev *fairank.AuditSnapshot
		if *diffPath != "" {
			prev, err = fairank.ReadAuditSnapshotFile(*diffPath)
			if err != nil {
				return err
			}
			params, err := fairank.AuditParamsKey(cfg, opts)
			if err != nil {
				return err
			}
			if prev.Params != params {
				return fmt.Errorf("snapshot %s was audited under different parameters; re-run with the snapshot's configuration or take a new baseline with -out\n  snapshot: %s\n  this run: %s",
					*diffPath, prev.Params, params)
			}
			if prev.Dataset != datasetID {
				// Population drift is the longitudinal use case —
				// report it, but never splice reports across
				// populations (Baseline refuses the mismatch, so
				// nothing is reused) and say so.
				fmt.Fprintf(out, "note: snapshot %s covers population %s, this run is %s — nothing reused; the diff below is population drift\n\n",
					*diffPath, prev.Dataset, datasetID)
			}
			opts.Baseline = prev.Baseline(datasetID)
		}
		r, err := fairank.AuditRankings(m.Workers, rankings, cfg, opts)
		if err != nil {
			return err
		}
		r.Marketplace = m.Name
		text, err := fairank.RenderAuditReport(r)
		if err != nil {
			return err
		}
		fmt.Fprint(out, text)
		if prev != nil {
			fmt.Fprintf(out, "\nincremental re-audit: %d of %d job(s) reused from %s\n",
				r.Reused, len(r.Jobs), *diffPath)
			d, err := fairank.CompareAuditReports(prev.Report, r)
			if err != nil {
				return err
			}
			diffText, err := fairank.RenderAuditDiff(d)
			if err != nil {
				return err
			}
			fmt.Fprint(out, "\n"+diffText)
		}
		if *outPath != "" {
			datasetID := fmt.Sprintf("preset:%s/n=%d/seed=%d", *preset, *n, *seed)
			snap, err := fairank.NewAuditSnapshot(datasetID, cfg, opts, rankings, r)
			if err != nil {
				return err
			}
			if err := fairank.WriteAuditSnapshotFile(*outPath, snap); err != nil {
				return err
			}
			fmt.Fprintf(out, "\nsnapshot written to %s (config %s)\n", *outPath, snap.ID)
		}
		return nil
	}

	var audits []fairank.JobAudit
	if *rankOnly {
		audits, err = fairank.AuditRankOnly(m, cfg)
	} else {
		audits, err = fairank.AuditParallel(m, cfg, *workers)
	}
	if err != nil {
		return err
	}
	fmt.Fprint(out, fairank.RenderAudit(m.Name, audits))
	return nil
}
