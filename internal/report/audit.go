package report

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/marketplace"
	"repro/internal/scoring"
)

// JobAudit is the auditor's finding for one job of a marketplace: its
// most unfair partitioning and the groups it favors — the per-job row
// of the "fairness report" the AUDITOR scenario drafts (paper §4).
type JobAudit struct {
	Job          string
	Function     string
	Unfairness   float64
	Partitions   int
	MostFavored  string
	LeastFavored string
	Elapsed      time.Duration
	Result       *core.Result
	Scores       []float64
}

// AuditMarketplace quantifies every job of a marketplace under cfg,
// one job at a time, and returns one JobAudit per job, in the
// marketplace's job order — AuditParallel with a single worker.
func AuditMarketplace(m *marketplace.Marketplace, cfg core.Config) ([]JobAudit, error) {
	return AuditParallel(m, cfg, 1)
}

// AuditRankOnly repeats an audit in the rank-only transparency
// setting: the auditor sees each job's ranking but not its scoring
// function, so pseudo-scores derived from ranks replace true scores.
func AuditRankOnly(m *marketplace.Marketplace, cfg core.Config) ([]JobAudit, error) {
	if m == nil || len(m.Jobs) == 0 {
		return nil, fmt.Errorf("report: marketplace has no jobs to audit")
	}
	audits := make([]JobAudit, 0, len(m.Jobs))
	for _, job := range m.Jobs {
		scores, err := job.Function.Score(m.Workers)
		if err != nil {
			return nil, fmt.Errorf("report: scoring job %q: %w", job.Name, err)
		}
		pseudo, err := scoring.PseudoScores(scores)
		if err != nil {
			return nil, fmt.Errorf("report: ranking job %q: %w", job.Name, err)
		}
		res, err := core.Quantify(m.Workers, pseudo, cfg)
		if err != nil {
			return nil, fmt.Errorf("report: quantifying job %q: %w", job.Name, err)
		}
		most, least := FavoredGroups(res, pseudo)
		audits = append(audits, JobAudit{
			Job:          job.Name,
			Function:     "[hidden — ranking only]",
			Unfairness:   res.Unfairness,
			Partitions:   len(res.Groups),
			MostFavored:  most,
			LeastFavored: least,
			Elapsed:      res.Stats.Elapsed,
			Result:       res,
			Scores:       pseudo,
		})
	}
	return audits, nil
}

// AuditTable renders a batch audit — the quantify → mitigate →
// re-audit loop over every job — for the terminal: the per-job
// before/after fairness and utility-loss table, then the
// marketplace-level rollups (worst jobs, attribute hotspots,
// infeasible tally, means).
func AuditTable(r *audit.Report) (string, error) {
	if r == nil || len(r.Jobs) == 0 {
		return "", fmt.Errorf("report: empty audit report")
	}
	var b strings.Builder
	fmt.Fprintf(&b, "MARKETPLACE AUDIT — %q (%d jobs, strategy %s, top-%d)\n\n",
		r.Marketplace, len(r.Jobs), r.Strategy, r.K)

	rows := make([][]string, 0, len(r.Jobs))
	for _, j := range r.Jobs {
		if j.Infeasible {
			rows = append(rows, []string{
				j.Job,
				fmt.Sprintf("%.4f", j.QuantifiedBefore), "infeasible",
				fmt.Sprintf("%.4f", j.Before.ParityGap), "—",
				"—", "—",
			})
			continue
		}
		rows = append(rows, []string{
			j.Job,
			fmt.Sprintf("%.4f", j.QuantifiedBefore), fmt.Sprintf("%.4f", j.QuantifiedAfter),
			fmt.Sprintf("%.4f", j.Before.ParityGap), fmt.Sprintf("%.4f", j.After.ParityGap),
			fmt.Sprintf("%.4f", j.Utility.NDCG), fmt.Sprintf("%.4f", j.Utility.MeanDisplacement),
		})
	}
	b.WriteString(TextTable(
		[]string{"job", "unfair before", "unfair after", fmt.Sprintf("gap@%d before", r.K), "gap after", fmt.Sprintf("NDCG@%d", r.K), "score displ."},
		rows,
	))

	fmt.Fprintf(&b, "\nworst %d job(s): %s\n", len(r.Worst), strings.Join(r.Worst, ", "))
	if len(r.Hotspots) > 0 {
		parts := make([]string, 0, len(r.Hotspots))
		for _, h := range r.Hotspots {
			parts = append(parts, fmt.Sprintf("%s (%d)", h.Attribute, h.Jobs))
		}
		fmt.Fprintf(&b, "hotspot attributes: %s\n", strings.Join(parts, ", "))
	}
	if r.Infeasible > 0 {
		fmt.Fprintf(&b, "infeasible targets: %d of %d jobs\n", r.Infeasible, len(r.Jobs))
	}
	fmt.Fprintf(&b, "mean unfairness   : %.4f -> %.4f\n", r.MeanUnfairnessBefore, r.MeanUnfairnessAfter)
	fmt.Fprintf(&b, "mean top-%d gap    : %.4f -> %.4f\n", r.K, r.MeanParityGapBefore, r.MeanParityGapAfter)
	fmt.Fprintf(&b, "utility cost      : NDCG@%d %.4f, mean score displacement %.4f\n",
		r.K, r.MeanNDCG, r.MeanDisplacement)
	if r.MeanExpectedRatio > 0 {
		fmt.Fprintf(&b, "expected exposure : mean worst ratio %.4f in expectation (stochastic strategy; per-sample ratios vary)\n",
			r.MeanExpectedRatio)
	}
	return b.String(), nil
}

// AuditDiffTable renders a longitudinal audit diff — what moved
// between two audits of the same configuration — for the terminal:
// the changed jobs with their fairness and utility deltas, the
// feasibility flips, added/removed jobs, and the marketplace-level
// mean movements. A stable diff renders as a one-line all-clear.
func AuditDiffTable(d *audit.Diff) (string, error) {
	if d == nil {
		return "", fmt.Errorf("report: nil audit diff")
	}
	var b strings.Builder
	fmt.Fprintf(&b, "AUDIT DIFF — strategy %s, top-%d (%d jobs compared)\n\n",
		d.Strategy, d.K, len(d.Jobs))
	if d.Stable() {
		b.WriteString("no drift: every job reproduces the stored audit exactly\n")
		return b.String(), nil
	}

	delta := func(v float64) string {
		return fmt.Sprintf("%+.4f", v)
	}
	rows := make([][]string, 0, d.Changed)
	for _, jd := range d.Jobs {
		if !jd.Changed {
			continue
		}
		status := "drifted"
		switch {
		case jd.NowInfeasible && !jd.WasInfeasible:
			status = "newly infeasible"
		case jd.WasInfeasible && !jd.NowInfeasible:
			status = "now feasible"
		case jd.Regressed:
			status = "regressed"
		case jd.Improved:
			status = "improved"
		}
		after := fmt.Sprintf("%.4f -> %.4f", jd.OldAfter, jd.NewAfter)
		if jd.NowInfeasible {
			after = fmt.Sprintf("%.4f -> infeasible", jd.OldAfter)
		}
		rows = append(rows, []string{
			jd.Job,
			fmt.Sprintf("%.4f -> %.4f", jd.OldBefore, jd.NewBefore),
			after,
			delta(jd.DeltaParityGapAfter),
			delta(jd.DeltaNDCG),
			status,
		})
	}
	b.WriteString(TextTable(
		[]string{"job", "unfair before", "unfair after", "Δ gap", "Δ NDCG", "status"},
		rows,
	))

	unchanged := len(d.Jobs) - d.Changed
	fmt.Fprintf(&b, "\n%d job(s) changed, %d unchanged\n", d.Changed, unchanged)
	if len(d.Regressed) > 0 {
		fmt.Fprintf(&b, "regressed: %s\n", strings.Join(d.Regressed, ", "))
	}
	if len(d.Improved) > 0 {
		fmt.Fprintf(&b, "improved : %s\n", strings.Join(d.Improved, ", "))
	}
	if len(d.NewlyInfeasible) > 0 {
		fmt.Fprintf(&b, "newly infeasible: %s\n", strings.Join(d.NewlyInfeasible, ", "))
	}
	if len(d.NowFeasible) > 0 {
		fmt.Fprintf(&b, "now feasible: %s\n", strings.Join(d.NowFeasible, ", "))
	}
	if len(d.Added) > 0 {
		fmt.Fprintf(&b, "added jobs  : %s\n", strings.Join(d.Added, ", "))
	}
	if len(d.Removed) > 0 {
		fmt.Fprintf(&b, "removed jobs: %s\n", strings.Join(d.Removed, ", "))
	}
	fmt.Fprintf(&b, "Δ mean unfairness after: %s\n", delta(d.DeltaMeanUnfairnessAfter))
	fmt.Fprintf(&b, "Δ mean top-%d gap after : %s\n", d.K, delta(d.DeltaMeanParityGapAfter))
	fmt.Fprintf(&b, "Δ mean NDCG@%d          : %s\n", d.K, delta(d.DeltaMeanNDCG))
	return b.String(), nil
}

// RenderAudit renders the auditor's marketplace-wide fairness report.
func RenderAudit(marketplaceName string, audits []JobAudit) string {
	var b strings.Builder
	fmt.Fprintf(&b, "FAIRNESS REPORT — marketplace %q\n\n", marketplaceName)
	rows := make([][]string, 0, len(audits))
	for _, a := range audits {
		rows = append(rows, []string{
			a.Job,
			fmt.Sprintf("%.4f", a.Unfairness),
			fmt.Sprintf("%d", a.Partitions),
			a.MostFavored,
			a.LeastFavored,
		})
	}
	b.WriteString(TextTable(
		[]string{"job", "unfairness", "groups", "most favored", "least favored"},
		rows,
	))
	// Rank jobs by unfairness for the headline.
	worst, worstVal := "", -1.0
	for _, a := range audits {
		if a.Unfairness > worstVal {
			worst, worstVal = a.Job, a.Unfairness
		}
	}
	fmt.Fprintf(&b, "\nmost problematic job: %q (unfairness %.4f)\n", worst, worstVal)
	return b.String()
}
