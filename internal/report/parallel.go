package report

import (
	"fmt"
	"runtime"
	"sort"

	"repro/internal/core"
	"repro/internal/marketplace"
)

// AuditParallel quantifies every job of a marketplace under cfg over a
// bounded pool of goroutines and returns one JobAudit per job. Audits
// across a
// marketplace's jobs are independent (each scores and partitions the
// same immutable worker dataset), so a real deployment auditing a
// platform with hundreds of jobs wants them concurrent; this is the
// scaling path for the AUDITOR scenario. Results come back in job
// order regardless of completion order.
//
// workers <= 0 selects GOMAXPROCS.
func AuditParallel(m *marketplace.Marketplace, cfg core.Config, workers int) ([]JobAudit, error) {
	if m == nil || len(m.Jobs) == 0 {
		return nil, fmt.Errorf("report: marketplace has no jobs to audit")
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(m.Jobs) {
		workers = len(m.Jobs)
	}

	type indexed struct {
		idx   int
		audit JobAudit
		err   error
	}
	jobs := make(chan int)
	results := make(chan indexed, len(m.Jobs))
	for w := 0; w < workers; w++ {
		go func() {
			for idx := range jobs {
				job := m.Jobs[idx]
				audit, err := auditOneJob(m, job, cfg)
				results <- indexed{idx: idx, audit: audit, err: err}
			}
		}()
	}
	go func() {
		for i := range m.Jobs {
			jobs <- i
		}
		close(jobs)
	}()

	out := make([]JobAudit, len(m.Jobs))
	var firstErr error
	for range m.Jobs {
		r := <-results
		if r.err != nil && firstErr == nil {
			firstErr = r.err
		}
		out[r.idx] = r.audit
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// auditOneJob quantifies a single job — the unit of work of the audit
// pool.
func auditOneJob(m *marketplace.Marketplace, job marketplace.Job, cfg core.Config) (JobAudit, error) {
	scores, err := job.Function.Score(m.Workers)
	if err != nil {
		return JobAudit{}, fmt.Errorf("report: scoring job %q: %w", job.Name, err)
	}
	res, err := core.Quantify(m.Workers, scores, cfg)
	if err != nil {
		return JobAudit{}, fmt.Errorf("report: quantifying job %q: %w", job.Name, err)
	}
	most, least := FavoredGroups(res, scores)
	return JobAudit{
		Job:          job.Name,
		Function:     job.Function.String(),
		Unfairness:   res.Unfairness,
		Partitions:   len(res.Groups),
		MostFavored:  most,
		LeastFavored: least,
		Elapsed:      res.Stats.Elapsed,
		Result:       res,
		Scores:       scores,
	}, nil
}

// RankJobsByUnfairness returns the audited jobs sorted most-unfair
// first — the ordering an auditor's report leads with.
func RankJobsByUnfairness(audits []JobAudit) []JobAudit {
	out := append([]JobAudit(nil), audits...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Unfairness > out[j].Unfairness })
	return out
}
