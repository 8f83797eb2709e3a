package audit

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"

	"repro/internal/core"
)

// The streamed per-job sequence is the report: every job exactly
// once, in canonical input order, with rows identical to the final
// Report.Jobs — for every worker count.
func TestEmitCanonicalOrder(t *testing.T) {
	m := testMarketplace(t, 250)
	var want []JobReport
	for _, workers := range []int{1, 2, 8} {
		var got []JobReport
		var idx []int
		r, err := Run(m, core.Config{}, Options{
			Strategy: "detcons",
			Workers:  workers,
			Emit: func(i int, jr JobReport) {
				idx = append(idx, i)
				got = append(got, jr)
			},
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(r.Jobs) {
			t.Fatalf("workers=%d: emitted %d jobs, report has %d", workers, len(got), len(r.Jobs))
		}
		for i := range got {
			if idx[i] != i {
				t.Fatalf("workers=%d: emission %d carried index %d, want canonical order", workers, i, idx[i])
			}
			if !jobsEqual(got[i], r.Jobs[i]) {
				t.Errorf("workers=%d: emitted job %d differs from Report.Jobs[%d]", workers, i, i)
			}
		}
		if want == nil {
			want = got
			continue
		}
		for i := range got {
			if !jobsEqual(got[i], want[i]) {
				t.Errorf("workers=%d: emitted job %d differs from workers=1 stream", workers, i)
			}
		}
	}
}

// A canceled context aborts the run with ErrCanceled for every worker
// count; a live one changes nothing.
func TestCancel(t *testing.T) {
	m := testMarketplace(t, 250)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 2, 8} {
		_, err := RunContext(canceled, m, core.Config{}, Options{Strategy: "detcons", Workers: workers})
		if err == nil || !errorsIsCanceled(err) {
			t.Errorf("workers=%d: err = %v, want ErrCanceled", workers, err)
		}
	}
	// Mid-run cancellation: cancel from the first emit. Sequential on
	// purpose — the dispatch loop must notice before the second job,
	// deterministically.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := RunContext(ctx, m, core.Config{}, Options{
		Strategy: "detcons",
		Workers:  1,
		Emit:     func(int, JobReport) { cancel() },
	})
	if err == nil || !errorsIsCanceled(err) {
		t.Errorf("mid-run cancel: err = %v, want ErrCanceled", err)
	}
	if _, err := RunContext(context.Background(), m, core.Config{}, Options{Strategy: "detcons"}); err != nil {
		t.Errorf("a live context broke the run: %v", err)
	}
}

func errorsIsCanceled(err error) bool { return errors.Is(err, ErrCanceled) }

// An incremental re-audit with zero changed jobs reproduces the
// stored report byte for byte (JSON form) and re-runs nothing: every
// job is spliced in from the baseline.
func TestIncrementalZeroChangeByteIdentical(t *testing.T) {
	m := testMarketplace(t, 250)
	rankings, err := Rankings(m)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Strategy: "detcons"}
	cfg := core.Config{}
	first, err := RunRankings(m.Workers, rankings, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	params, err := ParamsKey(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}

	opts.Baseline = NewBaseline(params, rankings, first)
	second, err := RunRankings(m.Workers, rankings, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if second.Reused != len(rankings) {
		t.Fatalf("reused %d of %d jobs, want all", second.Reused, len(rankings))
	}
	for i, j := range second.Jobs {
		if !j.Reused {
			t.Errorf("job %d (%s) was re-run despite unchanged scores", i, j.Job)
		}
	}
	a, err := json.Marshal(first)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("incremental re-audit diverged from the stored report:\n%s\nvs\n%s", a, b)
	}

	// The all-reused path must be near-free: no quantification, no
	// mitigation — just fingerprints and the rollup.
	avg := testing.AllocsPerRun(10, func() {
		if _, err := RunRankings(m.Workers, rankings, cfg, opts); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs per all-reused re-audit (%d jobs): %.1f", len(rankings), avg)
	if cap := float64(100 * len(rankings)); avg > cap {
		t.Errorf("all-reused re-audit allocates %.1f, cap %.0f — the incremental path is doing real work", avg, cap)
	}
}

// Perturbing one job's scores re-runs exactly that job; every other
// job is spliced from the baseline, and the re-run job's report
// equals a from-scratch audit's.
func TestIncrementalOneJobPerturbation(t *testing.T) {
	m := testMarketplace(t, 250)
	rankings, err := Rankings(m)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Strategy: "detcons"}
	cfg := core.Config{}
	first, err := RunRankings(m.Workers, rankings, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	params, err := ParamsKey(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}

	perturbed := make([]Ranking, len(rankings))
	copy(perturbed, rankings)
	scores := append([]float64(nil), rankings[1].Scores...)
	scores[0], scores[len(scores)-1] = scores[len(scores)-1], scores[0]
	perturbed[1].Scores = scores

	opts.Baseline = NewBaseline(params, rankings, first)
	second, err := RunRankings(m.Workers, perturbed, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if second.Reused != len(rankings)-1 {
		t.Fatalf("reused %d jobs, want %d", second.Reused, len(rankings)-1)
	}
	for i, j := range second.Jobs {
		if i == 1 {
			if j.Reused {
				t.Errorf("perturbed job %q was reused", j.Job)
			}
			continue
		}
		if !j.Reused {
			t.Errorf("unchanged job %q was re-run", j.Job)
		}
		if !jobsEqual(j, first.Jobs[i]) {
			t.Errorf("reused job %q differs from the stored report", j.Job)
		}
	}

	// The spliced report must equal a from-scratch audit of the
	// perturbed rankings — incrementality can skip work, never change
	// a result.
	fresh, err := RunRankings(m.Workers, perturbed, cfg, Options{Strategy: "detcons"})
	if err != nil {
		t.Fatal(err)
	}
	fresh.Elapsed = second.Elapsed
	fresh.Reused = second.Reused
	if !reportsEqual(fresh, second) {
		t.Error("incremental report differs from a from-scratch audit of the same rankings")
	}
}

// A baseline from different parameters must not be reused: the
// params key guards against splicing reports across configurations.
func TestIncrementalParamsMismatch(t *testing.T) {
	m := testMarketplace(t, 250)
	rankings, err := Rankings(m)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{}
	first, err := RunRankings(m.Workers, rankings, cfg, Options{Strategy: "detcons"})
	if err != nil {
		t.Fatal(err)
	}
	params, err := ParamsKey(cfg, Options{Strategy: "detcons"})
	if err != nil {
		t.Fatal(err)
	}
	// Same baseline, different strategy: nothing may be reused.
	opts := Options{Strategy: "fair", Baseline: NewBaseline(params, rankings, first)}
	second, err := RunRankings(m.Workers, rankings, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if second.Reused != 0 {
		t.Errorf("reused %d jobs across a strategy change", second.Reused)
	}
}

// ScoreFingerprint discriminates exactly on (length, ordered bits).
func TestScoreFingerprint(t *testing.T) {
	a := []float64{0.1, 0.2, 0.3}
	if ScoreFingerprint(a) != ScoreFingerprint([]float64{0.1, 0.2, 0.3}) {
		t.Error("equal vectors fingerprint differently")
	}
	if ScoreFingerprint(a) == ScoreFingerprint([]float64{0.1, 0.3, 0.2}) {
		t.Error("permuted vector shares a fingerprint")
	}
	if ScoreFingerprint(a) == ScoreFingerprint(a[:2]) {
		t.Error("prefix shares a fingerprint")
	}
	if ScoreFingerprint(nil) == ScoreFingerprint([]float64{0}) {
		t.Error("empty and one-zero vectors share a fingerprint")
	}
}

// ParamsKey covers the knobs that shape a report and ignores the
// ones that cannot (concurrency, cache).
func TestParamsKey(t *testing.T) {
	base, err := ParamsKey(core.Config{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	same, err := ParamsKey(core.Config{Workers: 8, Cache: core.NewCache()}, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if base != same {
		t.Error("concurrency/cache knobs leaked into the params key")
	}
	for name, alt := range map[string]struct {
		cfg  core.Config
		opts Options
	}{
		"strategy": {core.Config{}, Options{Strategy: "detcons"}},
		"k":        {core.Config{}, Options{K: 25}},
		"top-n":    {core.Config{}, Options{TopN: 2}},
		"alpha":    {core.Config{}, Options{Alpha: 0.05}},
		"targets":  {core.Config{}, Options{Targets: map[string]float64{"gender=Female": 0.5}}},
		"depth":    {core.Config{MaxDepth: 1}, Options{}},
		"attrs":    {core.Config{Attributes: []string{"gender"}}, Options{}},
	} {
		key, err := ParamsKey(alt.cfg, alt.opts)
		if err != nil {
			t.Fatal(err)
		}
		if key == base {
			t.Errorf("%s change did not change the params key", name)
		}
	}
	if _, err := ParamsKey(core.Config{}, Options{Strategy: "nope"}); err == nil {
		t.Error("unknown strategy accepted")
	}
}

// Compare reports drift exactly: identical reports are stable, a
// perturbed job shows up as changed with the right classification.
func TestCompare(t *testing.T) {
	m := testMarketplace(t, 250)
	rankings, err := Rankings(m)
	if err != nil {
		t.Fatal(err)
	}
	first, err := RunRankings(m.Workers, rankings, core.Config{}, Options{Strategy: "detcons"})
	if err != nil {
		t.Fatal(err)
	}
	second, err := RunRankings(m.Workers, rankings, core.Config{}, Options{Strategy: "detcons"})
	if err != nil {
		t.Fatal(err)
	}
	d, err := Compare(first, second)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Stable() {
		t.Errorf("identical audits diff as unstable: %+v", d)
	}
	if len(d.Jobs) != len(first.Jobs) {
		t.Errorf("compared %d jobs, want %d", len(d.Jobs), len(first.Jobs))
	}

	perturbed := make([]Ranking, len(rankings))
	copy(perturbed, rankings)
	scores := append([]float64(nil), rankings[2].Scores...)
	for i := range scores {
		scores[i] = 1 - scores[i] // invert the ranking: guaranteed drift
	}
	perturbed[2].Scores = scores
	third, err := RunRankings(m.Workers, perturbed, core.Config{}, Options{Strategy: "detcons"})
	if err != nil {
		t.Fatal(err)
	}
	d, err = Compare(first, third)
	if err != nil {
		t.Fatal(err)
	}
	if d.Stable() {
		t.Fatal("perturbed audit diffs as stable")
	}
	if d.Changed != 1 {
		t.Errorf("%d jobs changed, want exactly the perturbed one", d.Changed)
	}
	var changed *JobDelta
	for i := range d.Jobs {
		if d.Jobs[i].Changed {
			changed = &d.Jobs[i]
		}
	}
	if changed == nil || changed.Job != rankings[2].Name {
		t.Fatalf("changed job = %+v, want %q", changed, rankings[2].Name)
	}
	if got := len(d.Regressed) + len(d.Improved); got > 1 {
		t.Errorf("one changed job classified %d times", got)
	}

	// Mismatched configurations refuse to diff.
	other, err := RunRankings(m.Workers, rankings, core.Config{}, Options{Strategy: "fair"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compare(first, other); err == nil {
		t.Error("cross-strategy diff accepted")
	}
	if _, err := Compare(nil, first); err == nil {
		t.Error("nil report accepted")
	}
}

// Added and removed jobs are reported by name, not silently dropped.
func TestCompareAddedRemoved(t *testing.T) {
	m := testMarketplace(t, 250)
	rankings, err := Rankings(m)
	if err != nil {
		t.Fatal(err)
	}
	first, err := RunRankings(m.Workers, rankings, core.Config{}, Options{Strategy: "detcons"})
	if err != nil {
		t.Fatal(err)
	}
	second, err := RunRankings(m.Workers, rankings[1:], core.Config{}, Options{Strategy: "detcons"})
	if err != nil {
		t.Fatal(err)
	}
	d, err := Compare(first, second)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Removed) != 1 || d.Removed[0] != rankings[0].Name {
		t.Errorf("removed = %v, want [%s]", d.Removed, rankings[0].Name)
	}
	back, err := Compare(second, first)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Added) != 1 || back.Added[0] != rankings[0].Name {
		t.Errorf("added = %v, want [%s]", back.Added, rankings[0].Name)
	}
}
