package main

import (
	"encoding/json"
	"net/http"
	"reflect"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/core"
)

// Tiny configurations of every workload, for the smoke tests.
var (
	tinyExplore = exploreConfig{Rows: 400, Shortlist: 12, Think: time.Millisecond, SetupReps: 2, Warmup: 10, HeapAt: 5}
	tinyAudit   = auditConfig{Rows: 400, Jobs: 3, RefFresh: 1, SetupReps: 2, Think: time.Millisecond, Warmup: 6, HeapAt: 5}
)

func tinyOptions(t *testing.T, traced bool) options {
	return options{seed: 7, seconds: 3 * time.Second, trace: traced, outDir: t.TempDir()}
}

func TestTracesArePureFunctionsOfTheSeed(t *testing.T) {
	if a, b := exploreTrace(3, 200), exploreTrace(3, 200); !reflect.DeepEqual(a, b) {
		t.Error("explore trace differs between two builds with the same seed")
	}
	if a, b := exploreTrace(3, 200), exploreTrace(4, 200); reflect.DeepEqual(a, b) {
		t.Error("explore traces of different seeds are identical")
	}
	pauses := func(seed uint64) []uint64 {
		th := newThinker(time.Millisecond, seed)
		out := make([]uint64, 20)
		for i := range out {
			out[i] = th.rng.next()
		}
		return out
	}
	if !reflect.DeepEqual(pauses(3), pauses(3)) || reflect.DeepEqual(pauses(3), pauses(4)) {
		t.Error("think pauses are not a function of the seed alone")
	}
	audits := func(seed uint64) []auditOp {
		tr := newAuditTrace(defaultAudit, seed)
		out := tr.prime()
		for i := 0; i < 50; i++ {
			out = append(out, tr.next())
		}
		return out
	}
	if !reflect.DeepEqual(audits(3), audits(3)) {
		t.Error("audit schedule differs between two runs with the same seed")
	}
	if reflect.DeepEqual(audits(3), audits(4)) {
		t.Error("audit schedules of different seeds are identical")
	}
}

func TestTraceMixIsTheSameForEverySeed(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		count := map[string]int{}
		for _, op := range exploreTrace(seed, 2*exploreBlock) {
			count[op.Class]++
		}
		for _, m := range exploreMix {
			if count[m.class] != 2*m.count {
				t.Errorf("seed %d: %d %s requests in two blocks, want %d", seed, count[m.class], m.class, 2*m.count)
			}
		}
		tr := newAuditTrace(defaultAudit, seed)
		tr.prime()
		kinds, streams := map[string]int{}, 0
		for i := 0; i < 24; i++ {
			op := tr.next()
			kinds[op.Kind]++
			if op.Stream {
				streams++
			}
		}
		if kinds[auditFresh] != 8 || kinds[auditIdentical] != 8 || kinds[auditDrift] != 8 || streams != 6 {
			t.Errorf("seed %d: audit kinds %v with %d streams in two blocks", seed, kinds, streams)
		}
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	sorted := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	cases := []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{19, 0.5, 10, false},
		{20, 0.5, 10, true},
		{99, 0.9, 90, false},
		{100, 0.9, 90, true},
		{999, 0.99, 990, false},
		{1000, 0.99, 990, true},
		{0, 0.5, 0, false},
	}
	for _, c := range cases {
		v, ok := percentile(sorted(c.n), c.p)
		if ok != c.ok || (c.n > 0 && v != c.want) {
			t.Errorf("p%v of %d samples = %v (reported %v), want %v (reported %v)", c.p*100, c.n, v, ok, c.want, c.ok)
		}
	}
	named := latencyNamed("x", make([]time.Duration, 150))
	if len(named) != 2 || named[0].name != "x_p50_ms" || named[1].name != "x_p90_ms" || named[0].n != 150 {
		t.Errorf("150 samples reported %+v, want p50 and p90 with n=150 and no p99", named)
	}
}

func TestTrimmedMeanDropsEachTenth(t *testing.T) {
	s := []float64{-1000, 1, 1, 1, 1, 2, 2, 2, 2, 1000}
	if got := trimmedMean(s); got != 1.5 {
		t.Errorf("trimmed mean %v, want 1.5", got)
	}
	e2e := map[string]float64{}
	classMeans(e2e, make([]time.Duration, minClassSamples-1), make([]time.Duration, minClassSamples), nil)
	if _, ok := e2e["light_mean_ms"]; ok || len(e2e) != 1 {
		t.Errorf("class means %v: want only medium, which has enough samples", e2e)
	}
}

func TestHeapProbeReadsFixedOperations(t *testing.T) {
	h := heapProbe{first: 3}
	var read []int
	for i := 0; i < 3+heapReads*heapEvery+5; i++ {
		n := len(h.readings)
		if h.before(i); len(h.readings) > n {
			read = append(read, i)
		}
	}
	want := []int{3, 3 + heapEvery, 3 + 2*heapEvery, 3 + 3*heapEvery, 3 + 4*heapEvery}
	if !reflect.DeepEqual(read, want) {
		t.Errorf("read before operations %v, want %v", read, want)
	}
	e2e := map[string]float64{}
	if h.fill(e2e); e2e["heap_live_mb"] <= 0 {
		t.Errorf("heap_live_mb %v after every reading", e2e["heap_live_mb"])
	}
	short := heapProbe{first: 0}
	short.before(0)
	e2e = map[string]float64{}
	if short.fill(e2e); len(e2e) != 0 {
		t.Error("a pass that ended before the last reading reported heap_live_mb")
	}
}

func TestRejectedAnswerFailsTheRun(t *testing.T) {
	out := &outcome{attempted: 10, rejected: 1, failed: 1, e2e: map[string]float64{}}
	for _, m := range e2eMetrics {
		out.e2e[m.name] = 1
	}
	res, err := buildResult(out, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 1 {
		t.Errorf("result with a rejected answer: %+v", res)
	}
	delete(out.e2e, "light_mean_ms")
	if _, err := buildResult(out, false); err == nil {
		t.Error("a missing end-to-end metric was not refused")
	}
}

func TestNon200AnswerFailsTheRun(t *testing.T) {
	env, err := setupExplore(tinyExplore, false)
	if err != nil {
		t.Fatal(err)
	}
	defer env.lb.close()
	ops := []exploreOp{
		{Route: "quantify", Class: classRevisit, Quantify: core.PanelRequest{Dataset: populationName, Function: exploreFunctions[0]}},
		{Route: "mitigate", Class: classMitigate, Mitigate: mitigateBody{PanelRequest: core.PanelRequest{Dataset: "no-such-dataset", Function: exploreFunctions[0], MaxDepth: 1}, Strategy: "detcons"}},
	}
	samples, _, _ := closedLoop(ops, 0, newThinker(0, 1), time.Minute,
		func(i int) (exploreSample, error) { return env.timedOp(ops[i]), nil })
	if st := samples[1].status; st < 400 || st >= 500 || st == http.StatusTooManyRequests {
		t.Fatalf("mitigation of an unknown dataset answered %d, want a 4xx other than 429", st)
	}
	sp := splitExplore(ops, samples, 0)
	if sp.failed != 1 || len(sp.light) != 1 || len(sp.medium)+len(sp.heavy)+len(sp.lp) != 0 {
		t.Errorf("split %+v: want the 4xx counted as failed and in no latency series", sp)
	}
	if warm := splitExplore(ops, samples, len(ops)); warm.failed != 1 || len(warm.light) != 0 {
		t.Errorf("warm-up split %+v: want the 4xx counted as failed and no latency recorded", warm)
	}
	tl := tallies{}
	for i, s := range samples {
		tl.add(ops[i].Route, s.status)
	}
	if got := tl.summary()["mitigate"]; got["attempted"] != 1 || got["failed"] != 1 {
		t.Errorf("route summary %v: want the 4xx counted as failed", got)
	}
	out := &outcome{attempted: len(samples), failed: sp.failed, e2e: map[string]float64{}}
	for _, m := range e2eMetrics {
		out.e2e[m.name] = 1
	}
	res, err := buildResult(out, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 1 {
		t.Errorf("result with a 4xx answer: %+v", res)
	}
}

func TestExploreCheckersRejectCorruptedAnswers(t *testing.T) {
	env, err := setupExplore(tinyExplore, false)
	if err != nil {
		t.Fatal(err)
	}
	defer env.lb.close()
	checker, err := newExploreChecker(env)
	if err != nil {
		t.Fatal(err)
	}
	ops := []exploreOp{
		{Route: "quantify", Quantify: core.PanelRequest{Dataset: populationName, Function: exploreFunctions[0]}},
		{Route: "mitigate", Mitigate: mitigateBody{PanelRequest: core.PanelRequest{Dataset: populationName, Function: exploreFunctions[1], MaxDepth: 1}, Strategy: "detcons"}},
		{Route: "mitigate", Mitigate: mitigateBody{PanelRequest: core.PanelRequest{Dataset: shortlistName, Function: exploreFunctions[2], MaxDepth: 1}, Strategy: "exposure-lp", Seed: 2}},
	}
	samples := make([]exploreSample, len(ops))
	for i, op := range ops {
		var body []byte
		samples[i].status, body, samples[i].err = env.send(op)
		parseAnswer(op, &samples[i], body)
		if samples[i].status != http.StatusOK || samples[i].err != nil {
			t.Fatalf("%s: status %d, %v", op.Route, samples[i].status, samples[i].err)
		}
	}
	if rejected, err := checker.check(ops, samples); err != nil || rejected != 0 {
		t.Fatalf("genuine answers: %d rejected, %v", rejected, err)
	}

	corrupt := func(name string, mutate func(s []exploreSample)) {
		t.Helper()
		bad := make([]exploreSample, len(samples))
		for i, s := range samples {
			bad[i] = s
			if s.quantify != nil {
				q := *s.quantify
				q.Tree = cloneTree(q.Tree)
				bad[i].quantify = &q
			}
			if s.mitigate != nil {
				b, _ := json.Marshal(s.mitigate)
				bad[i].mitigate = new(mitigateAnswer)
				json.Unmarshal(b, bad[i].mitigate)
			}
		}
		mutate(bad)
		if rejected, err := checker.check(ops, bad); err != nil || rejected != 1 {
			t.Errorf("%s: %d rejected (%v), want 1", name, rejected, err)
		}
	}
	corrupt("quantify unfairness", func(s []exploreSample) { s[0].quantify.Unfairness += 1e-12 })
	corrupt("quantify group label", func(s []exploreSample) {
		leaf := s[0].quantify.Tree
		for len(leaf.Children) > 0 {
			leaf = leaf.Children[0]
		}
		leaf.Label += "?"
	})
	corrupt("mitigated unfairness", func(s []exploreSample) { s[1].mitigate.After.Unfairness *= 1.5 })
	corrupt("ranking not a permutation", func(s []exploreSample) { s[1].mitigate.After.Groups[0].TopKCount++ })
	corrupt("exposure floor", func(s []exploreSample) { s[2].mitigate.Distribution.ExpectedRatio = exposureFloor - 0.01 })
}

func cloneTree(t *treeJSON) *treeJSON {
	if t == nil {
		return nil
	}
	c := &treeJSON{Label: t.Label}
	for _, ch := range t.Children {
		c.Children = append(c.Children, cloneTree(ch))
	}
	return c
}

func TestAuditCheckersRejectCorruptedAnswers(t *testing.T) {
	o := tinyOptions(t, false)
	trace := newAuditTrace(tinyAudit, 5)
	env, err := setupAudit(tinyAudit, o, trace.prime())
	if err != nil {
		t.Fatal(err)
	}
	defer env.close()
	prev := env.last[auditStrategies[0]]
	op := trace.make(auditStrategies[0], auditIdentical, true)
	a, status, _, err := env.send(op)
	if err != nil || status != http.StatusOK {
		t.Fatalf("identical re-audit: status %d, %v", status, err)
	}
	if err := checkAudit(op, a, prev); err != nil {
		t.Fatalf("genuine re-audit rejected: %v", err)
	}
	rs, err := rankings(env.pop, op)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := audit.RunRankings(env.pop, rs, core.Config{}, audit.Options{Strategy: op.Strategy})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkAuditReference(a, ref); err != nil {
		t.Fatalf("genuine audit differs from the library: %v", err)
	}

	clone := func() *auditAnswer {
		c := *a
		c.Jobs = append([]auditJobAnswer(nil), a.Jobs...)
		return &c
	}
	bad := clone()
	bad.Reused--
	if checkAudit(op, bad, prev) == nil {
		t.Error("a wrong Reused count was accepted")
	}
	bad = clone()
	bad.Jobs = bad.Jobs[1:]
	if checkAudit(op, bad, prev) == nil {
		t.Error("a missing job was accepted")
	}
	bad = clone()
	bad.Jobs[1].NDCG += 1e-9
	if checkAudit(op, bad, prev) == nil {
		t.Error("a re-audit that changed a reused job's numbers was accepted")
	}
	if checkAuditReference(bad, ref) == nil {
		t.Error("an audit that differs from the library was accepted")
	}
}

func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	for _, traced := range []bool{false, true} {
		runs := map[string]func(options) (*outcome, error){
			"explore": func(o options) (*outcome, error) { return runExplore(tinyExplore, o) },
			"audit":   func(o options) (*outcome, error) { return runAudit(tinyAudit, o) },
		}
		for name, run := range runs {
			out, err := run(tinyOptions(t, traced))
			if err != nil {
				t.Fatalf("%s (traced %v): %v", name, traced, err)
			}
			if out.attempted == 0 || out.failed != 0 || out.rejected != 0 {
				t.Errorf("%s (traced %v): %d of %d operations failed", name, traced, out.failed, out.attempted)
			}
			// A slow host (or the race detector) may leave a tiny run with
			// too few samples for a class median; everything else must be
			// there.
			for _, m := range []string{"setup_s", "heap_live_mb"} {
				if out.e2e[m] <= 0 {
					t.Errorf("%s (traced %v): %s = %v", name, traced, m, out.e2e[m])
				}
			}
			if traced {
				if _, err := buildResult(out, true); err != nil {
					t.Errorf("%s: %v", name, err)
				}
				if len(out.spans) == 0 {
					t.Errorf("%s: traced run recorded no spans", name)
				}
			}
		}
	}
}
