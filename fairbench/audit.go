package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"time"

	fairank "repro"
	"repro/internal/audit"
	"repro/internal/auditstore"
	"repro/internal/core"
	"repro/internal/fairness"
	"repro/internal/marketplace"
	"repro/internal/mitigate"
	"repro/internal/report"
	"repro/internal/scoring"
)

// auditConfig sizes the audit workload.
type auditConfig struct {
	// Rows is the registered preset population; Jobs the scoring
	// functions every audit covers.
	Rows, Jobs int
	// RefFresh is how many fresh audits are also compared with a cold
	// library audit (each costs as much as the audit itself).
	RefFresh  int
	SetupReps int
	// Think is the auditor's mean pause between an answer and the next
	// audit.
	Think time.Duration
	// Warmup is how many audits run back to back, checked but untimed,
	// before the measured audits. Over the first 60-odd audits the
	// session's scope cache fills and fresh audits take about two thirds
	// of their later time; a class figure over both phases would follow
	// how much of the run the first phase took.
	Warmup int
	// HeapAt is the first measured audit before which heap_live_mb is
	// read (see heapProbe), so the reading does not depend on how many
	// audits the host's speed allowed.
	HeapAt int
}

var defaultAudit = auditConfig{Rows: 20000, Jobs: 8, RefFresh: 2, SetupReps: 5, Think: 100 * time.Millisecond, Warmup: 96, HeapAt: 64}

// auditStrategies are the mitigations audited; each has its own
// snapshot lineage.
var auditStrategies = []string{"detcons", "fair"}

// Audit kinds.
const (
	auditFresh     = "fresh"     // every job function redrawn: nothing to reuse
	auditIdentical = "identical" // every job reused from the stored snapshot
	auditDrift     = "drift"     // one job redrawn
)

// auditOp is one audit of the trace.
type auditOp struct {
	Strategy  string
	Kind      string
	Stream    bool
	Functions []string
	// Drifted is the redrawn job of a drift (-1 otherwise).
	Drifted int
}

// predictedReused is how many jobs the server should splice from the
// lineage's previous snapshot.
func (op auditOp) predictedReused() int {
	switch op.Kind {
	case auditIdentical:
		return len(op.Functions)
	case auditDrift:
		return len(op.Functions) - 1
	}
	return 0
}

func jobName(j int) string { return fmt.Sprintf("job%d", j+1) }

// auditTrace generates the audit schedule one audit at a time; the
// sequence is a pure function of the seed.
type auditTrace struct {
	jobs    int
	rng     splitmix64
	current map[string][]string
	// kinds deals (kind, lineage) cards and streams which audits stream,
	// 12 audits to a block.
	kinds, streams *deck
}

func newAuditTrace(cfg auditConfig, seed uint64) *auditTrace {
	return &auditTrace{jobs: cfg.Jobs, rng: splitmix64{s: seed}, current: map[string][]string{},
		kinds: &deck{n: 12}, streams: &deck{n: 12}}
}

func (t *auditTrace) function() string {
	r := &t.rng
	w := [4]float64{0.05 + r.float(), 0.05 + r.float(), 0.05 + r.float(), 0.05 + r.float()}
	sum := w[0] + w[1] + w[2] + w[3]
	return fmt.Sprintf("%.6f*language_test + %.6f*rating + %.6f*accuracy + %.6f*speed", w[0]/sum, w[1]/sum, w[2]/sum, w[3]/sum)
}

// prime returns the first, fresh audit of every lineage, run at set-up.
func (t *auditTrace) prime() []auditOp {
	var out []auditOp
	for _, s := range auditStrategies {
		out = append(out, t.make(s, auditFresh, false))
	}
	return out
}

// next deals the next audit. Every block of 12 audits holds four of
// each kind, two per lineage, and streams three of them, in seeded
// order: the mix is the same for every seed.
func (t *auditTrace) next() auditOp {
	c := t.kinds.draw(&t.rng)
	kind := []string{auditFresh, auditIdentical, auditDrift}[c%3]
	return t.make(auditStrategies[c/3%2], kind, t.streams.draw(&t.rng) < 3)
}

func (t *auditTrace) make(strategy, kind string, stream bool) auditOp {
	fns := append([]string(nil), t.current[strategy]...)
	op := auditOp{Strategy: strategy, Kind: kind, Stream: stream, Drifted: -1}
	switch {
	case kind == auditFresh || len(fns) == 0:
		op.Kind = auditFresh
		fns = make([]string, t.jobs)
		for j := range fns {
			fns[j] = t.function()
		}
	case kind == auditDrift:
		op.Drifted = t.rng.intn(t.jobs)
		fns[op.Drifted] = t.function()
	}
	op.Functions = fns
	t.current[strategy] = fns
	return op
}

// auditJobBody names one job of an audit request.
type auditJobBody struct {
	Name     string
	Function string
}

// auditBody is the POST /api/audit request over the registered
// population.
type auditBody struct {
	Dataset  string
	Jobs     []auditJobBody
	Strategy string
}

func (op auditOp) body() auditBody {
	b := auditBody{Dataset: populationName, Strategy: op.Strategy}
	for j, fn := range op.Functions {
		b.Jobs = append(b.Jobs, auditJobBody{Name: jobName(j), Function: fn})
	}
	return b
}

func (op auditOp) query() string {
	q := url.Values{}
	q.Set("dataset", populationName)
	q.Set("strategy", op.Strategy)
	for j, fn := range op.Functions {
		q.Add("job", jobName(j)+"="+fn)
	}
	return q.Encode()
}

// auditJobAnswer is the part of one job's audit row the checker reads.
type auditJobAnswer struct {
	Job              string   `json:"job"`
	Groups           []string `json:"groups"`
	UnfairnessBefore float64  `json:"unfairness_before"`
	UnfairnessAfter  float64  `json:"unfairness_after"`
	NDCG             float64  `json:"ndcg"`
	MeanDisplacement float64  `json:"mean_displacement"`
	Infeasible       bool     `json:"infeasible"`
}

// auditAnswer is one audit's answer, from either route.
type auditAnswer struct {
	Jobs    []auditJobAnswer `json:"jobs"`
	Reused  int              `json:"reused"`
	Warning string           `json:"warning"`
	// JobCount is the stream rollup's job count (len(Jobs) for POST).
	JobCount int `json:"job_count"`
}

// auditEnv is one set-up: the population and the server with its
// snapshot store.
type auditEnv struct {
	pop  *fairank.Dataset
	lb   *loopback
	dir  string
	last map[string]*auditAnswer // lineage → previous answer
}

func setupAudit(cfg auditConfig, o options, prime []auditOp) (*auditEnv, error) {
	m, err := marketplace.PresetByName(populationName, cfg.Rows, 1)
	if err != nil {
		return nil, err
	}
	e := &auditEnv{pop: m.Workers, last: map[string]*auditAnswer{}}
	if e.dir, err = os.MkdirTemp(o.outDir, "auditstore-"); err != nil {
		return nil, err
	}
	sess := core.NewSession()
	if err := sess.AddDataset("table1", fairank.Table1()); err != nil {
		return nil, err
	}
	if err := sess.AddDataset(populationName, e.pop); err != nil {
		return nil, err
	}
	if e.lb, err = startServer(sess, e.dir, 1); err != nil {
		os.RemoveAll(e.dir)
		return nil, err
	}
	for _, op := range prime {
		a, status, _, err := e.send(op)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("priming audit: status %d", status)
		}
		if err != nil {
			e.close()
			return nil, err
		}
		e.last[op.Strategy] = a
	}
	return e, nil
}

func (e *auditEnv) close() {
	e.lb.close()
	os.RemoveAll(e.dir)
}

// send runs one audit and returns its answer and latency: to the last
// byte of a POST, or to the rollup event of a stream.
func (e *auditEnv) send(op auditOp) (*auditAnswer, int, time.Duration, error) {
	t0 := time.Now()
	if !op.Stream {
		status, body, err := e.lb.post("/api/audit", op.body())
		lat := time.Since(t0)
		if err != nil || status != http.StatusOK {
			return nil, status, lat, err
		}
		a := new(auditAnswer)
		if err := json.Unmarshal(body, a); err != nil {
			return nil, status, lat, err
		}
		a.JobCount = len(a.Jobs)
		return a, status, lat, nil
	}
	status, events, at, err := e.lb.stream("/api/audit/stream?"+op.query(), "rollup")
	if err != nil || status != http.StatusOK {
		return nil, status, time.Since(t0), err
	}
	if at.IsZero() {
		return nil, status, time.Since(t0), fmt.Errorf("stream ended without a rollup event")
	}
	a := new(auditAnswer)
	for _, ev := range events {
		switch ev.name {
		case "job":
			var j auditJobAnswer
			if err := json.Unmarshal(ev.data, &j); err != nil {
				return nil, status, at.Sub(t0), err
			}
			a.Jobs = append(a.Jobs, j)
		case "rollup":
			if err := json.Unmarshal(ev.data, a); err != nil {
				return nil, status, at.Sub(t0), err
			}
		case "error":
			return nil, status, at.Sub(t0), fmt.Errorf("stream error event: %s", ev.data)
		}
	}
	return a, status, at.Sub(t0), nil
}

func auditRoute(op auditOp) string {
	if op.Stream {
		return "audit_stream"
	}
	return "audit"
}

// checkAudit accepts an answer whose job count and Reused match the
// schedule's prediction and whose unchanged jobs repeat the previous
// audit of the lineage number for number.
func checkAudit(op auditOp, a, prev *auditAnswer) error {
	if a == nil {
		return fmt.Errorf("no answer")
	}
	if a.Warning != "" {
		return fmt.Errorf("degraded audit: %s", a.Warning)
	}
	if a.JobCount != len(op.Functions) || len(a.Jobs) != len(op.Functions) {
		return fmt.Errorf("%d jobs (%d rows), schedule has %d", a.JobCount, len(a.Jobs), len(op.Functions))
	}
	if want := op.predictedReused(); a.Reused != want {
		return fmt.Errorf("reused %d jobs, schedule predicts %d (%s audit)", a.Reused, want, op.Kind)
	}
	if op.Kind == auditFresh || prev == nil {
		return nil
	}
	for j := range a.Jobs {
		if j == op.Drifted {
			continue
		}
		if !sameJob(a.Jobs[j], prev.Jobs[j]) {
			return fmt.Errorf("job %s differs from the audit it reuses: %+v vs %+v", a.Jobs[j].Job, a.Jobs[j], prev.Jobs[j])
		}
	}
	return nil
}

func sameJob(a, b auditJobAnswer) bool {
	if a.Job != b.Job || a.UnfairnessBefore != b.UnfairnessBefore || a.UnfairnessAfter != b.UnfairnessAfter ||
		a.NDCG != b.NDCG || a.MeanDisplacement != b.MeanDisplacement || a.Infeasible != b.Infeasible || len(a.Groups) != len(b.Groups) {
		return false
	}
	for i := range a.Groups {
		if a.Groups[i] != b.Groups[i] {
			return false
		}
	}
	return true
}

// rankings scores the op's job functions over the population.
func rankings(d *fairank.Dataset, op auditOp) ([]audit.Ranking, error) {
	out := make([]audit.Ranking, len(op.Functions))
	for j, f := range op.Functions {
		fn, err := scoring.Parse(f)
		if err != nil {
			return nil, err
		}
		scores, err := fn.Score(d)
		if err != nil {
			return nil, err
		}
		out[j] = audit.Ranking{Name: jobName(j), Function: fn.String(), Scores: scores}
	}
	return out, nil
}

// checkAuditReference accepts an answer whose every job equals a cold
// library audit of the same rankings.
func checkAuditReference(a *auditAnswer, ref *audit.Report) error {
	if a == nil || len(a.Jobs) != len(ref.Jobs) {
		return fmt.Errorf("job count differs from the library audit")
	}
	for j, r := range ref.Jobs {
		want := auditJobAnswer{Job: r.Job, Groups: r.Groups, UnfairnessBefore: r.QuantifiedBefore, UnfairnessAfter: r.QuantifiedAfter,
			NDCG: r.Utility.NDCG, MeanDisplacement: r.Utility.MeanDisplacement, Infeasible: r.Infeasible}
		if !sameJob(a.Jobs[j], want) {
			return fmt.Errorf("job %s differs from the library audit: %+v vs %+v", r.Job, a.Jobs[j], want)
		}
	}
	return nil
}

// auditPass is one pass's measurements.
type auditPass struct {
	lat []time.Duration
	// light holds the identical re-audits' latencies, medium the
	// one-job drifts' and heavy the fresh audits'.
	light, medium, heavy []time.Duration
	// requests and withTwin are the traced pass's answered audits, alone
	// and with their twin replay.
	requests, withTwin []time.Duration
	jobs               int
	wall               time.Duration
	attempts           int
	failed             int
	rejected           int
	checked            int
	// fresh holds the fresh audits kept for the library comparison.
	fresh []freshAudit
	heap  heapProbe
}

// freshAudit is a fresh audit and its answer.
type freshAudit struct {
	op auditOp
	a  *auditAnswer
}

// pass runs cfg.Warmup audits back to back, then measured audits with
// think pauses until o.seconds have passed. Every answer is checked;
// only the measured ones are timed. With a tracer, each audit's layer
// calls are first replayed on the twin.
func (e *auditEnv) pass(cfg auditConfig, o options, trace *auditTrace, t tallies, tw *auditTwin) (auditPass, error) {
	p := auditPass{heap: heapProbe{first: cfg.HeapAt}}
	think := newThinker(cfg.Think, o.seed)
	start := time.Now()
	for i := 0; ; i++ {
		warm := i < cfg.Warmup
		switch {
		case i == cfg.Warmup:
			start = time.Now()
			if tw != nil {
				tw.tr = newTracer() // layer figures come from the measured audits
			}
		case !warm:
			if time.Since(start) >= o.seconds {
				p.wall = time.Since(start)
				return p, nil
			}
			think.pause()
		}
		if !warm {
			p.heap.before(i - cfg.Warmup)
		}
		op := trace.next()
		var handler time.Duration
		opStart := time.Now()
		if tw != nil {
			var err error
			if handler, err = tw.replay(i, op); err != nil {
				return p, err
			}
		}
		sent := time.Now()
		a, status, lat, err := e.send(op)
		route := auditRoute(op)
		t.add(route, status)
		p.attempts++
		if failedStatus(status, err) {
			p.failed++
			e.last[op.Strategy] = nil
			continue
		}
		if !warm {
			p.record(op, a, lat)
		}
		if tw != nil && !warm {
			p.requests = append(p.requests, lat)
			p.withTwin = append(p.withTwin, sent.Sub(opStart)+lat)
			tw.tr.spans = append(tw.tr.spans, span{Op: i, Name: "server." + route, Parent: "op",
				Start: sent.Sub(tw.tr.t0).Nanoseconds(), End: sent.Add(lat).Sub(tw.tr.t0).Nanoseconds()})
			tw.tr.add("server.audit_self_ms", ms(lat-handler))
		}
		if bad := checkAudit(op, a, e.last[op.Strategy]); bad != nil {
			p.rejected++
			fmt.Printf("rejected %s audit %d: %v\n", op.Kind, i, bad)
		}
		e.last[op.Strategy] = a
		if op.Kind == auditFresh && len(p.fresh) < cfg.RefFresh {
			p.fresh = append(p.fresh, freshAudit{op, a})
		}
	}
}

// record adds one measured audit's latency to its class.
func (p *auditPass) record(op auditOp, a *auditAnswer, lat time.Duration) {
	p.lat = append(p.lat, lat)
	switch op.Kind {
	case auditIdentical:
		p.light = append(p.light, lat)
	case auditDrift:
		p.medium = append(p.medium, lat)
	default:
		p.heavy = append(p.heavy, lat)
	}
	p.jobs += a.JobCount
}

// checkFresh compares the pass's first fresh audits with cold library
// audits of the same rankings, outside the measured region.
func (p *auditPass) checkFresh(pop *fairank.Dataset) error {
	for _, f := range p.fresh {
		rs, err := rankings(pop, f.op)
		if err != nil {
			return err
		}
		ref, err := audit.RunRankings(pop, rs, core.Config{}, audit.Options{Strategy: f.op.Strategy})
		if err != nil {
			return err
		}
		p.checked++
		if bad := checkAuditReference(f.a, ref); bad != nil {
			p.rejected++
			fmt.Printf("rejected fresh audit: %v\n", bad)
		}
	}
	return nil
}

// runAudit runs the audit workload: a closed loop of audits and, with
// tracing, a traced replay on a fresh set-up with a twin.
func runAudit(cfg auditConfig, o options) (*outcome, error) {
	out := &outcome{e2e: map[string]float64{}, layers: map[string]float64{}, record: map[string]any{}}
	var trace *auditTrace
	env, setup, err := repeatSetup(cfg.SetupReps, o.trace,
		func() (*auditEnv, error) {
			trace = newAuditTrace(cfg, o.seed)
			return setupAudit(cfg, o, trace.prime())
		},
		func(e *auditEnv) { e.close() })
	if err != nil {
		return nil, err
	}
	out.e2e["setup_s"] = setup

	t := tallies{}
	var p auditPass
	var rt0, rt1 rtSample
	before, after, err := env.lb.scrapeWindow(t, func() error {
		rt0 = readRuntime()
		var err error
		p, err = env.pass(cfg, o, trace, t, nil)
		rt1 = readRuntime()
		return err
	})
	if err != nil {
		env.close()
		return nil, err
	}
	p.heap.fill(out.e2e)
	env.close()
	if err := p.checkFresh(env.pop); err != nil {
		return nil, err
	}
	out.attempted = p.attempts
	out.failed = p.failed + p.rejected
	out.rejected = p.rejected
	classMeans(out.e2e, p.light, p.medium, p.heavy)
	out.named = append(out.named, latencyNamed("audit", p.lat)...)
	out.named = append(out.named, namedValue{"audit_jobs_per_s", float64(p.jobs) / p.wall.Seconds(), "1/s", p.jobs})
	out.record["audits"] = p.attempts
	out.record["jobs_reported"] = p.jobs
	out.record["routes"] = t.summary()
	out.record["library_checked"] = p.checked

	if !o.trace {
		return out, nil
	}
	jobMean, _ := histDeltaMean(before.Metrics, after.Metrics, "fairank_audit_job_seconds")
	out.layers["audit.job_ms"] = jobMean * 1e3
	serverLayers(out.layers, before, after)
	runtimeLayers(out.layers, rt1.since(rt0), p.attempts)

	trace = newAuditTrace(cfg, o.seed)
	prime := trace.prime()
	tenv, err := setupAudit(cfg, o, prime)
	if err != nil {
		return nil, err
	}
	defer tenv.close()
	tw, err := newAuditTwin(tenv.pop, o, prime)
	if err != nil {
		return nil, err
	}
	defer tw.close()
	tt := tallies{}
	var tp auditPass
	if _, _, err := tenv.lb.scrapeWindow(tt, func() error {
		var err error
		tp, err = tenv.pass(cfg, o, trace, tt, tw)
		return err
	}); err != nil {
		return nil, err
	}
	if err := tp.checkFresh(tenv.pop); err != nil {
		return nil, err
	}
	out.attempted += tp.attempts
	out.failed += tp.failed + tp.rejected
	out.rejected += tp.rejected
	out.layers["core.cache_scopes"] = float64(tw.sess.SharedCache().Scopes())
	out.layers["trace_overhead_pct"] = overheadPct(tp.requests, tp.withTwin)
	tw.tr.medians(out.layers)
	out.spans = tw.tr.spans
	out.record["traced_audits"] = tp.attempts
	return out, nil
}

// auditTwin replays each audit's layer calls the way the handler makes
// them, on a twin session and store that see the same audits.
type auditTwin struct {
	pop   *fairank.Dataset
	sess  *core.Session
	store *auditstore.Store
	dir   string
	tr    *tracer
}

func newAuditTwin(pop *fairank.Dataset, o options, prime []auditOp) (*auditTwin, error) {
	dir, err := os.MkdirTemp(o.outDir, "twinstore-")
	if err != nil {
		return nil, err
	}
	st, err := auditstore.Open(filepath.Join(dir, "store"))
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	tw := &auditTwin{pop: pop, sess: core.NewSession(), store: st, dir: dir}
	tw.sess.SetCacheLimit(fairankdCacheScopes)
	if err := tw.sess.AddDataset(populationName, pop); err != nil {
		tw.close()
		return nil, err
	}
	// Priming runs untraced, like the server's set-up.
	tw.tr = newTracer()
	for _, op := range prime {
		if _, err := tw.replay(-1, op); err != nil {
			tw.close()
			return nil, err
		}
	}
	tw.tr = newTracer()
	return tw, nil
}

func (tw *auditTwin) close() { os.RemoveAll(tw.dir) }

// replay makes the handler's calls for op on the twin and returns the
// time they took: the store lookup, the audit run, the report table and
// the snapshot save. The fingerprints and each recomputed job's
// quantification and re-ranking are timed as layers of their own.
func (tw *auditTwin) replay(i int, op auditOp) (time.Duration, error) {
	tr := tw.tr
	rs, err := rankings(tw.pop, op)
	if err != nil {
		return 0, err
	}
	dist, err := fairness.DistanceByName("")
	if err != nil {
		return 0, err
	}
	agg, err := fairness.AggregatorByName("")
	if err != nil {
		return 0, err
	}
	cfg := core.Config{Measure: fairness.Measure{Dist: dist, Agg: agg}, Cache: tw.sess.SharedCache()}
	opts := audit.Options{Strategy: op.Strategy}
	datasetID := "dataset:" + populationName

	df := tr.timed(i, "fingerprint.scores", "op", func() {
		for _, r := range rs {
			audit.ScoreFingerprint(r.Scores)
		}
	})
	params, err := audit.ParamsKey(cfg, opts)
	if err != nil {
		return 0, err
	}
	var prev *auditstore.Snapshot
	dl := tr.timed(i, "auditstore.latest", "op", func() { prev, _ = tw.store.Latest(auditstore.ConfigID(datasetID, params)) })
	if prev != nil {
		opts.Baseline = prev.Baseline(datasetID)
	}
	var rep *audit.Report
	dr := tr.timed(i, "audit.run", "op", func() { rep, err = audit.RunRankingsContext(context.Background(), tw.pop, rs, cfg, opts) })
	if err != nil {
		return 0, err
	}
	rep.Marketplace = populationName
	dt := tr.timed(i, "report.audit_table", "op", func() { _, err = report.AuditTable(rep) })
	if err != nil {
		return 0, err
	}
	var snap *auditstore.Snapshot
	ds := tr.timed(i, "auditstore.save", "op", func() {
		if snap, err = auditstore.New(datasetID, cfg, opts, rs, rep); err == nil {
			_, err = tw.store.Save(snap)
		}
	})
	if err != nil {
		return 0, err
	}
	var size countingWriter
	if err := auditstore.Write(&size, snap); err != nil {
		return 0, err
	}
	tr.add("fingerprint.scores_ms", ms(df))
	tr.add("auditstore.latest_ms", ms(dl))
	tr.add("audit.run_ms", ms(dr))
	tr.add("auditstore.save_ms", ms(ds))
	tr.add("auditstore.snapshot_kb", float64(size)/1e3)
	tr.add("audit.reused_ratio", float64(rep.Reused)/float64(len(rep.Jobs)))

	// Each job the run recomputed: its before-quantification cold, and
	// the strategy alone on the partition it found.
	m, err := mitigate.ByName(op.Strategy)
	if err != nil {
		return 0, err
	}
	for j, jr := range rep.Jobs {
		if jr.Reused {
			continue
		}
		pseudo, err := scoring.PseudoScores(rs[j].Scores)
		if err != nil {
			return 0, err
		}
		var res *core.Result
		cold := cfg
		cold.Cache = core.NewCache()
		dq := tr.timed(i, "core.quantify", "audit.run", func() { res, err = core.Quantify(tw.pop, pseudo, cold) })
		if err != nil {
			return 0, err
		}
		groups := make([][]int, len(res.Groups))
		for g, grp := range res.Groups {
			groups[g] = grp.Rows
		}
		in := mitigate.Input{Scores: pseudo, Groups: groups, K: rep.K}
		dm := tr.timed(i, "mitigate.rerank", "audit.run", func() { _, err = m.Rerank(in) })
		if err != nil && !errors.Is(err, mitigate.ErrInfeasible) {
			return 0, err
		}
		tr.add("core.quantify_ms", ms(dq))
		tr.add("mitigate.rerank_ms", ms(dm))
	}
	return dl + dr + dt + ds, nil
}

// countingWriter counts the bytes written to it.
type countingWriter int

func (c *countingWriter) Write(p []byte) (int, error) {
	*c += countingWriter(len(p))
	return len(p), nil
}
