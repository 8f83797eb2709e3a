package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"time"

	fairank "repro"
	"repro/internal/core"
	"repro/internal/fairness"
	"repro/internal/marketplace"
	"repro/internal/mitigate"
	"repro/internal/mitigate/exposure"
	"repro/internal/partition"
	"repro/internal/report"
	"repro/internal/scoring"
)

// exploreConfig sizes the explore workload.
type exploreConfig struct {
	// Rows is the preset population; Shortlist the exposure-lp
	// shortlist drawn from the same preset.
	Rows, Shortlist int
	// Think is the analyst's mean pause between an answer and the next
	// request. At 40 ms the server is busy about half the time, and
	// requests never overlap: no class mean depends on how often a
	// seed's order lines a request up with an exposure-lp solve.
	Think time.Duration
	// SetupReps is how many times set-up runs; setup_s is the median.
	SetupReps int
	// Warmup is how many requests run back to back, checked but
	// untimed, before the measured ones: enough to fill the session's
	// scope cache, so the measured requests meet it in its steady state.
	Warmup int
	// HeapAt is the first measured request before which heap_live_mb is
	// read (see heapProbe). The session keeps every answered panel, so
	// the live heap grows with the requests served, and a reading at the
	// end of the pass would follow the host's speed.
	HeapAt int
}

var defaultExplore = exploreConfig{Rows: 20000, Shortlist: 48, Think: 40 * time.Millisecond, SetupReps: 5, Warmup: 120, HeapAt: 200}

const (
	populationName = "crowdsourcing"
	shortlistName  = "shortlist"
	// exposureFloor is the exposure strategies' default floor, which
	// the requests leave unset.
	exposureFloor = 0.95
)

// The revisit pool: every combination is primed at set-up, so two
// thirds of the quantify requests find their scope in the cache.
var (
	exploreFunctions = []string{
		"0.3*language_test + 0.7*rating",
		"0.5*accuracy + 0.5*rating",
		"0.4*language_test + 0.3*accuracy + 0.3*rating",
		"0.6*accuracy + 0.4*speed",
	}
	exploreAttrs      = [][]string{nil, {"gender", "ethnicity"}, {"language", "region"}}
	exploreDistances  = []string{"emd", "emd-hat", "ks"}
	exploreStrategies = []string{"fair", "detcons", "exposure"}
)

// mitigateBody is the POST /api/mitigate request: a panel request plus
// the mitigation knobs.
type mitigateBody struct {
	core.PanelRequest
	Strategy string
	Seed     uint64
}

// exploreOp is one request of the explore trace.
type exploreOp struct {
	Route    string // "quantify" or "mitigate"
	Class    string
	Quantify core.PanelRequest
	Mitigate mitigateBody
}

// key identifies the request for reference deduplication.
func (op exploreOp) key() string {
	var b []byte
	if op.Route == "quantify" {
		b, _ = json.Marshal(op.Quantify)
	} else {
		b, _ = json.Marshal(op.Mitigate)
	}
	return op.Route + string(b)
}

// freshFunction draws a weight vector no other request uses.
func freshFunction(rng *splitmix64) string {
	w := [3]float64{0.05 + rng.float(), 0.05 + rng.float(), 0.05 + rng.float()}
	sum := w[0] + w[1] + w[2]
	return fmt.Sprintf("%.6f*language_test + %.6f*rating + %.6f*accuracy", w[0]/sum, w[1]/sum, w[2]/sum)
}

// Request classes of the explore trace, with their share of every
// block of exploreBlock requests.
const (
	classRevisit  = "revisit"     // quantify from the primed pool
	classFresh    = "fresh"       // quantify with a freshly drawn function
	classMitigate = "mitigate"    // fair, detcons or exposure over the population
	classLP       = "exposure-lp" // exposure-lp over the shortlist
	exploreBlock  = 60
)

// exploreMix is every block of exploreBlock requests, in shuffled
// order: 70% quantify, 30% mitigate, one mitigation in six exposure-lp.
var exploreMix = []struct {
	class string
	count int
}{{classRevisit, 28}, {classFresh, 14}, {classMitigate, 15}, {classLP, 3}}

// exploreTrace returns the first n requests of the seeded trace. Every
// block of 60 requests holds exactly 28 pool revisits, 14 fresh
// quantifies, 15 mitigations over the population and 3 exposure-lp
// runs over the shortlist, and each class deals its parameter
// combinations in rounds: the mix is the same for every seed, only the
// order, the fresh weights and the exposure-lp sampling seeds vary.
func exploreTrace(seed uint64, n int) []exploreOp {
	rng := &splitmix64{s: seed}
	nf, na, nd, ns := len(exploreFunctions), len(exploreAttrs), len(exploreDistances), len(exploreStrategies)
	classes := &deck{n: exploreBlock}
	revisit, fresh := &deck{n: nf * na * nd}, &deck{n: na * nd}
	mitigates, lp := &deck{n: nf * na * ns}, &deck{n: nf * na}
	ops := make([]exploreOp, n)
	for i := range ops {
		var op exploreOp
		card := classes.draw(rng)
		for _, m := range exploreMix {
			if card < m.count {
				op.Class = m.class
				break
			}
			card -= m.count
		}
		switch op.Class {
		case classRevisit:
			c := revisit.draw(rng)
			op.Route = "quantify"
			op.Quantify = core.PanelRequest{Dataset: populationName, Function: exploreFunctions[c%nf],
				Attributes: exploreAttrs[c/nf%na], Distance: exploreDistances[c/nf/na]}
		case classFresh:
			c := fresh.draw(rng)
			op.Route = "quantify"
			op.Quantify = core.PanelRequest{Dataset: populationName, Function: freshFunction(rng),
				Attributes: exploreAttrs[c%na], Distance: exploreDistances[c/na]}
		case classMitigate:
			c := mitigates.draw(rng)
			op.Route = "mitigate"
			op.Mitigate = mitigateBody{
				PanelRequest: core.PanelRequest{Dataset: populationName, Function: exploreFunctions[c%nf], Attributes: exploreAttrs[c/nf%na], MaxDepth: 1},
				Strategy:     exploreStrategies[c/nf/na],
			}
		default:
			c := lp.draw(rng)
			op.Route = "mitigate"
			op.Mitigate = mitigateBody{
				PanelRequest: core.PanelRequest{Dataset: shortlistName, Function: exploreFunctions[c%nf], Attributes: exploreAttrs[c/nf], MaxDepth: 1},
				Strategy:     "exposure-lp",
				Seed:         1 + uint64(rng.intn(3)),
			}
		}
		ops[i] = op
	}
	return ops
}

// explorePool is the revisit pool as quantify requests.
func explorePool() []core.PanelRequest {
	var out []core.PanelRequest
	for _, fn := range exploreFunctions {
		for _, attrs := range exploreAttrs {
			for _, dist := range exploreDistances {
				out = append(out, core.PanelRequest{Dataset: populationName, Function: fn, Attributes: attrs, Distance: dist})
			}
		}
	}
	return out
}

// exploreEnv is one set-up: the populations, the served session and,
// for the traced pass, a twin session that sees the same requests.
type exploreEnv struct {
	pop, short *fairank.Dataset
	lb         *loopback
	twin       *core.Session
}

// newSession registers the datasets the way fairankd does (table1 plus
// the preset), plus the shortlist.
func (e *exploreEnv) newSession() (*core.Session, error) {
	sess := core.NewSession()
	if err := sess.AddDataset("table1", fairank.Table1()); err != nil {
		return nil, err
	}
	if err := sess.AddDataset(populationName, e.pop); err != nil {
		return nil, err
	}
	if err := sess.AddDataset(shortlistName, e.short); err != nil {
		return nil, err
	}
	return sess, nil
}

// setupExplore generates the populations, starts the server and primes
// its cache with the revisit pool (and the twin's, when traced).
func setupExplore(cfg exploreConfig, traced bool) (*exploreEnv, error) {
	m, err := marketplace.PresetByName(populationName, cfg.Rows, 1)
	if err != nil {
		return nil, err
	}
	s, err := marketplace.PresetByName(populationName, cfg.Shortlist, 2)
	if err != nil {
		return nil, err
	}
	e := &exploreEnv{pop: m.Workers, short: s.Workers}
	sess, err := e.newSession()
	if err != nil {
		return nil, err
	}
	if e.lb, err = startServer(sess, "", 1); err != nil {
		return nil, err
	}
	if traced {
		if e.twin, err = e.newSession(); err != nil {
			e.lb.close()
			return nil, err
		}
		e.twin.SetCacheLimit(fairankdCacheScopes)
	}
	for _, req := range explorePool() {
		status, body, err := e.lb.post("/api/quantify", req)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("priming quantify: status %d: %s", status, body)
		}
		if err == nil && e.twin != nil {
			_, err = e.twin.Quantify(req)
		}
		if err != nil {
			e.lb.close()
			return nil, err
		}
	}
	return e, nil
}

// exploreSample is one request's measured outcome and parsed answer.
// twin is the traced replay's time before the request was sent.
type exploreSample struct {
	lat, twin time.Duration
	status    int
	err       error
	quantify  *quantifyAnswer
	mitigate  *mitigateAnswer
}

// send issues one request and parses its answer.
func (e *exploreEnv) send(op exploreOp) (int, []byte, error) {
	if op.Route == "quantify" {
		return e.lb.post("/api/quantify", op.Quantify)
	}
	return e.lb.post("/api/mitigate", op.Mitigate)
}

func parseAnswer(op exploreOp, s *exploreSample, body []byte) {
	if s.err != nil || s.status != http.StatusOK {
		return
	}
	if op.Route == "quantify" {
		s.quantify = new(quantifyAnswer)
		s.err = json.Unmarshal(body, s.quantify)
	} else {
		s.mitigate = new(mitigateAnswer)
		s.err = json.Unmarshal(body, s.mitigate)
	}
}

// closedLoop sends ops one at a time over one connection: the first
// warmup back to back, the rest with a think pause between an answer
// and the next request until d has passed. It returns the samples of
// every op it sent and the measured ops' wall time. step sends one op.
func closedLoop(ops []exploreOp, warmup int, think *thinker, d time.Duration, step func(i int) (exploreSample, error)) ([]exploreSample, time.Duration, error) {
	var samples []exploreSample
	start := time.Now()
	for i := 0; i < len(ops) && (i <= warmup || time.Since(start) < d); i++ {
		if i == warmup {
			start = time.Now()
		} else if i > warmup {
			think.pause()
		}
		s, err := step(i)
		if err != nil {
			return samples, time.Since(start), err
		}
		samples = append(samples, s)
	}
	return samples, time.Since(start), nil
}

// timedOp sends one request and times it from send to last byte.
func (e *exploreEnv) timedOp(op exploreOp) exploreSample {
	start := time.Now()
	var s exploreSample
	var body []byte
	s.status, body, s.err = e.send(op)
	s.lat = time.Since(start)
	parseAnswer(op, &s, body)
	return s
}

// maxOps bounds how many requests a pass of d can send: every request
// but the first follows a pause of at least half the mean think time.
func maxOps(think, d time.Duration) int {
	if think <= 0 {
		return 100000
	}
	return int(d/(think/2)) + 1
}

// runExplore runs the explore workload: an untraced closed-loop pass
// and, with tracing, a traced replay on a fresh set-up.
func runExplore(cfg exploreConfig, o options) (*outcome, error) {
	ops := exploreTrace(o.seed, cfg.Warmup+maxOps(cfg.Think, o.seconds))
	out := &outcome{e2e: map[string]float64{}, layers: map[string]float64{}, record: map[string]any{}}

	env, setup, err := repeatSetup(cfg.SetupReps, o.trace,
		func() (*exploreEnv, error) { return setupExplore(cfg, false) },
		func(e *exploreEnv) { e.lb.close() })
	if err != nil {
		return nil, err
	}
	out.e2e["setup_s"] = setup

	t := tallies{}
	var samples []exploreSample
	var wall time.Duration
	var rt0, rt1 rtSample
	before, after, err := env.lb.scrapeWindow(t, func() error {
		rt0 = readRuntime()
		heap := heapProbe{first: cfg.Warmup + cfg.HeapAt}
		samples, wall, _ = closedLoop(ops, cfg.Warmup, newThinker(cfg.Think, o.seed), o.seconds,
			func(i int) (exploreSample, error) {
				heap.before(i)
				return env.timedOp(ops[i]), nil
			})
		heap.fill(out.e2e)
		rt1 = readRuntime()
		for i, s := range samples {
			t.add(ops[i].Route, s.status)
		}
		return nil
	})
	if err != nil {
		env.lb.close()
		return nil, err
	}
	env.lb.close()

	sp := splitExplore(ops, samples, cfg.Warmup)
	out.attempted += len(samples)
	out.failed += sp.failed
	classMeans(out.e2e, sp.light, sp.medium, sp.heavy)
	quantify := append(append([]time.Duration(nil), sp.light...), sp.medium...)
	mitigates := append(append([]time.Duration(nil), sp.heavy...), sp.lp...)
	out.named = append(out.named, latencyNamed("quantify", quantify)...)
	out.named = append(out.named, latencyNamed("mitigate", mitigates)...)
	out.named = append(out.named, latencyNamed("exposure_lp", sp.lp)...)
	out.record["think_ms"] = ms(cfg.Think)
	measured := len(samples) - cfg.Warmup
	out.record["warmup_requests"] = cfg.Warmup
	out.record["requests"] = measured
	out.record["requests_per_s"] = float64(measured) / wall.Seconds()
	out.record["quantify_samples"] = len(quantify)
	out.record["mitigate_samples"] = len(mitigates)
	out.record["routes"] = t.summary()

	checker, err := newExploreChecker(env)
	if err != nil {
		return nil, err
	}
	rejected, err := checker.check(ops[:len(samples)], samples)
	if err != nil {
		return nil, err
	}
	out.rejected += rejected
	out.failed += rejected

	if !o.trace {
		return out, nil
	}

	// The scraped and runtime layers come from the untraced pass: that
	// is where the load contends for admission slots and the heap.
	serverLayers(out.layers, before, after)
	runtimeLayers(out.layers, rt1.since(rt0), len(samples))

	tenv, err := setupExplore(cfg, true)
	if err != nil {
		return nil, err
	}
	defer tenv.lb.close()
	tr := newTracer()
	tt := tallies{}
	var traced []exploreSample
	// requests times each answered request alone, withTwin the same
	// operation with its twin replay: their medians give the cost of
	// tracing on one basis.
	var requests, withTwin []time.Duration
	if _, _, err := tenv.lb.scrapeWindow(tt, func() error {
		var err error
		warmTr := newTracer() // the warm-up's layer figures are dropped
		traced, _, err = closedLoop(ops, cfg.Warmup, newThinker(cfg.Think, o.seed), o.seconds, func(i int) (exploreSample, error) {
			into := tr
			if i < cfg.Warmup {
				into = warmTr
			}
			s, err := tenv.tracedOp(into, i, ops[i])
			if err != nil {
				return s, err
			}
			tt.add(ops[i].Route, s.status)
			if i >= cfg.Warmup && !failedStatus(s.status, s.err) {
				requests = append(requests, s.lat)
				withTwin = append(withTwin, s.twin+s.lat)
			}
			return s, nil
		})
		return err
	}); err != nil {
		return nil, err
	}
	out.attempted += len(traced)
	out.failed += splitExplore(ops, traced, cfg.Warmup).failed
	rejected, err = checker.check(ops[:len(traced)], traced)
	if err != nil {
		return nil, err
	}
	out.rejected += rejected
	out.failed += rejected
	out.layers["core.cache_scopes"] = float64(tenv.twin.SharedCache().Scopes())
	out.layers["trace_overhead_pct"] = overheadPct(requests, withTwin)
	tr.medians(out.layers)
	out.spans = tr.spans
	out.record["traced_requests"] = len(traced)
	return out, nil
}

// exploreSplit is one pass's samples sorted by outcome. A failed
// request counts in failed and in no latency series, so a fast error
// cannot pass for a fast answer; warm-up requests count only if they
// failed. light holds the pool revisits, medium
// the fresh quantifies, heavy the mitigations over the population and
// lp the exposure-lp runs.
//
// No gated class holds the exposure-lp runs. On a shared 2-core VM their
// median swings with the host's CPU speed by more than any bound the
// benchmark may set: its spread (interquartile range over the median,
// across seeds) measured 0.15-0.27, while the quantify and mitigation
// figures of the same runs spread 0.04-0.11. The traced exposure.*
// layers show the LP's cost, and the run record its latencies once a
// pass holds enough of them.
type exploreSplit struct {
	failed                   int
	light, medium, heavy, lp []time.Duration
}

func splitExplore(ops []exploreOp, samples []exploreSample, warmup int) exploreSplit {
	var sp exploreSplit
	for i, s := range samples {
		if failedStatus(s.status, s.err) {
			sp.failed++
			continue
		}
		if i < warmup {
			continue
		}
		switch ops[i].Class {
		case classRevisit:
			sp.light = append(sp.light, s.lat)
		case classFresh:
			sp.medium = append(sp.medium, s.lat)
		case classMitigate:
			sp.heavy = append(sp.heavy, s.lat)
		default:
			sp.lp = append(sp.lp, s.lat)
		}
	}
	return sp
}

// tracedOp replays one request: the handler's layer calls on the twin
// session, each timed as a span, then the request itself over one
// connection. The server's self time is the request latency minus the
// twin's spans for the calls the handler makes.
func (e *exploreEnv) tracedOp(tr *tracer, i int, op exploreOp) (exploreSample, error) {
	ctx := context.Background()
	opStart := time.Now()
	var handler time.Duration
	var err error
	if op.Route == "quantify" {
		var rp *core.Resolved
		handler += tr.timed(i, "core.resolve", "op", func() { rp, err = e.twin.Resolve(op.Quantify) })
		if err != nil {
			return exploreSample{}, err
		}
		var res *core.Result
		dq := tr.timed(i, "core.quantify", "op", func() { res, err = core.QuantifyContext(ctx, rp.Data, rp.Scores, rp.Config) })
		if err != nil {
			return exploreSample{}, err
		}
		handler += dq
		e.twin.AddPanel(op.Quantify.Dataset, rp, res)
		dr := tr.timed(i, "report.render", "op", func() {
			report.RenderResult(res, rp.Scores, report.ResultOptions{Histograms: true, Pairwise: true})
		})
		handler += dr
		tr.add("core.resolve_ms", ms(handler-dq-dr))
		tr.add("core.quantify_ms", ms(dq))
		tr.add("report.render_ms", ms(dr))
		tr.addStats(res.Stats)
		if err := layerFairness(tr, i, rp, res.Groups); err != nil {
			return exploreSample{}, err
		}
	} else {
		var rp *core.Resolved
		handler += tr.timed(i, "core.resolve", "op", func() { rp, err = e.twin.Resolve(op.Mitigate.PanelRequest) })
		if err != nil {
			return exploreSample{}, err
		}
		tr.add("core.resolve_ms", ms(handler))
		var o *mitigate.Outcome
		opts := mitigate.Options{Strategy: op.Mitigate.Strategy, Seed: op.Mitigate.Seed}
		de := tr.timed(i, "mitigate.evaluate", "op", func() { o, err = mitigate.EvaluateContext(ctx, rp.Data, rp.Scores, rp.Config, opts) })
		if err != nil {
			return exploreSample{}, err
		}
		dm := tr.timed(i, "report.mitigation", "op", func() { _, err = report.MitigationTable(o) })
		if err != nil {
			return exploreSample{}, err
		}
		handler += de + dm
		mrp := *rp
		mrp.Scores = o.Scores
		e.twin.AddPanel(op.Mitigate.Dataset, &mrp, o.AfterResult)
		tr.add("mitigate.evaluate_ms", ms(de))
		tr.add("report.mitigation_ms", ms(dm))
		if err := layerRerank(tr, i, op.Mitigate, rp.Scores, o); err != nil {
			return exploreSample{}, err
		}
	}

	start := time.Now()
	status, body, err := e.send(op)
	s := exploreSample{lat: time.Since(start), twin: start.Sub(opStart), status: status, err: err}
	tr.spans = append(tr.spans, span{Op: i, Name: "server." + op.Route, Parent: "op",
		Start: start.Sub(tr.t0).Nanoseconds(), End: start.Add(s.lat).Sub(tr.t0).Nanoseconds()})
	parseAnswer(op, &s, body)
	self := ms(s.lat - handler)
	if op.Route == "quantify" {
		tr.add("server.quantify_self_ms", self)
		tr.add("server.response_kb", float64(len(body))/1e3)
	} else {
		tr.add("server.mitigate_self_ms", self)
	}
	return s, nil
}

// layerFairness times the fairness and emd layers over the request's
// final groups: one histogram per group, then every pairwise distance
// under each distance the workload uses.
func layerFairness(tr *tracer, i int, rp *core.Resolved, groups []partition.Group) error {
	m := rp.Config.Measure
	hists := make([]fairank.Hist, len(groups))
	var err error
	d := tr.timed(i, "fairness.histograms", "op", func() {
		for g := range groups {
			if hists[g], err = m.Histogram(rp.Scores, groups[g].Rows); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	tr.add("fairness.histograms_ms", ms(d))
	for _, name := range exploreDistances {
		dist, err := fairness.DistanceByName(name)
		if err != nil {
			return err
		}
		dm := fairness.Measure{Dist: dist, Agg: m.Agg, Bins: m.Bins, Lo: m.Lo, Hi: m.Hi}
		d := tr.timed(i, "emd.pairwise."+name, "op", func() {
			for a := range hists {
				for b := a + 1; b < len(hists); b++ {
					if _, err = dm.PairwiseDistance(hists[a], hists[b]); err != nil {
						return
					}
				}
			}
		})
		if err != nil {
			return err
		}
		tr.add("emd.pairwise_ms."+name, ms(d))
	}
	return nil
}

// layerRerank times the strategy alone on the before-partition the
// evaluation discovered and, for exposure-lp, the LP solve and its
// decomposition.
func layerRerank(tr *tracer, i int, req mitigateBody, scores []float64, o *mitigate.Outcome) error {
	pseudo, err := scoring.PseudoScores(scores)
	if err != nil {
		return err
	}
	groups := make([][]int, len(o.BeforeResult.Groups))
	for g, grp := range o.BeforeResult.Groups {
		groups[g] = grp.Rows
	}
	m, err := mitigate.ByName(req.Strategy)
	if err != nil {
		return err
	}
	in := mitigate.Input{Scores: pseudo, Groups: groups, K: o.K, Seed: req.Seed}
	d := tr.timed(i, "mitigate.rerank", "op", func() { _, err = m.Rerank(in) })
	if err != nil {
		return err
	}
	tr.add("mitigate.rerank_ms", ms(d))
	if req.Strategy != "exposure-lp" {
		return nil
	}
	var sol *exposure.Solution
	d = tr.timed(i, "exposure.solve", "op", func() { sol, err = exposure.Solve(pseudo, groups, exposureFloor, exposure.Config{}) })
	if err != nil {
		return err
	}
	var comps []exposure.Component
	dd := tr.timed(i, "exposure.decompose", "op", func() { comps, err = sol.Decompose() })
	if err != nil {
		return err
	}
	tr.add("exposure.solve_ms", ms(d))
	tr.add("exposure.decompose_ms", ms(dd))
	tr.add("exposure.support", float64(len(comps)))
	return nil
}

// quantifyAnswer is the part of a POST /api/quantify answer the checker
// reads.
type quantifyAnswer struct {
	Unfairness float64   `json:"unfairness"`
	Partitions int       `json:"partitions"`
	Tree       *treeJSON `json:"tree"`
}

type treeJSON struct {
	Label    string      `json:"label"`
	Children []*treeJSON `json:"children"`
}

// leaves lists the tree's leaf labels in depth-first order.
func (t *treeJSON) leaves(out []string) []string {
	if t == nil {
		return out
	}
	if len(t.Children) == 0 {
		return append(out, t.Label)
	}
	for _, c := range t.Children {
		out = c.leaves(out)
	}
	return out
}

// mitigateAnswer is the part of a POST /api/mitigate answer the checker
// reads.
type mitigateAnswer struct {
	Strategy     string     `json:"strategy"`
	K            int        `json:"k"`
	Before       sideAnswer `json:"before"`
	After        sideAnswer `json:"after"`
	Distribution *struct {
		Support       int       `json:"support"`
		Weights       []float64 `json:"weights"`
		ExpectedRatio float64   `json:"expected_ratio"`
	} `json:"distribution"`
}

type sideAnswer struct {
	Unfairness    float64 `json:"unfairness"`
	ParityGap     float64 `json:"parity_gap"`
	ExposureRatio float64 `json:"exposure_ratio"`
	Groups        []struct {
		Label     string `json:"label"`
		Size      int    `json:"size"`
		TopKCount int    `json:"top_k_count"`
	} `json:"groups"`
}

// exploreChecker computes each distinct request's library reference
// once, outside the timed region, on a session with no shared cache.
type exploreChecker struct {
	ref      *core.Session
	quantify map[string]*core.Result
	mitigate map[string]*mitigate.Outcome
}

func newExploreChecker(e *exploreEnv) (*exploreChecker, error) {
	ref, err := e.newSession()
	if err != nil {
		return nil, err
	}
	return &exploreChecker{ref: ref, quantify: map[string]*core.Result{}, mitigate: map[string]*mitigate.Outcome{}}, nil
}

// resolveCold resolves a request and detaches the session cache, so the
// reference is a cold solve.
func (c *exploreChecker) resolveCold(req core.PanelRequest) (*core.Resolved, error) {
	rp, err := c.ref.Resolve(req)
	if err != nil {
		return nil, err
	}
	rp.Config.Cache = nil
	return rp, nil
}

// check verifies every successful answer and returns how many were
// rejected. An error means a reference could not be computed.
func (c *exploreChecker) check(ops []exploreOp, samples []exploreSample) (int, error) {
	rejected := 0
	for i, s := range samples {
		if failedStatus(s.status, s.err) {
			continue
		}
		op := ops[i]
		var bad error
		if op.Route == "quantify" {
			ref, ok := c.quantify[op.key()]
			if !ok {
				rp, err := c.resolveCold(op.Quantify)
				if err != nil {
					return 0, err
				}
				if ref, err = core.Quantify(rp.Data, rp.Scores, rp.Config); err != nil {
					return 0, err
				}
				c.quantify[op.key()] = ref
			}
			bad = checkQuantify(s.quantify, ref)
		} else {
			ref, ok := c.mitigate[op.key()]
			if !ok {
				rp, err := c.resolveCold(op.Mitigate.PanelRequest)
				if err != nil {
					return 0, err
				}
				ref, err = mitigate.Evaluate(rp.Data, rp.Scores, rp.Config, mitigate.Options{Strategy: op.Mitigate.Strategy, Seed: op.Mitigate.Seed})
				if err != nil {
					return 0, err
				}
				c.mitigate[op.key()] = ref
			}
			bad = checkMitigate(s.mitigate, ref, len(ref.Scores))
		}
		if bad != nil {
			rejected++
			if rejected <= 3 {
				fmt.Printf("rejected %s request %d: %v\n", op.Route, i, bad)
			}
		}
	}
	return rejected, nil
}

// refLeaves lists a result's leaf labels in the order the server's tree
// walk emits them.
func refLeaves(res *core.Result) []string {
	var out []string
	var walk func(n *partition.Node)
	walk = func(n *partition.Node) {
		if n.IsLeaf() {
			out = append(out, n.Group.Label())
			return
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	if res.Tree != nil {
		walk(res.Tree.Root)
	}
	return out
}

// checkQuantify accepts an answer whose unfairness and group labels
// equal the cold reference's.
func checkQuantify(a *quantifyAnswer, ref *core.Result) error {
	if a == nil {
		return fmt.Errorf("no answer")
	}
	if a.Unfairness != ref.Unfairness {
		return fmt.Errorf("unfairness %v, reference %v", a.Unfairness, ref.Unfairness)
	}
	if a.Partitions != len(ref.Groups) {
		return fmt.Errorf("%d partitions, reference %d", a.Partitions, len(ref.Groups))
	}
	got, want := a.Tree.leaves(nil), refLeaves(ref)
	if len(got) != len(want) {
		return fmt.Errorf("%d leaves, reference %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("leaf %d is %q, reference %q", i, got[i], want[i])
		}
	}
	return nil
}

// isPermutation reports whether r is a permutation of 0..n-1.
func isPermutation(r []int, n int) bool {
	if len(r) != n {
		return false
	}
	seen := make([]bool, n)
	for _, v := range r {
		if v < 0 || v >= n || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

// checkMitigate accepts an answer whose before/after comparison equals
// the reference's, whose rankings are permutations (every group
// accounted for, exactly k rows in the top k), and, for exposure-lp,
// whose worst expected exposure ratio is at or above the floor.
func checkMitigate(a *mitigateAnswer, ref *mitigate.Outcome, n int) error {
	if a == nil {
		return fmt.Errorf("no answer")
	}
	if !isPermutation(ref.Ranking, n) {
		return fmt.Errorf("reference ranking is not a permutation")
	}
	if a.Strategy != ref.Strategy || a.K != ref.K {
		return fmt.Errorf("strategy %s k=%d, reference %s k=%d", a.Strategy, a.K, ref.Strategy, ref.K)
	}
	sides := []struct {
		name string
		got  sideAnswer
		want mitigate.Metrics
	}{{"before", a.Before, ref.Before}, {"after", a.After, ref.After}}
	for _, sd := range sides {
		if sd.got.Unfairness != sd.want.Unfairness || sd.got.ParityGap != sd.want.ParityGap || sd.got.ExposureRatio != sd.want.ExposureRatio {
			return fmt.Errorf("%s metrics %v/%v/%v, reference %v/%v/%v", sd.name,
				sd.got.Unfairness, sd.got.ParityGap, sd.got.ExposureRatio, sd.want.Unfairness, sd.want.ParityGap, sd.want.ExposureRatio)
		}
		if len(sd.got.Groups) != len(ref.GroupLabels) {
			return fmt.Errorf("%s has %d groups, reference %d", sd.name, len(sd.got.Groups), len(ref.GroupLabels))
		}
		size, top := 0, 0
		for g, gr := range sd.got.Groups {
			if gr.Label != ref.GroupLabels[g] {
				return fmt.Errorf("%s group %d is %q, reference %q", sd.name, g, gr.Label, ref.GroupLabels[g])
			}
			size += gr.Size
			top += gr.TopKCount
		}
		if size != n || top != a.K {
			return fmt.Errorf("%s ranking is not a permutation: groups cover %d of %d rows, top-%d holds %d", sd.name, size, n, a.K, top)
		}
	}
	if ref.Strategy != "exposure-lp" {
		return nil
	}
	d := a.Distribution
	if d == nil || ref.Distribution == nil {
		return fmt.Errorf("exposure-lp answer without a distribution")
	}
	for _, r := range ref.Distribution.Rankings {
		if !isPermutation(r, n) {
			return fmt.Errorf("reference support ranking is not a permutation")
		}
	}
	if d.ExpectedRatio < exposureFloor-1e-9 || math.IsNaN(d.ExpectedRatio) {
		return fmt.Errorf("worst expected exposure ratio %v below the floor %v", d.ExpectedRatio, exposureFloor)
	}
	if d.ExpectedRatio != ref.Distribution.ExpectedRatio || d.Support != len(ref.Distribution.Rankings) || len(d.Weights) != d.Support {
		return fmt.Errorf("distribution ratio %v support %d, reference %v support %d",
			d.ExpectedRatio, d.Support, ref.Distribution.ExpectedRatio, len(ref.Distribution.Rankings))
	}
	return nil
}
