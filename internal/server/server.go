// Package server exposes FaiRank's interactive exploration over HTTP:
// a JSON API plus an embedded single-page UI reproducing the workflow
// of the paper's Figure 3 — a Configuration box (dataset, scoring
// function, fairness criterion, filters), side-by-side result panels
// with partitioning trees, and per-node statistics.
//
// POST /api/mitigate closes the explore-and-repair loop server-side:
// it quantifies the most unfair partitioning, re-ranks it with a
// mitigation strategy (FA*IR, constrained interleaving or exposure
// capping; see internal/mitigate), re-quantifies the mitigated
// ranking, and registers the result as a panel next to the
// explorations that led to it.
//
// POST /api/audit scales that loop to a whole marketplace: every job
// of a generated preset (or every supplied function over a registered
// dataset) is quantified, mitigated and re-quantified over a bounded
// worker pool, and the response carries the per-job before/after
// fairness, the NDCG@k utility loss, the marketplace rollups
// (worst-N jobs, attribute hotspots, infeasible tally) and an HTML
// summary table for the UI.
//
// Quantify requests accept a Workers field bounding the solver's
// concurrency (0 = GOMAXPROCS, 1 = sequential); every worker count
// produces an identical response. All requests against one server
// share the session's memoization cache, so repeated or overlapping
// explorations reuse histogram and EMD work across requests (except
// requests with Filter or Normalize, whose derived populations are
// request-local).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/anonymize"
	"repro/internal/auditstore"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/faultinject"
	"repro/internal/histogram"
	"repro/internal/marketplace"
	"repro/internal/mitigate"
	"repro/internal/obsv"
	"repro/internal/partition"
	"repro/internal/report"
)

// Server wires a core.Session to HTTP handlers.
type Server struct {
	sess   *core.Session
	mux    *http.ServeMux
	store  *auditstore.Store
	limits Limits
	faults *faultinject.Injector

	// Admission control + lifecycle state (see robust.go).
	readSem     *semaphore
	heavySem    *semaphore
	drainCtx    context.Context
	drainCancel context.CancelFunc
	flights     flightGroup

	// Observability (see metrics.go): every counter the old atomics
	// held now lives in the registry, so /metrics, /api/health, logs
	// and the load generator read one source of truth.
	reg    *obsv.Registry
	tracer *obsv.Tracer
	m      *serverMetrics
	log    *slog.Logger
	rid    atomic.Uint64
}

// Option configures optional server subsystems.
type Option func(*Server)

// WithAuditStore enables the audit lifecycle endpoints: POST
// /api/audit persists every report as a versioned snapshot (and
// re-audits incrementally against the previous one), and GET
// /api/audit/history serves the stored lineages and their
// longitudinal diffs.
func WithAuditStore(st *auditstore.Store) Option {
	return func(s *Server) { s.store = st }
}

// New returns a server over the given session.
func New(sess *core.Session, opts ...Option) *Server {
	s := &Server{
		sess:   sess,
		mux:    http.NewServeMux(),
		limits: Limits{}.withDefaults(),
		reg:    obsv.NewRegistry(),
		tracer: obsv.NewTracer(traceRingSize),
		log:    slog.New(slog.DiscardHandler),
	}
	for _, o := range opts {
		o(s)
	}
	s.readSem = newSemaphore(s.limits.MaxReads)
	s.heavySem = newSemaphore(s.limits.MaxHeavy)
	s.drainCtx, s.drainCancel = context.WithCancel(context.Background())
	s.m = newServerMetrics(s.reg)
	s.tracer.CountRecorded(s.m.traces)
	if s.store != nil {
		s.store.SetObserver(s.reg)
	}
	// Liveness numbers export as gauge functions — sampled at scrape
	// time, never maintained on the request path.
	s.reg.GaugeFunc("fairankd_draining", func() float64 {
		if s.draining() {
			return 1
		}
		return 0
	})
	s.reg.GaugeFunc("fairankd_inflight", func() float64 { return float64(s.readSem.inflight()) },
		obsv.Label{Key: "class", Value: "read"})
	s.reg.GaugeFunc("fairankd_inflight", func() float64 { return float64(s.heavySem.inflight()) },
		obsv.Label{Key: "class", Value: "heavy"})
	s.reg.GaugeFunc("fairank_core_cache_scopes", func() float64 {
		return float64(s.sess.SharedCache().Scopes())
	})
	l := s.limits
	s.mux.HandleFunc("GET /", s.guard("index", classRead, 0, s.handleIndex))
	// Health, metrics and traces stay unguarded: a probe or scrape
	// must never be shed, counted as traffic, or refused during drain.
	s.mux.HandleFunc("GET /api/health", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /api/traces", s.handleTraces)
	s.mux.HandleFunc("GET /api/datasets", s.guard("datasets", classRead, 0, s.handleDatasets))
	s.mux.HandleFunc("POST /api/datasets/generate", s.guard("generate", classHeavy, l.QuantifyTimeout, s.handleGenerate))
	s.mux.HandleFunc("POST /api/datasets/anonymize", s.guard("anonymize", classHeavy, l.QuantifyTimeout, s.handleAnonymize))
	s.mux.HandleFunc("POST /api/quantify", s.guard("quantify", classHeavy, l.QuantifyTimeout, s.handleQuantify))
	s.mux.HandleFunc("POST /api/mitigate", s.guard("mitigate", classHeavy, l.QuantifyTimeout, s.handleMitigate))
	s.mux.HandleFunc("POST /api/audit", s.guard("audit", classHeavy, l.AuditTimeout, s.handleAudit))
	// Streams carry no route deadline — they are the designed way to
	// run long audits — and instead heartbeat (see stream.go) and die
	// with their client.
	s.mux.HandleFunc("GET /api/audit/stream", s.guard("audit_stream", classHeavy, 0, s.handleAuditStream))
	s.mux.HandleFunc("GET /api/audit/history", s.guard("audit_history", classRead, 0, s.handleAuditHistory))
	s.mux.HandleFunc("GET /api/panels", s.guard("panels", classRead, 0, s.handlePanels))
	s.mux.HandleFunc("GET /api/panels/{id}", s.guard("panel", classRead, 0, s.handlePanel))
	s.mux.HandleFunc("DELETE /api/panels/{id}", s.guard("panel_delete", classRead, 0, s.handlePanelDelete))
	return s
}

// Handler returns the root http.Handler.
func (s *Server) Handler() http.Handler { return s.mux }

// apiError is the JSON error envelope. RequestID carries the same ID
// as the X-Request-Id header (and the request's trace), so an error a
// client pastes into a report is correlatable with server logs.
// Coalesced followers replay the leader's bytes, which have no
// request ID of their own (see errBody).
type apiError struct {
	Error     string `json:"error"`
	RequestID string `json:"request_id,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Too late for a status change; the client sees a truncated
		// body and retries.
		return
	}
}

func writeErr(w http.ResponseWriter, r *http.Request, status int, err error) {
	writeJSON(w, status, apiError{Error: err.Error(), RequestID: requestID(r.Context())})
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, indexHTML)
}

// datasetInfo describes a dataset for the configuration box.
type datasetInfo struct {
	Name       string     `json:"name"`
	Rows       int        `json:"rows"`
	Attributes []attrInfo `json:"attributes"`
}

type attrInfo struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	Role string `json:"role"`
}

func (s *Server) handleDatasets(w http.ResponseWriter, r *http.Request) {
	var out []datasetInfo
	for _, name := range s.sess.DatasetNames() {
		d, err := s.sess.Dataset(name)
		if err != nil {
			writeErr(w, r, http.StatusInternalServerError, err)
			return
		}
		info := datasetInfo{Name: name, Rows: d.Len()}
		for i := 0; i < d.Schema().Len(); i++ {
			a := d.Schema().At(i)
			info.Attributes = append(info.Attributes, attrInfo{Name: a.Name, Kind: a.Kind.String(), Role: a.Role.String()})
		}
		out = append(out, info)
	}
	writeJSON(w, http.StatusOK, out)
}

// generateRequest asks for a synthetic marketplace population.
type generateRequest struct {
	Name   string `json:"name"`
	Preset string `json:"preset"`
	N      int    `json:"n"`
	Seed   uint64 `json:"seed"`
}

func (s *Server) handleGenerate(w http.ResponseWriter, r *http.Request) {
	var req generateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, r, http.StatusBadRequest, fmt.Errorf("server: decoding request: %w", err))
		return
	}
	if req.N <= 0 {
		req.N = 1000
	}
	if req.Seed == 0 {
		req.Seed = 1
	}
	m, err := marketplace.PresetByName(req.Preset, req.N, req.Seed)
	if err != nil {
		writeErr(w, r, http.StatusBadRequest, err)
		return
	}
	name := req.Name
	if name == "" {
		name = m.Name
	}
	if err := s.sess.AddDataset(name, m.Workers); err != nil {
		writeErr(w, r, http.StatusBadRequest, err)
		return
	}
	jobs := make([]string, 0, len(m.Jobs))
	for _, j := range m.Jobs {
		jobs = append(jobs, fmt.Sprintf("%s: %s", j.Name, j.Function))
	}
	writeJSON(w, http.StatusOK, map[string]any{"name": name, "rows": m.Workers.Len(), "jobs": jobs})
}

// anonymizeRequest asks for a k-anonymized copy of a dataset.
type anonymizeRequest struct {
	Dataset   string `json:"dataset"`
	Name      string `json:"name"`
	K         int    `json:"k"`
	Algorithm string `json:"algorithm"` // "mondrian" (default) or "datafly"
}

func (s *Server) handleAnonymize(w http.ResponseWriter, r *http.Request) {
	var req anonymizeRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, r, http.StatusBadRequest, fmt.Errorf("server: decoding request: %w", err))
		return
	}
	d, err := s.sess.Dataset(req.Dataset)
	if err != nil {
		writeErr(w, r, http.StatusNotFound, err)
		return
	}
	if req.K < 2 {
		writeErr(w, r, http.StatusBadRequest, fmt.Errorf("server: k must be >= 2, got %d", req.K))
		return
	}
	quasi := d.Schema().Protected()
	if len(quasi) == 0 {
		writeErr(w, r, http.StatusBadRequest, fmt.Errorf("server: dataset %q has no protected attributes", req.Dataset))
		return
	}
	var anon *dataset.Dataset
	switch req.Algorithm {
	case "", "mondrian":
		anon, err = anonymize.Mondrian(d, quasi, req.K)
	case "datafly":
		// Suppression-only hierarchies generated from the domains:
		// the zero-configuration Datafly an ARX user starts with.
		var hs []*anonymize.Hierarchy
		for _, q := range quasi {
			a, aerr := d.Schema().Attr(q)
			if aerr != nil {
				writeErr(w, r, http.StatusInternalServerError, aerr)
				return
			}
			if a.Kind != dataset.Categorical {
				continue
			}
			vals, verr := d.DistinctValues(q, nil)
			if verr != nil {
				writeErr(w, r, http.StatusInternalServerError, verr)
				return
			}
			h, herr := anonymize.SuppressionHierarchy(q, vals)
			if herr != nil {
				writeErr(w, r, http.StatusInternalServerError, herr)
				return
			}
			hs = append(hs, h)
		}
		if len(hs) == 0 {
			writeErr(w, r, http.StatusBadRequest, fmt.Errorf("server: no categorical protected attributes to generalize"))
			return
		}
		var res *anonymize.DataflyResult
		res, err = anonymize.Datafly(d, hs, req.K, d.Len()/20)
		if err == nil {
			anon = res.Data
		}
	default:
		writeErr(w, r, http.StatusBadRequest, fmt.Errorf("server: unknown algorithm %q", req.Algorithm))
		return
	}
	if err != nil {
		writeErr(w, r, http.StatusBadRequest, err)
		return
	}
	name := req.Name
	if name == "" {
		name = fmt.Sprintf("%s-k%d", req.Dataset, req.K)
	}
	if err := s.sess.AddDataset(name, anon); err != nil {
		writeErr(w, r, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"name": name, "rows": anon.Len()})
}

// panelSummary is the JSON form of a panel.
type panelSummary struct {
	ID         int       `json:"id"`
	Dataset    string    `json:"dataset"`
	Function   string    `json:"function"`
	Criterion  string    `json:"criterion"`
	Filter     string    `json:"filter,omitempty"`
	Population int       `json:"population"`
	Unfairness float64   `json:"unfairness"`
	Partitions int       `json:"partitions"`
	ElapsedMS  float64   `json:"elapsed_ms"`
	Tree       *treeNode `json:"tree,omitempty"`
	Text       string    `json:"text,omitempty"`
}

// treeNode is the JSON form of a partitioning tree node.
type treeNode struct {
	Label     string      `json:"label"`
	Size      int         `json:"size"`
	SplitAttr string      `json:"split_attr,omitempty"`
	MeanScore float64     `json:"mean_score"`
	Histogram []float64   `json:"histogram,omitempty"`
	Children  []*treeNode `json:"children,omitempty"`
}

func buildTree(p *core.Panel) *treeNode {
	if p.Result.Tree == nil {
		return nil
	}
	hists := make(map[partition.Key]histogram.Hist, len(p.Result.Groups))
	for i, g := range p.Result.Groups {
		hists[g.Key()] = p.Result.Hists[i]
	}
	var walk func(n *partition.Node) *treeNode
	walk = func(n *partition.Node) *treeNode {
		out := &treeNode{
			Label:     n.Group.Label(),
			Size:      n.Group.Size(),
			SplitAttr: n.SplitAttr,
			MeanScore: report.MeanScore(n.Group, p.Scores),
		}
		if h, ok := hists[n.Group.Key()]; ok && n.IsLeaf() {
			out.Histogram = append([]float64(nil), h.Counts...)
		}
		for _, c := range n.Children {
			out.Children = append(out.Children, walk(c))
		}
		return out
	}
	return walk(p.Result.Tree.Root)
}

func toSummary(p *core.Panel, includeDetail bool) panelSummary {
	out := panelSummary{
		ID:         p.ID,
		Dataset:    p.Dataset,
		Function:   p.Function,
		Criterion:  p.Criterion,
		Filter:     p.Filter,
		Population: p.Population,
		Unfairness: p.Result.Unfairness,
		Partitions: len(p.Result.Groups),
		ElapsedMS:  float64(p.Result.Stats.Elapsed.Microseconds()) / 1000,
	}
	if includeDetail {
		out.Tree = buildTree(p)
		out.Text = report.RenderResult(p.Result, p.Scores, report.ResultOptions{Histograms: true, Pairwise: true})
	}
	return out
}

func (s *Server) handleQuantify(w http.ResponseWriter, r *http.Request) {
	var req core.PanelRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, r, http.StatusBadRequest, fmt.Errorf("server: decoding request: %w", err))
		return
	}
	// Identical concurrent requests coalesce onto one solver run: the
	// leader quantifies (registering one panel), followers replay its
	// bytes — request-level single-flight on top of the memoized
	// engine cache.
	status, body, shared := s.flights.do(r.Context(), flightKey("quantify", req), func() (int, []byte) {
		if err := s.faults.HitContext(r.Context(), "server.quantify"); err != nil {
			return errBody(http.StatusInternalServerError, fmt.Errorf("server: %w", err))
		}
		p, err := s.sess.QuantifyContext(r.Context(), req)
		if err != nil {
			if st := s.ctxStatus(r, err); st != 0 {
				return errBody(st, err)
			}
			return errBody(requestErrStatus(err), err)
		}
		s.publishStats(p.Result.Stats)
		st, b, ok := mustJSON(toSummary(p, true))
		if !ok {
			return st, b
		}
		return http.StatusOK, b
	})
	if shared {
		s.m.coalesced.Inc()
		obsv.SpanFromContext(r.Context()).Set("coalesced", true)
	}
	if body == nil {
		writeErr(w, r, status, fmt.Errorf("server: request abandoned while waiting for an identical in-flight request"))
		return
	}
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", retryAfterSeconds(s.limits.RetryAfter))
	}
	respond(w, status, body)
}

// requestErrStatus maps a panel-resolution error to its HTTP status:
// a missing dataset is the caller naming a resource that does not
// exist (404), everything else is a bad request.
func requestErrStatus(err error) int {
	if strings.Contains(err.Error(), "unknown dataset") {
		return http.StatusNotFound
	}
	return http.StatusBadRequest
}

// mitigateRequest configures one quantify → mitigate → re-quantify
// run: a panel request (which partitioning search to repair) plus the
// mitigation knobs.
type mitigateRequest struct {
	core.PanelRequest
	// Strategy is "fair" (default), "detgreedy", "detcons",
	// "exposure" or "exposure-lp".
	Strategy string
	// K is the top-k prefix the constraints apply to (0 = min(10, n)).
	K int
	// Alpha is the FA*IR family-wise significance level (default
	// 0.1), split across groups and exactly adjusted per group.
	Alpha float64
	// MinExposureRatio is the exposure strategy's floor (default 0.95).
	MinExposureRatio float64
	// Seed drives exposure-lp's ranking draw (0 = 1). Deterministic
	// strategies ignore it.
	Seed uint64
	// Targets maps group labels to target proportions (empty derives
	// population shares).
	Targets map[string]float64
}

// metricsJSON is the JSON form of one side of the before/after
// comparison.
type metricsJSON struct {
	Unfairness    float64         `json:"unfairness"`
	ParityGap     float64         `json:"parity_gap"`
	ExposureRatio float64         `json:"exposure_ratio"`
	Groups        []groupStatJSON `json:"groups"`
}

type groupStatJSON struct {
	Label         string  `json:"label"`
	Size          int     `json:"size"`
	TopKCount     int     `json:"top_k_count"`
	SelectionRate float64 `json:"selection_rate"`
	Exposure      float64 `json:"exposure"`
}

func toMetricsJSON(m mitigate.Metrics, labels []string) metricsJSON {
	out := metricsJSON{
		Unfairness:    m.Unfairness,
		ParityGap:     m.ParityGap,
		ExposureRatio: m.ExposureRatio,
		Groups:        make([]groupStatJSON, len(m.Stats)),
	}
	for i, gs := range m.Stats {
		out.Groups[i] = groupStatJSON{
			Label:         labels[i],
			Size:          gs.Size,
			TopKCount:     gs.TopKCount,
			SelectionRate: gs.SelectionRate,
			Exposure:      gs.Exposure,
		}
	}
	return out
}

// mitigateResponse is the JSON answer of POST /api/mitigate: the
// before/after comparison plus the panel registered for the mitigated
// ranking's re-quantification.
type mitigateResponse struct {
	Strategy string       `json:"strategy"`
	K        int          `json:"k"`
	Targets  []float64    `json:"targets"`
	Before   metricsJSON  `json:"before"`
	After    metricsJSON  `json:"after"`
	Utility  utilityJSON  `json:"utility"`
	Text     string       `json:"text"`
	Panel    panelSummary `json:"panel"`
	// Distribution is set only by stochastic strategies (exposure-lp):
	// the mixture the sampled ranking was drawn from, so clients can
	// report the in-expectation guarantee next to the realization.
	Distribution *distributionJSON `json:"distribution,omitempty"`
}

// distributionJSON is the JSON form of a stochastic strategy's ranking
// distribution.
type distributionJSON struct {
	Support          int       `json:"support"`
	Seed             uint64    `json:"seed"`
	Sampled          int       `json:"sampled"`
	Weights          []float64 `json:"weights"`
	ExpectedExposure []float64 `json:"expected_exposure"`
	ExpectedRatio    float64   `json:"expected_ratio"`
}

func toDistributionJSON(d *mitigate.Distribution) *distributionJSON {
	if d == nil {
		return nil
	}
	return &distributionJSON{
		Support:          len(d.Rankings),
		Seed:             d.Seed,
		Sampled:          d.Sampled,
		Weights:          d.Weights,
		ExpectedExposure: d.ExpectedExposure,
		ExpectedRatio:    d.ExpectedRatio,
	}
}

// utilityJSON is the JSON form of a mitigation's ranking-quality cost.
type utilityJSON struct {
	NDCG             float64 `json:"ndcg"`
	MeanDisplacement float64 `json:"mean_displacement"`
}

func (s *Server) handleMitigate(w http.ResponseWriter, r *http.Request) {
	var req mitigateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, r, http.StatusBadRequest, fmt.Errorf("server: decoding request: %w", err))
		return
	}
	if req.Exhaustive {
		// The harness discovers the partitioning with the greedy
		// engine; silently repairing a different partitioning than the
		// exact one asked for would be worse than refusing.
		writeErr(w, r, http.StatusBadRequest, fmt.Errorf("server: mitigation does not support the exhaustive solver"))
		return
	}
	if err := s.faults.HitContext(r.Context(), "server.mitigate"); err != nil {
		writeErr(w, r, http.StatusInternalServerError, fmt.Errorf("server: %w", err))
		return
	}
	rp, err := s.sess.Resolve(req.PanelRequest)
	if err != nil {
		writeErr(w, r, requestErrStatus(err), err)
		return
	}
	o, err := mitigate.EvaluateContext(r.Context(), rp.Data, rp.Scores, rp.Config, mitigate.Options{
		Strategy:         req.Strategy,
		K:                req.K,
		Targets:          req.Targets,
		Alpha:            req.Alpha,
		MinExposureRatio: req.MinExposureRatio,
		Seed:             req.Seed,
	})
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, mitigate.ErrInfeasible) {
			status = http.StatusUnprocessableEntity
		}
		if st := s.ctxStatus(r, err); st != 0 {
			status = st
			w.Header().Set("Retry-After", retryAfterSeconds(s.limits.RetryAfter))
		}
		writeErr(w, r, status, err)
		return
	}
	s.publishStats(o.BeforeResult.Stats)
	s.publishStats(o.AfterResult.Stats)
	text, err := report.MitigationTable(o)
	if err != nil {
		writeErr(w, r, http.StatusInternalServerError, err)
		return
	}
	// Publish the mitigated ranking's re-quantification as a regular
	// panel, so it sits side by side with the exploration panels that
	// led to it.
	mrp := *rp
	mrp.Function = fmt.Sprintf("%s [mitigated:%s]", rp.Function, o.Strategy)
	mrp.Scores = o.Scores
	p := s.sess.AddPanel(req.Dataset, &mrp, o.AfterResult)
	writeJSON(w, http.StatusOK, mitigateResponse{
		Strategy:     o.Strategy,
		K:            o.K,
		Targets:      o.Targets,
		Before:       toMetricsJSON(o.Before, o.GroupLabels),
		After:        toMetricsJSON(o.After, o.GroupLabels),
		Utility:      utilityJSON{NDCG: o.Utility.NDCG, MeanDisplacement: o.Utility.MeanDisplacement},
		Text:         text,
		Panel:        toSummary(p, true),
		Distribution: toDistributionJSON(o.Distribution),
	})
}

func (s *Server) handlePanels(w http.ResponseWriter, r *http.Request) {
	panels := s.sess.Panels()
	out := make([]panelSummary, 0, len(panels))
	for _, p := range panels {
		out = append(out, toSummary(p, false))
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) panelID(r *http.Request) (int, error) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		return 0, fmt.Errorf("server: bad panel id %q", r.PathValue("id"))
	}
	return id, nil
}

func (s *Server) handlePanel(w http.ResponseWriter, r *http.Request) {
	id, err := s.panelID(r)
	if err != nil {
		writeErr(w, r, http.StatusBadRequest, err)
		return
	}
	p, err := s.sess.Panel(id)
	if err != nil {
		writeErr(w, r, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, toSummary(p, true))
}

func (s *Server) handlePanelDelete(w http.ResponseWriter, r *http.Request) {
	id, err := s.panelID(r)
	if err != nil {
		writeErr(w, r, http.StatusBadRequest, err)
		return
	}
	if err := s.sess.RemovePanel(id); err != nil {
		writeErr(w, r, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"removed": id})
}
