// Observability layer of the serving stack: the per-server metrics
// registry (served as Prometheus text on GET /metrics and as JSON
// inside GET /api/health), the request-trace ring (GET /api/traces,
// ?trace=1 response envelopes), per-request IDs, and structured
// request logging. robust.go's guard() is the single place all of it
// hooks into the request path.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/obsv"
)

// traceRingSize bounds the in-memory ring of recent request traces.
const traceRingSize = 64

// WithLogger routes the server's structured request logs (one line
// per completed request at Debug, panics at Error) to l. The default
// logger discards everything, keeping tests and embedders quiet.
func WithLogger(l *slog.Logger) Option {
	return func(s *Server) {
		if l != nil {
			s.log = l
		}
	}
}

// Metrics returns the server's registry — the single source of truth
// behind GET /metrics, the health counters and the load generator's
// cross-checks.
func (s *Server) Metrics() *obsv.Registry { return s.reg }

// serverMetrics holds the pre-resolved registry handles the request
// path touches, so steady-state instrumentation is atomic increments
// on cached pointers rather than map lookups.
type serverMetrics struct {
	reg *obsv.Registry

	shedRead  *obsv.Counter
	shedHeavy *obsv.Counter
	panics    *obsv.Counter
	coalesced *obsv.Counter
	traces    *obsv.Counter
	waitRead  *obsv.Histogram
	waitHeavy *obsv.Histogram
	latencies map[string]*obsv.Histogram // by route; written only during New

	// Solver counters published after each quantify/mitigate run,
	// cumulative so rates stay meaningful under concurrent runs.
	distanceEvals   *obsv.Counter
	cachedDistances *obsv.Counter
	reusedDistances *obsv.Counter
	prunedPairs     *obsv.Counter
	splitsEvaluated *obsv.Counter
}

func newServerMetrics(reg *obsv.Registry) *serverMetrics {
	reg.Help("fairankd_requests_total", "completed requests by route and status code")
	reg.Help("fairankd_request_seconds", "request latency by route (admission wait included)")
	reg.Help("fairankd_admission_wait_seconds", "time spent waiting for an in-flight slot, shed requests included")
	reg.Help("fairankd_shed_total", "requests refused with 429 because their class was saturated past the queue wait")
	reg.Help("fairankd_panics_total", "handler panics converted into 500s")
	reg.Help("fairankd_coalesced_total", "requests served from another identical in-flight request's result")
	reg.Help("fairankd_traces_total", "request traces recorded into the ring")
	reg.Help("fairank_core_distance_evals_total", "histogram-distance evaluations requested by the solver")
	reg.Help("fairank_core_cached_distances_total", "distance evaluations answered by the memoization cache")
	reg.Help("fairank_core_reused_distances_total", "distance evaluations reused from a predecessor scope (incremental re-quantify)")
	reg.Help("fairank_core_pruned_pairs_total", "pairwise solves skipped by EMD lower bounds")
	return &serverMetrics{
		reg:             reg,
		shedRead:        reg.Counter("fairankd_shed_total", obsv.Label{Key: "class", Value: "read"}),
		shedHeavy:       reg.Counter("fairankd_shed_total", obsv.Label{Key: "class", Value: "heavy"}),
		panics:          reg.Counter("fairankd_panics_total"),
		coalesced:       reg.Counter("fairankd_coalesced_total"),
		traces:          reg.Counter("fairankd_traces_total"),
		waitRead:        reg.Histogram("fairankd_admission_wait_seconds", nil, obsv.Label{Key: "class", Value: "read"}),
		waitHeavy:       reg.Histogram("fairankd_admission_wait_seconds", nil, obsv.Label{Key: "class", Value: "heavy"}),
		latencies:       map[string]*obsv.Histogram{},
		distanceEvals:   reg.Counter("fairank_core_distance_evals_total"),
		cachedDistances: reg.Counter("fairank_core_cached_distances_total"),
		reusedDistances: reg.Counter("fairank_core_reused_distances_total"),
		prunedPairs:     reg.Counter("fairank_core_pruned_pairs_total"),
		splitsEvaluated: reg.Counter("fairank_core_splits_evaluated_total"),
	}
}

// routeLatency pre-registers a route's latency histogram. Called only
// during route registration (single goroutine), so the map needs no
// lock; guard() holds the returned handle.
func (m *serverMetrics) routeLatency(route string) *obsv.Histogram {
	h, ok := m.latencies[route]
	if !ok {
		h = m.reg.Histogram("fairankd_request_seconds", nil, obsv.Label{Key: "route", Value: route})
		m.latencies[route] = h
	}
	return h
}

// requests resolves the per-route/status counter. Status codes are
// open-ended, so this goes through the registry's get-or-create path
// (a read-locked map hit after the first request).
func (m *serverMetrics) requests(route string, code int) *obsv.Counter {
	return m.reg.Counter("fairankd_requests_total",
		obsv.Label{Key: "route", Value: route},
		obsv.Label{Key: "code", Value: strconv.Itoa(code)})
}

// publishStats folds one solver run's counters into the registry.
// Called by the handlers after each quantify/mitigate pass — never
// from inside the solver, which stays observation-free.
func (s *Server) publishStats(st core.Stats) {
	m := s.m
	m.distanceEvals.Add(uint64(st.DistanceEvals))
	m.cachedDistances.Add(uint64(st.CachedDistances))
	m.reusedDistances.Add(uint64(st.ReusedDistances))
	m.prunedPairs.Add(uint64(st.PrunedPairs))
	m.splitsEvaluated.Add(uint64(st.SplitsEvaluated))
}

// ridKey carries the per-request ID in the request context; it shows
// up in the X-Request-Id header, error envelopes, traces and logs.
type ridKey struct{}

func withRequestID(ctx context.Context, rid string) context.Context {
	return context.WithValue(ctx, ridKey{}, rid)
}

func requestID(ctx context.Context) string {
	rid, _ := ctx.Value(ridKey{}).(string)
	return rid
}

// handleMetrics serves the registry in Prometheus text exposition
// format. Unguarded like /api/health: a scrape must never be shed,
// counted as traffic, or refused during drain.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WritePrometheus(w)
}

// tracesResponse is the JSON answer of GET /api/traces.
type tracesResponse struct {
	Traces []obsv.TraceJSON `json:"traces"`
}

// handleTraces serves the bounded ring of recent request traces, most
// recent first; ?id=<trace id> returns a single trace (404 once it
// has been evicted from the ring).
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if id := r.URL.Query().Get("id"); id != "" {
		tj, ok := s.tracer.Find(id)
		if !ok {
			writeErr(w, r, http.StatusNotFound, fmt.Errorf("server: no trace %q in the ring", id))
			return
		}
		writeJSON(w, http.StatusOK, tj)
		return
	}
	out := s.tracer.Recent()
	if out == nil {
		out = []obsv.TraceJSON{}
	}
	writeJSON(w, http.StatusOK, tracesResponse{Traces: out})
}

// statusWriter records the response status for metrics, tracing and
// logs while passing everything else through — including Flush (SSE)
// and Unwrap (http.ResponseController deadlines).
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

func (w *statusWriter) Status() int {
	if w.status == 0 {
		return http.StatusOK
	}
	return w.status
}

// traceBuffer captures a ?trace=1 response so guard can wrap it in a
// {trace, response} envelope once the root span has ended. It shares
// the real header map, so handler-set headers survive the detour.
type traceBuffer struct {
	h      http.Header
	status int
	buf    bytes.Buffer
}

func (b *traceBuffer) Header() http.Header { return b.h }

func (b *traceBuffer) WriteHeader(code int) {
	if b.status == 0 {
		b.status = code
	}
}

func (b *traceBuffer) Write(p []byte) (int, error) {
	if b.status == 0 {
		b.status = http.StatusOK
	}
	return b.buf.Write(p)
}

// tracedResponse is the ?trace=1 envelope.
type tracedResponse struct {
	Trace    obsv.TraceJSON  `json:"trace"`
	Response json.RawMessage `json:"response"`
}

// flush writes the buffered response out through w. JSON responses
// are wrapped in the trace envelope; anything else (errors written as
// JSON still qualify; only non-JSON bodies pass through) is replayed
// verbatim so the envelope never corrupts a body it cannot embed.
func (b *traceBuffer) flush(w http.ResponseWriter, span *obsv.Span) {
	status := b.status
	if status == 0 {
		status = http.StatusOK
	}
	if !strings.HasPrefix(b.h.Get("Content-Type"), "application/json") {
		w.WriteHeader(status)
		w.Write(b.buf.Bytes())
		return
	}
	body := b.buf.Bytes()
	if len(body) == 0 {
		body = []byte("null")
	}
	out, err := json.Marshal(tracedResponse{Trace: span.Render(), Response: body})
	if err != nil {
		w.WriteHeader(status)
		w.Write(b.buf.Bytes())
		return
	}
	b.h.Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(out)
}
