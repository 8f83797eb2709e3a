package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/obsv"
)

// A fresh server's /metrics and /api/health are deterministic — every
// counter zero, every route histogram pre-registered — so both are
// pinned as golden files: a renamed or dropped metric is an API break
// for dashboards and shows up here as a diff.
func TestGoldenFreshMetricsAndHealth(t *testing.T) {
	ts := testServer(t)

	res, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if res.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", res.StatusCode)
	}
	if ct := res.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("GET /metrics Content-Type = %q", ct)
	}
	checkGolden(t, "metrics.golden.txt", readBody(t, res))

	res, err = http.Get(ts.URL + "/api/health")
	if err != nil {
		t.Fatal(err)
	}
	if res.StatusCode != http.StatusOK {
		t.Fatalf("GET /api/health: status %d", res.StatusCode)
	}
	checkGolden(t, "health.golden.json", canonicalJSON(t, readBody(t, res)))
}

// metricsText fetches /metrics as a string.
func metricsText(t *testing.T, base string) string {
	t.Helper()
	res, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	return string(readBody(t, res))
}

// mustContain asserts every want line appears in the exposition.
func mustContain(t *testing.T, text string, wants ...string) {
	t.Helper()
	for _, w := range wants {
		if !strings.Contains(text, w) {
			t.Errorf("metrics exposition missing %q", w)
		}
	}
}

// One served quantify request shows up everywhere it should: the
// per-route request counter and latency histogram, the solver's
// cumulative and last-run series, and the health snapshot's counters.
func TestMetricsCountServedRequests(t *testing.T) {
	ts := testServer(t)
	buf, err := json.Marshal(goldenQuantifyRequest(2))
	if err != nil {
		t.Fatal(err)
	}
	res, err := http.Post(ts.URL+"/api/quantify", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	readBody(t, res)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("quantify status %d", res.StatusCode)
	}
	if rid := res.Header.Get("X-Request-Id"); rid == "" {
		t.Error("no X-Request-Id header on a served request")
	}
	if tid := res.Header.Get("X-Trace-Id"); tid == "" {
		t.Error("no X-Trace-Id header on a heavy-route request")
	}

	text := metricsText(t, ts.URL)
	mustContain(t, text,
		`fairankd_requests_total{code="200",route="quantify"} 1`,
		`fairankd_request_seconds_count{route="quantify"} 1`,
		`fairankd_admission_wait_seconds_count{class="heavy"} 1`,
		`fairankd_traces_total 1`,
	)
	// The solver ran, so its counters moved; exact values belong to the
	// engine's own tests, non-zero is what the pipeline proves.
	const name = "fairank_core_distance_evals_total "
	i := strings.Index(text, name)
	if i < 0 {
		t.Fatalf("metrics exposition missing %q", name)
	}
	line := text[i : i+strings.IndexByte(text[i:], '\n')]
	if strings.HasSuffix(line, " 0") {
		t.Errorf("%s still zero after a quantify", strings.TrimSpace(name))
	}
}

// tracedEnvelope is the ?trace=1 response wrapper.
type tracedEnvelope struct {
	Trace    obsv.TraceJSON  `json:"trace"`
	Response json.RawMessage `json:"response"`
}

// spanNames flattens a span tree into the set of span names.
func spanNames(sj obsv.SpanJSON, into map[string]int) {
	into[sj.Name]++
	for _, c := range sj.Children {
		spanNames(c, into)
	}
}

// findSpan returns the first span with the given name, depth first.
func findSpan(sj obsv.SpanJSON, name string) (obsv.SpanJSON, bool) {
	if sj.Name == name {
		return sj, true
	}
	for _, c := range sj.Children {
		if got, ok := findSpan(c, name); ok {
			return got, true
		}
	}
	return obsv.SpanJSON{}, false
}

// attrValue pulls a span attribute by key.
func attrValue(sj obsv.SpanJSON, key string) (any, bool) {
	for _, a := range sj.Attrs {
		if a.Key == key {
			return a.Value, true
		}
	}
	return nil, false
}

// A traced quantify returns the span tree inline, reaching through
// the session into the solver, with the solver's counters attached as
// span attributes — the request-scoped view of core.Stats.
func TestTraceEnvelopeReachesSolver(t *testing.T) {
	ts := testServer(t)
	buf, err := json.Marshal(goldenQuantifyRequest(2))
	if err != nil {
		t.Fatal(err)
	}
	res, err := http.Post(ts.URL+"/api/quantify?trace=1", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	body := readBody(t, res)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", res.StatusCode, body)
	}
	var env tracedEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("response is not a trace envelope: %v\n%s", err, body)
	}
	if env.Trace.ID == "" || env.Trace.ID != res.Header.Get("X-Trace-Id") {
		t.Errorf("trace id %q does not match X-Trace-Id %q", env.Trace.ID, res.Header.Get("X-Trace-Id"))
	}
	if env.Trace.Root.Name != "http.quantify" {
		t.Errorf("root span %q, want http.quantify", env.Trace.Root.Name)
	}
	for _, name := range []string{"session.quantify", "core.quantify"} {
		if _, ok := findSpan(env.Trace.Root, name); !ok {
			t.Errorf("trace missing span %q", name)
		}
	}
	solver, _ := findSpan(env.Trace.Root, "core.quantify")
	if _, ok := attrValue(solver, "distance_evals"); !ok {
		t.Error("core.quantify span carries no distance_evals attribute")
	}
	if status, _ := attrValue(env.Trace.Root, "status"); fmt.Sprint(status) != "200" {
		t.Errorf("root status attr = %v, want 200", status)
	}
	// The inner response is the same panel summary an untraced request
	// gets.
	var panel struct {
		ID int `json:"id"`
	}
	if err := json.Unmarshal(env.Response, &panel); err != nil || panel.ID == 0 {
		t.Errorf("enveloped response is not a panel summary: %v\n%s", err, env.Response)
	}
}

// A traced batch audit's span tree reaches audit-job granularity, and
// the same trace stays retrievable from the ring by its id.
func TestTraceReachesAuditJobs(t *testing.T) {
	_, ts, _, _ := robustServer(t, Limits{}, false)
	status, body, err := rawPost(ts.URL+"/api/audit?trace=1", testAuditRequest())
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var env tracedEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("response is not a trace envelope: %v", err)
	}
	names := map[string]int{}
	spanNames(env.Trace.Root, names)
	if names["audit.run"] != 1 {
		t.Errorf("trace has %d audit.run spans, want 1", names["audit.run"])
	}
	if names["audit.job"] < 2 {
		t.Errorf("trace has %d audit.job spans, want the whole batch", names["audit.job"])
	}
	// Each job span descends into its own mitigation loop.
	if names["mitigate.evaluate"] == 0 || names["core.quantify"] == 0 {
		t.Errorf("job spans do not reach the solver: %v", names)
	}

	res, err := http.Get(ts.URL + "/api/traces?id=" + env.Trace.ID)
	if err != nil {
		t.Fatal(err)
	}
	ringBody := readBody(t, res)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("GET /api/traces?id=%s: status %d", env.Trace.ID, res.StatusCode)
	}
	var ringTrace obsv.TraceJSON
	if err := json.Unmarshal(ringBody, &ringTrace); err != nil {
		t.Fatal(err)
	}
	ringNames := map[string]int{}
	spanNames(ringTrace.Root, ringNames)
	if ringNames["audit.job"] != names["audit.job"] {
		t.Errorf("ring trace has %d audit.job spans, envelope had %d", ringNames["audit.job"], names["audit.job"])
	}
}

// A request that panics still files its span (with the panic attr and
// the 500 status) and increments the panic counter — crashes are the
// requests observability must not lose.
func TestPanicStillRecordsSpanAndCounter(t *testing.T) {
	s, ts, inj, _ := robustServer(t, Limits{}, false)
	inj.PanicOn("server.quantify", 1, "poisoned request")
	status, _, err := rawPost(ts.URL+"/api/quantify", testQuantifyRequest())
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", status)
	}
	if got := s.Healthz().Panics; got != 1 {
		t.Errorf("Panics = %d, want 1", got)
	}
	mustContain(t, metricsText(t, ts.URL),
		"fairankd_panics_total 1",
		`fairankd_requests_total{code="500",route="quantify"} 1`,
	)

	res, err := http.Get(ts.URL + "/api/traces")
	if err != nil {
		t.Fatal(err)
	}
	var ring tracesResponse
	if err := json.Unmarshal(readBody(t, res), &ring); err != nil {
		t.Fatal(err)
	}
	if len(ring.Traces) != 1 {
		t.Fatalf("trace ring holds %d traces, want 1", len(ring.Traces))
	}
	root := ring.Traces[0].Root
	if v, ok := attrValue(root, "panic"); !ok || !strings.Contains(fmt.Sprint(v), "poisoned request") {
		t.Errorf("panicked request's span has no panic attr (attrs: %v)", root.Attrs)
	}
	if v, _ := attrValue(root, "status"); fmt.Sprint(v) != "500" {
		t.Errorf("panicked request's span status attr = %v, want 500", v)
	}
}

// Error envelopes carry the request ID from the X-Request-Id header,
// so a pasted error is correlatable with server logs and traces.
func TestErrorCarriesRequestID(t *testing.T) {
	ts := testServer(t)
	res, err := http.Post(ts.URL+"/api/quantify", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	body := readBody(t, res)
	if res.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", res.StatusCode)
	}
	var e struct {
		Error     string `json:"error"`
		RequestID string `json:"request_id"`
	}
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatal(err)
	}
	if e.RequestID == "" || e.RequestID != res.Header.Get("X-Request-Id") {
		t.Errorf("error request_id %q does not match X-Request-Id %q", e.RequestID, res.Header.Get("X-Request-Id"))
	}
}

// SSE streams run race-clean under tracing: the heartbeat goroutine,
// the per-job Emit callbacks and the span tree share one request. The
// stream cannot carry an inline envelope, so its trace is reachable
// only through X-Trace-Id + the ring.
func TestStreamTracedAndRingBounded(t *testing.T) {
	_, ts, _, _ := robustServer(t, Limits{MaxHeavy: 4, StreamHeartbeat: -1}, false)
	var wg sync.WaitGroup
	ids := make([]string, 3)
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := http.Get(ts.URL + "/api/audit/stream?preset=crowdsourcing&n=120&seed=1&strategy=detcons&k=10&trace=1")
			if err != nil {
				return
			}
			defer res.Body.Close()
			ids[i] = res.Header.Get("X-Trace-Id")
			b, _ := io.ReadAll(res.Body)
			if !bytes.Contains(b, []byte("event: rollup")) {
				t.Errorf("stream %d ended without a rollup event", i)
			}
			// ?trace=1 must not buffer (and so break) the event stream.
			if bytes.Contains(b, []byte(`"trace"`)) && bytes.HasPrefix(b, []byte("{")) {
				t.Errorf("stream %d was wrapped in a trace envelope", i)
			}
		}(i)
	}
	wg.Wait()
	res, err := http.Get(ts.URL + "/api/traces")
	if err != nil {
		t.Fatal(err)
	}
	var ring tracesResponse
	if err := json.Unmarshal(readBody(t, res), &ring); err != nil {
		t.Fatal(err)
	}
	if len(ring.Traces) != len(ids) {
		t.Fatalf("ring holds %d traces, want %d", len(ring.Traces), len(ids))
	}
	for _, id := range ids {
		if id == "" {
			t.Error("stream response carried no X-Trace-Id")
			continue
		}
		found := false
		for _, tr := range ring.Traces {
			if tr.ID == id {
				found = true
				if tr.Root.Name != "http.audit_stream" {
					t.Errorf("trace %s root = %q", id, tr.Root.Name)
				}
			}
		}
		if !found {
			t.Errorf("stream trace %s missing from the ring", id)
		}
	}
}

// postRecorded issues one in-process request against the handler —
// no listener, so a tight request loop stays cheap.
func postRecorded(s *Server, path string, body any) (*httptest.ResponseRecorder, error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(buf))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec, nil
}

// The trace ring is bounded and goroutine-free: a burst of traced
// requests far past the ring capacity leaves at most traceRingSize
// entries and no extra goroutines — tracing cannot become the leak it
// is meant to find.
func TestTraceRingBoundedNoGoroutineLeak(t *testing.T) {
	sess := core.NewSession()
	if err := sess.AddDataset("table1", dataset.Table1()); err != nil {
		t.Fatal(err)
	}
	s := New(sess)
	baseline := runtime.NumGoroutine()
	req := testQuantifyRequest()
	for i := 0; i < traceRingSize+8; i++ {
		rec, err := postRecorded(s, "/api/quantify?trace=1", req)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, rec.Code)
		}
	}
	if got := len(s.tracer.Recent()); got != traceRingSize {
		t.Errorf("ring holds %d traces after overflow, want %d", got, traceRingSize)
	}
	waitFor(t, func() bool { return runtime.NumGoroutine() <= baseline+2 })
}

// The legacy health counters and the registry agree by construction
// now (single source of truth); pin that Shed/Panics/Coalesced in the
// health JSON equal the registry's counters.
func TestHealthCountersAreRegistryCounters(t *testing.T) {
	s, ts, _, _ := robustServer(t, Limits{MaxHeavy: 1, QueueWait: 1}, false)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rawPost(ts.URL+"/api/quantify", testQuantifyRequest())
		}()
	}
	wg.Wait()
	snap := s.Metrics().Snapshot()
	var regShed uint64
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "fairankd_shed_total") {
			regShed += v
		}
	}
	if h := s.Healthz(); h.Shed != regShed {
		t.Errorf("health shed %d != registry shed %d", h.Shed, regShed)
	}
}
