package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"sort"
	"strings"
	"time"

	fairank "repro"
	"repro/internal/obsv"
	"repro/internal/server"
)

// fairankdLimits are cmd/fairankd's default admission limits and
// deadlines (its flag defaults).
var fairankdLimits = fairank.ServeLimits{
	MaxReads:        256,
	MaxHeavy:        4,
	QueueWait:       100 * time.Millisecond,
	RetryAfter:      time.Second,
	QuantifyTimeout: 30 * time.Second,
	AuditTimeout:    5 * time.Minute,
	StreamHeartbeat: 15 * time.Second,
}

// fairankdCacheScopes is fairankd's -max-cached-scopes default.
const fairankdCacheScopes = 64

// loopback is a fairankd-configured server listening on 127.0.0.1 and
// a client limited to conns connections.
type loopback struct {
	srv    *fairank.ExplorerServer
	http   *http.Server
	base   string
	client *http.Client
	done   chan struct{}
}

// startServer builds the explorer server the way cmd/fairankd does
// (session cache bound, default limits, optional snapshot store) and
// serves it over loopback HTTP.
func startServer(sess *fairank.Session, auditDir string, conns int) (*loopback, error) {
	sess.SetCacheLimit(fairankdCacheScopes)
	logger := slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo}))
	srv, err := fairank.NewExplorerServer(sess, fairankdLimits, auditDir, fairank.WithServerLogger(logger))
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	lb := &loopback{
		srv: srv,
		http: &http.Server{
			Handler:           srv.Handler(),
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       30 * time.Second,
			WriteTimeout:      10 * time.Minute,
			IdleTimeout:       2 * time.Minute,
		},
		base: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
		}},
		done: make(chan struct{}),
	}
	go func() {
		defer close(lb.done)
		lb.http.Serve(ln)
	}()
	return lb, nil
}

// close shuts the server down and waits for its serve loop to return.
func (lb *loopback) close() {
	lb.srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := lb.http.Shutdown(ctx); err != nil {
		lb.http.Close()
	}
	<-lb.done
	lb.client.CloseIdleConnections()
}

// post sends a JSON body and returns the status and response body.
func (lb *loopback) post(route string, body any) (int, []byte, error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return 0, nil, err
	}
	res, err := lb.client.Post(lb.base+route, "application/json", bytes.NewReader(buf))
	if err != nil {
		return 0, nil, err
	}
	defer res.Body.Close()
	b, err := io.ReadAll(res.Body)
	return res.StatusCode, b, err
}

// sseEvent is one server-sent event.
type sseEvent struct {
	name string
	data []byte
}

// stream opens an SSE route and collects its events. The returned time
// is when the event named until arrived (zero if it never did).
func (lb *loopback) stream(path, until string) (int, []sseEvent, time.Time, error) {
	res, err := lb.client.Get(lb.base + path)
	if err != nil {
		return 0, nil, time.Time{}, err
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		io.Copy(io.Discard, res.Body)
		return res.StatusCode, nil, time.Time{}, nil
	}
	var (
		events []sseEvent
		at     time.Time
		cur    sseEvent
	)
	sc := bufio.NewScanner(res.Body)
	sc.Buffer(make([]byte, 64<<10), 64<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = []byte(strings.TrimPrefix(line, "data: "))
		case line == "" && cur.name != "":
			events = append(events, cur)
			if cur.name == until && at.IsZero() {
				at = time.Now()
			}
			cur = sseEvent{}
		}
	}
	return res.StatusCode, events, at, sc.Err()
}

// healthScrape mirrors GET /api/health: the health fields plus the full
// registry snapshot.
type healthScrape struct {
	server.Health
	Metrics obsv.Snapshot `json:"metrics"`
}

func (lb *loopback) scrape() (*healthScrape, error) {
	res, err := lb.client.Get(lb.base + "/api/health")
	if err != nil {
		return nil, err
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("health scrape returned %d", res.StatusCode)
	}
	var hs healthScrape
	if err := json.NewDecoder(res.Body).Decode(&hs); err != nil {
		return nil, fmt.Errorf("decoding health scrape: %w", err)
	}
	return &hs, nil
}

// counterDeltas subtracts a counter snapshot from a later one.
func counterDeltas(before, after obsv.Snapshot) map[string]uint64 {
	out := make(map[string]uint64)
	for name, v := range after.Counters {
		if d := v - before.Counters[name]; d > 0 {
			out[name] = d
		}
	}
	return out
}

// histDeltaMean returns the mean observation (in the histogram's unit)
// added to a histogram series between two snapshots, and the count.
func histDeltaMean(before, after obsv.Snapshot, series string) (float64, uint64) {
	a, b := after.Histograms[series], before.Histograms[series]
	n := a.Count - b.Count
	if n == 0 {
		return 0, 0
	}
	return (a.Sum - b.Sum) / float64(n), n
}

// serverLayers fills the scraped server layers for a window: the mean
// heavy-class admission wait, and the requests shed and coalesced.
func serverLayers(layers map[string]float64, before, after *healthScrape) {
	wait, _ := histDeltaMean(before.Metrics, after.Metrics, `fairankd_admission_wait_seconds{class="heavy"}`)
	layers["server.admission_wait_ms"] = wait * 1e3
	layers["server.shed"] = float64(after.Shed - before.Shed)
	layers["server.coalesced"] = float64(after.Coalesced - before.Coalesced)
}

// tally counts one route's client-side outcomes by HTTP status;
// transport counts requests that died without a status.
type tally struct {
	byStatus  map[int]int
	transport int
}

// tallies are per-route client counts, keyed by the server's route
// label.
type tallies map[string]*tally

func (t tallies) add(route string, status int) {
	tl := t[route]
	if tl == nil {
		tl = &tally{byStatus: map[int]int{}}
		t[route] = tl
	}
	if status == 0 {
		tl.transport++
		return
	}
	tl.byStatus[status]++
}

// summary returns every route's attempted and failed counts; a request
// fails on a transport error or any status other than 200.
func (t tallies) summary() map[string]map[string]int {
	out := map[string]map[string]int{}
	for route, tl := range t {
		attempted, failed := tl.transport, tl.transport
		for status, n := range tl.byStatus {
			attempted += n
			if failedStatus(status, nil) {
				failed += n
			}
		}
		out[route] = map[string]int{"attempted": attempted, "failed": failed}
	}
	return out
}

// crossCheck compares the client tallies with the scraped
// fairankd_requests_total and fairankd_shed_total deltas: both count
// the same requests, so every (route, status) pair must agree. It
// returns the mismatches.
func crossCheck(t tallies, delta map[string]uint64) []string {
	var problems []string
	client429 := 0
	for _, tl := range t {
		client429 += tl.byStatus[http.StatusTooManyRequests]
	}
	var serverShed uint64
	for name, d := range delta {
		if strings.HasPrefix(name, "fairankd_shed_total") {
			serverShed += d
		}
	}
	if uint64(client429) != serverShed {
		problems = append(problems, fmt.Sprintf("shed: clients saw %d 429s, server counted %d", client429, serverShed))
	}
	for route, tl := range t {
		serverByStatus := map[int]uint64{}
		for name, d := range delta {
			if !strings.HasPrefix(name, "fairankd_requests_total{") || !strings.Contains(name, fmt.Sprintf("route=%q", route)) {
				continue
			}
			i := strings.Index(name, `code="`)
			if i < 0 {
				problems = append(problems, fmt.Sprintf("series %q has no code label", name))
				continue
			}
			rest := name[i+len(`code="`):]
			var code int
			if _, err := fmt.Sscanf(rest[:strings.IndexByte(rest, '"')], "%d", &code); err != nil {
				problems = append(problems, fmt.Sprintf("unparseable series %q", name))
				continue
			}
			serverByStatus[code] += d
		}
		for code, n := range tl.byStatus {
			if uint64(n) != serverByStatus[code] {
				problems = append(problems, fmt.Sprintf("route %s status %d: clients saw %d, server counted %d", route, code, n, serverByStatus[code]))
			}
		}
		for code, n := range serverByStatus {
			if _, seen := tl.byStatus[code]; !seen {
				problems = append(problems, fmt.Sprintf("route %s status %d: server counted %d, clients saw none", route, code, n))
			}
		}
	}
	sort.Strings(problems)
	return problems
}

// failedStatus reports whether an HTTP outcome counts as a failed
// operation: a transport error or any status other than 200. Every
// request the workloads send is valid, so a 4xx (a 422 from an
// infeasible mitigation, say) is as much a failure as a 429 or a 5xx,
// and its latency must not pass for a fast answer.
func failedStatus(status int, err error) bool {
	return err != nil || status != http.StatusOK
}

// scrapeWindow scrapes before and after fn and cross-checks the client
// tallies fn produced against the server's counters.
func (lb *loopback) scrapeWindow(t tallies, fn func() error) (before, after *healthScrape, err error) {
	if before, err = lb.scrape(); err != nil {
		return nil, nil, err
	}
	if err = fn(); err != nil {
		return nil, nil, err
	}
	if after, err = lb.scrape(); err != nil {
		return nil, nil, err
	}
	if problems := crossCheck(t, counterDeltas(before.Metrics, after.Metrics)); len(problems) > 0 {
		return nil, nil, fmt.Errorf("client tallies and scraped server metrics disagree: %s", strings.Join(problems, "; "))
	}
	return before, after, nil
}
