// Command fairbench is FaiRank's end-to-end benchmark. It generates one
// of two seeded workloads, drives the real public entry points (the
// fairankd HTTP handler over loopback, and the fairank library facade),
// checks every answer against an independent library reference, and
// prints its metrics as one JSON object on the last line of standard
// output:
//
//	go run . --workload explore --seed 1 --seconds 15 --trace 0
//
// Workloads:
//
//   - explore: the UI analyst's path. One analyst, pausing between
//     answers, mixes POST /api/quantify (revisited and cache-missing
//     scoring functions) with POST /api/mitigate (fair/detcons/exposure
//     over a 20k population, exposure-lp over a 48-row shortlist).
//   - audit: one auditor, pausing between answers, sends POST /api/audit
//     (a quarter as GET /api/audit/stream) against a server with a
//     snapshot store, alternating fresh audits, identical re-audits and
//     one-job drifts.
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1
// the run first repeats the untraced measurement, then replays the same
// seeded trace on one connection while timing every call into a layer's
// public functions, and reports per-layer metrics plus
// trace_overhead_pct: how much longer an operation takes with its layer
// calls replayed and timed than without them. Spans are written to the
// output directory when the run ends. Lines before the last one are a human-readable run record.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// e2eMetrics are the end-to-end metrics every workload reports with
// tracing off, with their units; BENCHMARK.json lists the same names.
// Each workload splits its operations into three classes and reports
// the trimmed mean latency of each (see trimmedMean):
//
//	workload  light                  medium                     heavy
//	explore   quantify, pool revisit quantify, fresh function  fair/detcons/exposure, 20k rows
//	audit     identical re-audits    one-job drifts             fresh audits
//
// Class means are gated because they repeat within about a tenth on a
// shared 2-core host; tail percentiles do not, so they are printed in
// the run record, with medians and sample counts, instead. explore's exposure-lp
// runs are in no gated class (see exploreSplit). Both workloads are one
// user pausing between answers, so the rate follows the latency and
// adds nothing to gate; the run record prints it. heap_live_mb is the
// median live heap after forced collections before fixed requests of
// the pass (see heapProbe), so it counts the same work on a fast or a
// slow host.
var e2eMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"light_mean_ms", "ms"},
	{"medium_mean_ms", "ms"},
	{"heavy_mean_ms", "ms"},
	{"heap_live_mb", "MB"},
}

// layerMetrics are the per-layer metrics every traced run reports. A
// layer a workload does not exercise reads 0.
var layerMetrics = []struct{ name, unit string }{
	{"server.quantify_self_ms", "ms"},
	{"server.response_kb", "kB"},
	{"server.mitigate_self_ms", "ms"},
	{"server.audit_self_ms", "ms"},
	{"server.admission_wait_ms", "ms"},
	{"server.shed", "count"},
	{"server.coalesced", "count"},
	{"core.resolve_ms", "ms"},
	{"core.quantify_ms", "ms"},
	{"core.distance_evals", "count"},
	{"core.cached_ratio", "ratio"},
	{"core.reused_ratio", "ratio"},
	{"core.pruned_pairs", "count"},
	{"core.splits_evaluated", "count"},
	{"core.cache_scopes", "count"},
	{"fairness.histograms_ms", "ms"},
	{"emd.pairwise_ms.emd", "ms"},
	{"emd.pairwise_ms.emd-hat", "ms"},
	{"emd.pairwise_ms.ks", "ms"},
	{"report.render_ms", "ms"},
	{"report.mitigation_ms", "ms"},
	{"mitigate.evaluate_ms", "ms"},
	{"mitigate.rerank_ms", "ms"},
	{"exposure.solve_ms", "ms"},
	{"exposure.decompose_ms", "ms"},
	{"exposure.support", "count"},
	{"audit.run_ms", "ms"},
	{"audit.job_ms", "ms"},
	{"audit.reused_ratio", "ratio"},
	{"auditstore.latest_ms", "ms"},
	{"auditstore.save_ms", "ms"},
	{"auditstore.snapshot_kb", "kB"},
	{"fingerprint.scores_ms", "ms"},
	{"runtime.alloc_kb_per_op", "kB"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"trace_overhead_pct", "%"},
}

// options are the command-line settings shared by every workload.
type options struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	outDir  string
}

// outcome is what one workload run reports back to main.
type outcome struct {
	attempted, failed int
	// rejected counts answers the checker refused (also in failed).
	rejected int
	// e2e holds the untraced end-to-end metrics; layers the per-layer
	// metrics of a traced run.
	e2e, layers map[string]float64
	// record holds the run-record fields and named lines the benchmark
	// prints before the result.
	record map[string]any
	named  []namedValue
	spans  []span
}

// namedValue is one issue-level metric printed in the run record, with
// the sample count behind it (0 when the count is not meaningful).
type namedValue struct {
	name  string
	value float64
	unit  string
	n     int
}

func main() {
	workload := flag.String("workload", "", "explore or audit")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "measured seconds per pass")
	trace := flag.Int("trace", 0, "1 for the traced per-layer run")
	outDir := flag.String("out", filepath.Join(".bench_build", "fairbench"), "directory for spans and scratch state")
	flag.Parse()

	o := options{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1, outDir: *outDir}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fatal(err)
	}
	var (
		out *outcome
		err error
	)
	hostBefore := hostLoopMs()
	switch *workload {
	case "explore":
		out, err = runExplore(defaultExplore, o)
	case "audit":
		out, err = runAudit(defaultAudit, o)
	default:
		err = fmt.Errorf("unknown workload %q (want explore or audit)", *workload)
	}
	if err != nil {
		fatal(err)
	}

	hostAfter := hostLoopMs()
	rec := map[string]any{
		"host_loop_ms": []float64{hostBefore, hostAfter},
		"workload":     *workload,
		"seed":         o.seed,
		"seconds":      o.seconds.Seconds(),
		"trace":        o.trace,
		"nproc":        runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"go":           runtime.Version(),
	}
	for k, v := range out.record {
		rec[k] = v
	}
	if len(out.spans) > 0 {
		path := filepath.Join(o.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", *workload, o.seed))
		if err := writeSpans(path, out.spans); err != nil {
			fatal(err)
		}
		rec["spans_file"] = path
		rec["spans"] = len(out.spans)
	}
	b, err := json.Marshal(rec)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("record %s\n", b)
	for _, nv := range out.named {
		if nv.n > 0 {
			fmt.Printf("metric %-28s %12.4f %-6s n=%d\n", nv.name, nv.value, nv.unit, nv.n)
		} else {
			fmt.Printf("metric %-28s %12.4f %s\n", nv.name, nv.value, nv.unit)
		}
	}

	res, err := buildResult(out, o.trace)
	if err != nil {
		fatal(err)
	}
	b, err = json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
	if !res.Correct {
		os.Exit(1)
	}
}

// buildResult assembles the final JSON object: every end-to-end metric
// (or every per-layer metric when traced) must be present.
func buildResult(out *outcome, traced bool) (*result, error) {
	res := &result{
		Correct:   out.failed == 0 && out.rejected == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metric{},
	}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("no operation was attempted")
	}
	list, values := e2eMetrics, out.e2e
	if traced {
		list, values = layerMetrics, out.layers
	}
	var missing []string
	for _, m := range list {
		v, ok := values[m.name]
		if !ok {
			missing = append(missing, m.name)
			continue
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("metrics not measured (too few samples?): %v", missing)
	}
	return res, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fairbench:", err)
	os.Exit(1)
}
