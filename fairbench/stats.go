package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"repro/internal/core"
)

// minBeyond is the number of samples a percentile needs above it to be
// reported: fewer, and one slow sample decides it.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of
// samples and whether it may be reported: at least minBeyond samples
// must lie strictly above its rank. samples must be sorted.
func percentile(samples []float64, p float64) (float64, bool) {
	n := len(samples)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	return samples[rank], n-1-rank >= minBeyond
}

// sortedMs converts durations to sorted milliseconds.
func sortedMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	sort.Float64s(out)
	return out
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// median returns the middle value of vals (mean of the two middle ones
// for an even count); 0 for none.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// latencyNamed reports a latency series as its median, 90th and 99th
// percentiles under prefix_p50_ms, prefix_p90_ms and prefix_p99_ms,
// each only when the sample-count rule allows.
func latencyNamed(prefix string, ds []time.Duration) []namedValue {
	s := sortedMs(ds)
	var out []namedValue
	for _, p := range []struct {
		name string
		q    float64
	}{{"_p50_ms", 0.50}, {"_p90_ms", 0.90}, {"_p99_ms", 0.99}} {
		if v, ok := percentile(s, p.q); ok {
			out = append(out, namedValue{prefix + p.name, v, "ms", len(s)})
		}
	}
	return out
}

// minClassSamples is how many samples a class needs for its trimmed
// mean to be reported: as many as a median needs under minBeyond.
const minClassSamples = 2*minBeyond + 1

// trimmedMean returns the mean of sorted samples without their lowest
// and highest tenth. Unlike the median, it moves smoothly when a class
// has two modes: fresh audits take either about one or about two times
// their fastest time, in proportions that change within a run, and a
// median near the gap jumps between the modes from run to run.
func trimmedMean(sorted []float64) float64 {
	k := len(sorted) / 10
	sum := 0.0
	for _, v := range sorted[k : len(sorted)-k] {
		sum += v
	}
	return sum / float64(len(sorted)-2*k)
}

// classMeans fills the end-to-end light_mean_ms, medium_mean_ms and
// heavy_mean_ms; a class without enough samples is left out.
func classMeans(e2e map[string]float64, light, medium, heavy []time.Duration) {
	for _, c := range []struct {
		name string
		ds   []time.Duration
	}{{"light_mean_ms", light}, {"medium_mean_ms", medium}, {"heavy_mean_ms", heavy}} {
		if len(c.ds) >= minClassSamples {
			e2e[c.name] = trimmedMean(sortedMs(c.ds))
		}
	}
}

// hostLoopMs times a fixed single-threaded arithmetic loop and returns
// the median of several timings, in ms. The run record carries it from
// before and after the workload: on a shared host the same loop can take
// twice as long from one minute to the next, and this shows which state
// a run met.
func hostLoopMs() float64 {
	var ts []float64
	x := 0.0
	for r := 0; r < 15; r++ {
		t0 := time.Now()
		for i := 0; i < 1_000_000; i++ {
			x += float64(i%7) * 1.0000001
		}
		ts = append(ts, ms(time.Since(t0)))
	}
	if x < 0 {
		ts = nil // keeps the loop from being optimized away
	}
	return median(ts)
}

// heapProbe reads the live heap before heapReads measured operations,
// heapEvery apart from the first, and reports the median reading: one
// reading alone depends on which buffers happen to be live at that
// moment.
type heapProbe struct {
	first    int
	readings []float64
}

const heapReads, heapEvery = 5, 8

// before takes a reading if measured operation i is one of the probe's.
func (h *heapProbe) before(i int) {
	if d := i - h.first; d >= 0 && d%heapEvery == 0 && d/heapEvery < heapReads {
		h.readings = append(h.readings, liveHeapMB())
	}
}

// fill sets heap_live_mb when every reading was taken.
func (h *heapProbe) fill(e2e map[string]float64) {
	if len(h.readings) == heapReads {
		e2e["heap_live_mb"] = median(h.readings)
	}
}

// liveHeapMB forces a collection and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// rtSample is a point-in-time reading of the Go runtime's cumulative
// allocation and CPU counters.
type rtSample struct {
	allocBytes      uint64
	gcCPU, totalCPU float64
}

func readRuntime() rtSample {
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	var r rtSample
	if samples[0].Value.Kind() == metrics.KindUint64 {
		r.allocBytes = samples[0].Value.Uint64()
	}
	if samples[1].Value.Kind() == metrics.KindFloat64 {
		r.gcCPU = samples[1].Value.Float64()
	}
	if samples[2].Value.Kind() == metrics.KindFloat64 {
		r.totalCPU = samples[2].Value.Float64()
	}
	return r
}

// since returns the counters' growth from before to r.
func (r rtSample) since(before rtSample) rtSample {
	return rtSample{allocBytes: r.allocBytes - before.allocBytes, gcCPU: r.gcCPU - before.gcCPU, totalCPU: r.totalCPU - before.totalCPU}
}

// runtimeLayers fills runtime.alloc_kb_per_op and
// runtime.gc_cpu_fraction from the counters' growth d over ops
// operations.
func runtimeLayers(layers map[string]float64, d rtSample, ops int) {
	if ops > 0 {
		layers["runtime.alloc_kb_per_op"] = float64(d.allocBytes) / 1e3 / float64(ops)
	}
	if d.totalCPU > 0 {
		layers["runtime.gc_cpu_fraction"] = d.gcCPU / d.totalCPU
	}
}

// splitmix64 is the benchmark's seeded stream: every trace is a pure
// function of its seed.
type splitmix64 struct{ s uint64 }

func (r *splitmix64) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *splitmix64) intn(n int) int { return int(r.next() % uint64(n)) }

// deck deals 0..n-1 in shuffled rounds, so over every n draws each
// value comes up exactly once: a trace built from decks has the same mix
// for every seed, and only the order varies.
type deck struct {
	n    int
	rest []int
}

func (d *deck) draw(r *splitmix64) int {
	if len(d.rest) == 0 {
		d.rest = make([]int, d.n)
		for i := range d.rest {
			d.rest[i] = i
		}
		for i := len(d.rest) - 1; i > 0; i-- {
			j := r.intn(i + 1)
			d.rest[i], d.rest[j] = d.rest[j], d.rest[i]
		}
	}
	v := d.rest[0]
	d.rest = d.rest[1:]
	return v
}

// thinker draws the pause a user takes between an answer and the next
// request: uniform between half and one and a half times the mean, from
// its own seeded stream so the trace does not depend on it.
type thinker struct {
	mean time.Duration
	rng  splitmix64
}

func newThinker(mean time.Duration, seed uint64) *thinker {
	return &thinker{mean: mean, rng: splitmix64{s: seed ^ 0x7468696e6b}}
}

func (t *thinker) pause() {
	if t.mean > 0 {
		time.Sleep(t.mean/2 + time.Duration(t.rng.float()*float64(t.mean)))
	}
}

// float returns a uniform value in [0, 1).
func (r *splitmix64) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// span is one timed call at a layer boundary. Spans of one operation
// share op; parent names the enclosing span ("" for the operation).
type span struct {
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory and per-operation layer values for the
// medians the traced run reports.
type tracer struct {
	t0     time.Time
	spans  []span
	values map[string][]float64
}

func newTracer() *tracer { return &tracer{t0: time.Now(), values: map[string][]float64{}} }

// timed runs fn as a span of op and returns its duration.
func (t *tracer) timed(op int, name, parent string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	t.spans = append(t.spans, span{Op: op, Name: name, Parent: parent,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return end.Sub(start)
}

// add records one operation's value of a per-layer metric.
func (t *tracer) add(name string, v float64) { t.values[name] = append(t.values[name], v) }

// medians fills layers with the median of every recorded metric and
// zero for every per-layer metric this workload never exercised.
func (t *tracer) medians(layers map[string]float64) {
	for name, vals := range t.values {
		layers[name] = median(vals)
	}
	for _, m := range layerMetrics {
		if _, ok := layers[m.name]; !ok {
			layers[m.name] = 0
		}
	}
}

// addStats records the work counters of one solve.
func (t *tracer) addStats(st core.Stats) {
	t.add("core.distance_evals", float64(st.DistanceEvals))
	t.add("core.pruned_pairs", float64(st.PrunedPairs))
	t.add("core.splits_evaluated", float64(st.SplitsEvaluated))
	if st.DistanceEvals > 0 {
		t.add("core.cached_ratio", float64(st.CachedDistances)/float64(st.DistanceEvals))
		t.add("core.reused_ratio", float64(st.ReusedDistances)/float64(st.DistanceEvals))
	}
}

// repeatSetup runs setup reps times (once when traced), discards every
// environment but the last, and returns the last with the median set-up
// time in seconds.
func repeatSetup[E any](reps int, traced bool, setup func() (E, error), discard func(E)) (E, float64, error) {
	if traced || reps < 1 {
		reps = 1
	}
	var (
		env    E
		times  []float64
		err    error
		exists bool
	)
	for r := 0; r < reps; r++ {
		if exists {
			discard(env)
			var zero E
			env = zero // the next set-up must not have the previous one's memory pinned
		}
		t0 := time.Now()
		if env, err = setup(); err != nil {
			return env, 0, err
		}
		exists = true
		times = append(times, time.Since(t0).Seconds())
	}
	return env, median(times), nil
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// overheadPct is the traced median's excess over the untraced one, in
// percent of the untraced median. Both series must be measured the same
// way: the same operations, timed from the same point, under the same
// load.
func overheadPct(untraced, traced []time.Duration) float64 {
	u := median(sortedMs(untraced))
	if u == 0 {
		return 0
	}
	return 100 * (median(sortedMs(traced)) - u) / u
}
