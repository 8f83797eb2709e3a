// Package fairness quantifies the unfairness of a scoring function for
// a partitioning of individuals, per Definition 2 of the paper:
//
//	unfairness(P, f) = agg over pairs (pᵢ,pⱼ) of D(h(pᵢ,f), h(pⱼ,f))
//
// where h builds a per-partition score histogram, D is a distance
// between histograms (EMD by default), and agg aggregates the pairwise
// distances (average by default; the paper names max, min and variance
// as variants and FaiRank is "generic and provides the ability to
// quantify different notions of fairness").
package fairness

import (
	"fmt"
	"math"

	"repro/internal/emd"
	"repro/internal/histogram"
	"repro/internal/stats"
)

// Distance measures how far apart two normalized score histograms
// are. Implementations must be symmetric and return 0 for identical
// inputs.
type Distance interface {
	// Name identifies the distance in configs and reports.
	Name() string
	// Between returns the distance between two compatible unit-mass
	// histograms.
	Between(a, b histogram.Hist) (float64, error)
}

// EMD1D is the exact 1-D Earth Mover's Distance (the paper's default,
// computed in closed form).
type EMD1D struct{}

// Name implements Distance.
func (EMD1D) Name() string { return "emd" }

// Between implements Distance.
func (EMD1D) Between(a, b histogram.Hist) (float64, error) {
	if err := histogram.Compatible(a, b); err != nil {
		return 0, err
	}
	return emd.Hist1D(a.Counts, b.Counts, a.BinWidth())
}

// EMDThresholded is the ÊMD of Pele & Werman [8] with ground distance
// min(|i-j|·w, Threshold), solved exactly by emd.Thresholded1D.
// Threshold must be positive; +Inf gives EMD1D's distance.
type EMDThresholded struct {
	Threshold float64
}

// Name implements Distance.
func (d EMDThresholded) Name() string { return fmt.Sprintf("emd-hat(t=%g)", d.Threshold) }

// Between implements Distance.
func (d EMDThresholded) Between(a, b histogram.Hist) (float64, error) {
	if err := histogram.Compatible(a, b); err != nil {
		return 0, err
	}
	return emd.Thresholded1D(a.Counts, b.Counts, a.BinWidth(), d.Threshold)
}

// KS is the Kolmogorov–Smirnov distance between the histogram CDFs: a
// cheaper alternative distance exposing the same interface.
type KS struct{}

// Name implements Distance.
func (KS) Name() string { return "ks" }

// Between implements Distance.
func (KS) Between(a, b histogram.Hist) (float64, error) {
	if err := histogram.Compatible(a, b); err != nil {
		return 0, err
	}
	ca, cb := a.CDF(), b.CDF()
	d := 0.0
	for i := range ca {
		if diff := math.Abs(ca[i] - cb[i]); diff > d {
			d = diff
		}
	}
	return d, nil
}

// TotalVariation is half the L1 distance between the histograms.
type TotalVariation struct{}

// Name implements Distance.
func (TotalVariation) Name() string { return "tv" }

// Between implements Distance.
func (TotalVariation) Between(a, b histogram.Hist) (float64, error) {
	if err := histogram.Compatible(a, b); err != nil {
		return 0, err
	}
	s := 0.0
	for i := range a.Counts {
		s += math.Abs(a.Counts[i] - b.Counts[i])
	}
	return s / 2, nil
}

// DistanceByName returns the named distance with default parameters:
// "emd", "emd-hat", "ks", or "tv".
func DistanceByName(name string) (Distance, error) {
	switch name {
	case "emd", "":
		return EMD1D{}, nil
	case "emd-hat":
		return EMDThresholded{Threshold: 0.5}, nil
	case "ks":
		return KS{}, nil
	case "tv":
		return TotalVariation{}, nil
	default:
		return nil, fmt.Errorf("fairness: unknown distance %q (valid: emd, emd-hat, ks, tv)", name)
	}
}

// Aggregator folds pairwise distances into a single unfairness value.
type Aggregator interface {
	// Name identifies the aggregation in configs and reports.
	Name() string
	// Aggregate folds the pairwise distances; it returns 0 for an
	// empty slice (a single-partition partitioning has no pairs and
	// exhibits no group unfairness).
	Aggregate(pairwise []float64) float64
}

// Average is the paper's Definition 2 aggregation.
type Average struct{}

// Name implements Aggregator.
func (Average) Name() string { return "avg" }

// Aggregate implements Aggregator.
func (Average) Aggregate(p []float64) float64 { return stats.Mean(p) }

// MaxAgg is the worst-case pairwise formulation ("the partitioning
// with the highest maximum EMD between any pair", paper §3.1).
type MaxAgg struct{}

// Name implements Aggregator.
func (MaxAgg) Name() string { return "max" }

// Aggregate implements Aggregator.
func (MaxAgg) Aggregate(p []float64) float64 { return stats.Max(p) }

// MinAgg aggregates with the minimum pairwise distance.
type MinAgg struct{}

// Name implements Aggregator.
func (MinAgg) Name() string { return "min" }

// Aggregate implements Aggregator.
func (MinAgg) Aggregate(p []float64) float64 { return stats.Min(p) }

// VarianceAgg aggregates with the population variance of the pairwise
// distances ("lowest variance", paper §1).
type VarianceAgg struct{}

// Name implements Aggregator.
func (VarianceAgg) Name() string { return "variance" }

// Aggregate implements Aggregator.
func (VarianceAgg) Aggregate(p []float64) float64 { return stats.Variance(p) }

// AggregatorByName returns the named aggregator: "avg", "max", "min"
// or "variance".
func AggregatorByName(name string) (Aggregator, error) {
	switch name {
	case "avg", "":
		return Average{}, nil
	case "max":
		return MaxAgg{}, nil
	case "min":
		return MinAgg{}, nil
	case "variance":
		return VarianceAgg{}, nil
	default:
		return nil, fmt.Errorf("fairness: unknown aggregator %q (valid: avg, max, min, variance)", name)
	}
}

// Measure is a complete fairness formulation: histogram construction
// parameters, a histogram distance, and a pairwise aggregation.
type Measure struct {
	Dist Distance
	Agg  Aggregator
	// Bins is the histogram resolution (default 5, matching the
	// granularity of the paper's Figure 2).
	Bins int
	// Lo, Hi bound the score range; both zero means [0,1], the
	// codomain of Definition 1 scoring functions.
	Lo, Hi float64
}

// DefaultMeasure is the paper's Definition 2: average pairwise EMD
// over 5-bin histograms of [0,1] scores.
func DefaultMeasure() Measure {
	return Measure{Dist: EMD1D{}, Agg: Average{}, Bins: 5, Lo: 0, Hi: 1}
}

// normalized returns the measure with defaults filled in.
func (m Measure) normalized() (Measure, error) {
	if m.Dist == nil {
		m.Dist = EMD1D{}
	}
	if m.Agg == nil {
		m.Agg = Average{}
	}
	if m.Bins == 0 {
		m.Bins = 5
	}
	if m.Bins < 1 {
		return m, fmt.Errorf("fairness: invalid bin count %d", m.Bins)
	}
	if m.Lo == 0 && m.Hi == 0 {
		m.Hi = 1
	}
	if m.Hi <= m.Lo {
		return m, fmt.Errorf("fairness: invalid score range [%g,%g]", m.Lo, m.Hi)
	}
	return m, nil
}

// Name renders the measure for reports, e.g. "avg-emd(bins=5)".
func (m Measure) Name() string {
	mm, err := m.normalized()
	if err != nil {
		return "invalid-measure"
	}
	return fmt.Sprintf("%s-%s(bins=%d)", mm.Agg.Name(), mm.Dist.Name(), mm.Bins)
}

// Histogram builds the normalized score histogram h(p, f) of the rows
// of one partition. scores holds the score of every individual in the
// population, indexed by row.
func (m Measure) Histogram(scores []float64, rows []int) (histogram.Hist, error) {
	mm, err := m.normalized()
	if err != nil {
		return histogram.Hist{}, err
	}
	if len(rows) == 0 {
		return histogram.Hist{}, fmt.Errorf("fairness: empty partition has no score distribution")
	}
	h, err := histogram.New(mm.Bins, mm.Lo, mm.Hi)
	if err != nil {
		return histogram.Hist{}, err
	}
	for _, r := range rows {
		if r < 0 || r >= len(scores) {
			return histogram.Hist{}, fmt.Errorf("fairness: row %d outside scores of length %d", r, len(scores))
		}
		if err := h.Add(scores[r]); err != nil {
			return histogram.Hist{}, fmt.Errorf("fairness: row %d: %w", r, err)
		}
	}
	return h.Normalize()
}

// PairwiseDistance computes D between two partitions' histograms.
func (m Measure) PairwiseDistance(a, b histogram.Hist) (float64, error) {
	mm, err := m.normalized()
	if err != nil {
		return 0, err
	}
	return mm.Dist.Between(a, b)
}

// LinearEMDBinWidth reports the bin width of the measure's histogram
// grid when its distance is the exact closed-form 1-D EMD (EMD1D) —
// the case in which |Δmean|·w lower-bounds every pairwise distance
// (emd.Hist1DLowerBound) and the distance is a true metric, so
// aggregate searches can prune exact solves with mean and triangle
// bounds. Other distances (thresholded ÊMD, KS, TV) report false and
// are never pruned.
func (m Measure) LinearEMDBinWidth() (float64, bool) {
	mm, err := m.normalized()
	if err != nil {
		return 0, false
	}
	if _, ok := mm.Dist.(EMD1D); !ok {
		return 0, false
	}
	return (mm.Hi - mm.Lo) / float64(mm.Bins), true
}

// emd1DBatch evaluates the closed-form 1-D EMD over many pairs of one
// histogram set with one validation-and-total pass per histogram
// instead of per pair — the batched path under Pairwise and Breakdown
// that removes the per-pair Compatible checks and mass scans from the
// O(leaves²) final breakdown. distance(i, j) reproduces
// EMD1D.Between's arithmetic operation for operation, so every value
// is bit-identical to the unbatched loop.
type emd1DBatch struct {
	counts [][]float64
	totals []float64
	w      float64
}

// newEMD1DBatch validates the histogram set (pairwise compatibility
// against the first, finite non-negative masses) and computes each
// histogram's total mass, one pass per histogram.
func newEMD1DBatch(hists []histogram.Hist) (*emd1DBatch, error) {
	b := &emd1DBatch{
		counts: make([][]float64, len(hists)),
		totals: make([]float64, len(hists)),
		w:      hists[0].BinWidth(),
	}
	if len(hists[0].Counts) == 0 {
		return nil, fmt.Errorf("emd: empty histograms")
	}
	if b.w <= 0 || math.IsNaN(b.w) || math.IsInf(b.w, 0) {
		return nil, fmt.Errorf("emd: invalid bin width %g", b.w)
	}
	for i, h := range hists {
		if err := histogram.Compatible(hists[0], h); err != nil {
			return nil, err
		}
		tot := 0.0
		for bin, v := range h.Counts {
			if v < 0 || math.IsNaN(v) {
				return nil, fmt.Errorf("emd: negative or NaN mass at bin %d (%g)", bin, v)
			}
			tot += v
		}
		b.counts[i], b.totals[i] = h.Counts, tot
	}
	return b, nil
}

// distance returns the closed-form 1-D EMD between histograms i and
// j, bit-identical to emd.Hist1D on the same counts.
func (b *emd1DBatch) distance(i, j int) (float64, error) {
	totP, totQ := b.totals[i], b.totals[j]
	if math.Abs(totP-totQ) > 1e-9*math.Max(1, math.Max(totP, totQ)) {
		return 0, fmt.Errorf("emd: total mass mismatch %g vs %g; normalize first", totP, totQ)
	}
	p, q := b.counts[i], b.counts[j]
	var cum, dist float64
	for k := range p {
		cum += p[k] - q[k]
		dist += math.Abs(cum)
	}
	return dist * b.w, nil
}

// Pairwise returns the distances between all unordered pairs of
// histograms, in (i,j) i<j order. When the distance is the
// closed-form 1-D EMD the pairs are evaluated through one batched
// validation pass per histogram (see emd1DBatch) with bit-identical
// values.
func (m Measure) Pairwise(hists []histogram.Hist) ([]float64, error) {
	mm, err := m.normalized()
	if err != nil {
		return nil, err
	}
	var out []float64
	if n := len(hists) * (len(hists) - 1) / 2; n > 0 {
		out = make([]float64, 0, n) // preallocated; nil stays nil for no pairs
	}
	if _, ok := mm.Dist.(EMD1D); ok && len(hists) > 1 {
		b, err := newEMD1DBatch(hists)
		if err != nil {
			return nil, fmt.Errorf("fairness: %w", err)
		}
		for i := 0; i < len(hists); i++ {
			for j := i + 1; j < len(hists); j++ {
				d, err := b.distance(i, j)
				if err != nil {
					return nil, fmt.Errorf("fairness: distance between partitions %d and %d: %w", i, j, err)
				}
				out = append(out, d)
			}
		}
		return out, nil
	}
	for i := 0; i < len(hists); i++ {
		for j := i + 1; j < len(hists); j++ {
			d, err := mm.Dist.Between(hists[i], hists[j])
			if err != nil {
				return nil, fmt.Errorf("fairness: distance between partitions %d and %d: %w", i, j, err)
			}
			out = append(out, d)
		}
	}
	return out, nil
}

// Unfairness computes Definition 2 for a partitioning given as row
// sets. A single partition yields 0.
func (m Measure) Unfairness(scores []float64, parts [][]int) (float64, error) {
	mm, err := m.normalized()
	if err != nil {
		return 0, err
	}
	if len(parts) == 0 {
		return 0, fmt.Errorf("fairness: no partitions")
	}
	hists := make([]histogram.Hist, len(parts))
	for i, rows := range parts {
		h, err := mm.Histogram(scores, rows)
		if err != nil {
			return 0, fmt.Errorf("fairness: partition %d: %w", i, err)
		}
		hists[i] = h
	}
	pw, err := mm.Pairwise(hists)
	if err != nil {
		return 0, err
	}
	return mm.Agg.Aggregate(pw), nil
}

// PairBreakdown is one pairwise distance with its partition indices,
// for the per-pair tables in FaiRank's reports.
type PairBreakdown struct {
	I, J     int
	Distance float64
}

// Breakdown returns all pairwise distances with indices, plus the
// aggregate. When the distance is the closed-form 1-D EMD the pairs
// are evaluated through one batched validation pass per histogram
// (see emd1DBatch) with bit-identical values, so the O(leaves²) final
// breakdown costs one prefix-sum loop per pair and nothing more.
func (m Measure) Breakdown(hists []histogram.Hist) ([]PairBreakdown, float64, error) {
	mm, err := m.normalized()
	if err != nil {
		return nil, 0, err
	}
	var pairs []PairBreakdown
	var dists []float64
	if n := len(hists) * (len(hists) - 1) / 2; n > 0 {
		pairs = make([]PairBreakdown, 0, n) // preallocated; nil stays nil
		dists = make([]float64, 0, n)
	}
	if _, ok := mm.Dist.(EMD1D); ok && len(hists) > 1 {
		b, err := newEMD1DBatch(hists)
		if err != nil {
			return nil, 0, err
		}
		for i := 0; i < len(hists); i++ {
			for j := i + 1; j < len(hists); j++ {
				d, err := b.distance(i, j)
				if err != nil {
					return nil, 0, err
				}
				pairs = append(pairs, PairBreakdown{I: i, J: j, Distance: d})
				dists = append(dists, d)
			}
		}
		return pairs, mm.Agg.Aggregate(dists), nil
	}
	for i := 0; i < len(hists); i++ {
		for j := i + 1; j < len(hists); j++ {
			d, err := mm.Dist.Between(hists[i], hists[j])
			if err != nil {
				return nil, 0, err
			}
			pairs = append(pairs, PairBreakdown{I: i, J: j, Distance: d})
			dists = append(dists, d)
		}
	}
	return pairs, mm.Agg.Aggregate(dists), nil
}

// BreakdownPatched recomputes only the pairs with a changed endpoint
// of a previously computed breakdown: prevDists holds the previous
// pair distances in (i,j) i<j order, and dirty marks the histograms
// whose contents changed since. Clean pairs keep their previous
// distance verbatim; dirty pairs are re-solved through the batched
// closed-form path, so the returned pairs, distance vector and
// aggregate are bit-identical to Breakdown over the same histograms.
// Only the closed-form 1-D EMD distance supports patching.
func (m Measure) BreakdownPatched(hists []histogram.Hist, prevDists []float64, dirty []bool) ([]PairBreakdown, []float64, float64, error) {
	mm, err := m.normalized()
	if err != nil {
		return nil, nil, 0, err
	}
	if _, ok := mm.Dist.(EMD1D); !ok {
		return nil, nil, 0, fmt.Errorf("fairness: patched breakdown requires the closed-form EMD distance")
	}
	n := len(hists)
	if len(prevDists) != n*(n-1)/2 || len(dirty) != n {
		return nil, nil, 0, fmt.Errorf("fairness: patched breakdown shape mismatch: %d hists, %d distances, %d dirty flags",
			n, len(prevDists), len(dirty))
	}
	if n < 2 {
		return nil, nil, mm.Agg.Aggregate(nil), nil
	}
	b, err := newEMD1DBatch(hists)
	if err != nil {
		return nil, nil, 0, err
	}
	pairs := make([]PairBreakdown, 0, len(prevDists))
	dists := make([]float64, 0, len(prevDists))
	k := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := prevDists[k]
			if dirty[i] || dirty[j] {
				if d, err = b.distance(i, j); err != nil {
					return nil, nil, 0, err
				}
			}
			pairs = append(pairs, PairBreakdown{I: i, J: j, Distance: d})
			dists = append(dists, d)
			k++
		}
	}
	return pairs, dists, mm.Agg.Aggregate(dists), nil
}

// Indices exposes the per-row bin indices (-1 marks NaN scores). The
// quantification engine's incremental differ compares two indexers'
// vectors row by row to find the rows a score edit moved across bins.
// Callers must treat the slice as read-only.
func (b *BinIndexer) Indices() []int32 { return b.idx }

// BinIndexer precomputes the histogram bin index of every score under
// one measure's (Bins, Lo, Hi), so building a group's histogram
// becomes a pure counting loop over row indices instead of per-row
// float arithmetic. One indexer serves every group of a
// (scores, measure) combination; the engine computes it once per
// cache scope.
type BinIndexer struct {
	bins   int
	lo, hi float64
	// idx[r] is the bin of scores[r]; -1 marks a NaN score, rejected
	// when a partition containing it is counted (matching
	// Measure.Histogram's lazy per-row error).
	idx []int32
}

// NewBinIndexer builds the per-row bin index vector for scores. The
// placement of every value is exactly Measure.Histogram's, so counting
// with the indexer is bit-identical to the direct build.
func (m Measure) NewBinIndexer(scores []float64) (*BinIndexer, error) {
	mm, err := m.normalized()
	if err != nil {
		return nil, err
	}
	h, err := histogram.New(mm.Bins, mm.Lo, mm.Hi)
	if err != nil {
		return nil, err
	}
	idx := make([]int32, len(scores))
	for i, v := range scores {
		if math.IsNaN(v) {
			idx[i] = -1
			continue
		}
		idx[i] = int32(h.BinOf(v))
	}
	return &BinIndexer{bins: mm.Bins, lo: mm.Lo, hi: mm.Hi, idx: idx}, nil
}

// NewBinMapper returns a function mapping one score to its bin index
// under the measure's (Bins, Lo, Hi) — exactly BinIndexer's placement,
// -1 marking NaN — without the O(rows) index build. The incremental
// differ uses it to bin only the rows a score edit actually changed.
func (m Measure) NewBinMapper() (func(float64) int32, error) {
	mm, err := m.normalized()
	if err != nil {
		return nil, err
	}
	h, err := histogram.New(mm.Bins, mm.Lo, mm.Hi)
	if err != nil {
		return nil, err
	}
	return func(v float64) int32 {
		if math.IsNaN(v) {
			return -1
		}
		return int32(h.BinOf(v))
	}, nil
}

// Bins returns the histogram resolution the indexer was built for.
func (b *BinIndexer) Bins() int { return b.bins }

// Range returns the score range the indexer was built for.
func (b *BinIndexer) Range() (lo, hi float64) { return b.lo, b.hi }

// Len returns the number of indexed scores.
func (b *BinIndexer) Len() int { return len(b.idx) }

// Count adds one unit of mass per row into counts, which must have
// Bins entries. Errors match Measure.Histogram: out-of-range rows and
// NaN scores are rejected at the first offending row.
func (b *BinIndexer) Count(counts []float64, rows []int) error {
	idx := b.idx
	for _, r := range rows {
		if r < 0 || r >= len(idx) {
			return fmt.Errorf("fairness: row %d outside scores of length %d", r, len(idx))
		}
		i := idx[r]
		if i < 0 {
			return fmt.Errorf("fairness: row %d: histogram: cannot add NaN", r)
		}
		counts[i]++
	}
	return nil
}

// Histogram builds the normalized score histogram of one partition,
// bit-identical to Measure.Histogram over the same scores: integer
// counts are exact in float64 and the normalizing total equals the row
// count exactly.
func (b *BinIndexer) Histogram(rows []int) (histogram.Hist, error) {
	if len(rows) == 0 {
		return histogram.Hist{}, fmt.Errorf("fairness: empty partition has no score distribution")
	}
	counts := make([]float64, b.bins)
	if err := b.Count(counts, rows); err != nil {
		return histogram.Hist{}, err
	}
	t := float64(len(rows))
	for i := range counts {
		counts[i] /= t
	}
	return histogram.Hist{Lo: b.lo, Hi: b.hi, Counts: counts}, nil
}
