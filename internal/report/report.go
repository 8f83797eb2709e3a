// Package report renders FaiRank results for terminals and files: the
// partitioning trees (with each partition's size and mean score) and
// score histograms of the paper's Figure 3 interface, plus the
// multi-job auditor report of the AUDITOR demonstration scenario (§4).
package report

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/histogram"
	"repro/internal/partition"
	"repro/internal/stats"
)

// barGlyph is the unit of the ASCII histogram bars.
const barGlyph = "█"

// RenderHistogram draws a histogram as one line per bin:
//
//	[0.00,0.20)  ██████ 0.30
//
// width is the bar length of a full bin (mass 1 after normalization).
func RenderHistogram(h histogram.Hist, width int) string {
	if width < 1 {
		width = 20
	}
	max := 0.0
	for _, c := range h.Counts {
		if c > max {
			max = c
		}
	}
	var b strings.Builder
	for i, c := range h.Counts {
		bar := 0
		if max > 0 {
			bar = int(c / max * float64(width))
		}
		fmt.Fprintf(&b, "  %s %s %.2f\n", h.BinLabel(i), strings.Repeat(barGlyph, bar), c)
	}
	return b.String()
}

// MeanScore returns the mean score of a group's rows — the statistic
// the tree views print next to each partition. Rows outside scores are
// skipped.
func MeanScore(g partition.Group, scores []float64) float64 {
	vals := make([]float64, 0, len(g.Rows))
	for _, r := range g.Rows {
		if r >= 0 && r < len(scores) {
			vals = append(vals, scores[r])
		}
	}
	return stats.Mean(vals)
}

// ResultOptions controls RenderResult.
type ResultOptions struct {
	// Histograms includes a mini histogram under each leaf.
	Histograms bool
	// Pairwise includes the pairwise-distance table.
	Pairwise bool
	// BarWidth is the histogram bar width (default 18).
	BarWidth int
}

// RenderResult renders a quantification result as a panel: the
// "General box" (criterion, unfairness, work counters), the
// partitioning tree with per-leaf statistics, and optionally the
// pairwise distance table — the textual equivalent of one Figure 3
// panel.
func RenderResult(res *core.Result, scores []float64, opts ResultOptions) string {
	if opts.BarWidth == 0 {
		opts.BarWidth = 18
	}
	var b strings.Builder
	fmt.Fprintf(&b, "criterion : %s %s\n", res.Objective, res.Measure.Name())
	fmt.Fprintf(&b, "unfairness: %.4f\n", res.Unfairness)
	fmt.Fprintf(&b, "partitions: %d\n", len(res.Groups))
	fmt.Fprintf(&b, "work      : %d distance evals, %d splits scored", res.Stats.DistanceEvals, res.Stats.SplitsEvaluated)
	if res.Stats.Partitionings > 0 {
		fmt.Fprintf(&b, ", %d partitionings enumerated", res.Stats.Partitionings)
	}
	fmt.Fprintf(&b, ", %s\n", res.Stats.Elapsed.Round(10e3))

	if res.Tree != nil {
		b.WriteString("\n")
		renderNode(&b, res, scores, res.Tree.Root, 0, opts, leafHistIndex(res))
	} else {
		b.WriteString("\npartitions (no tree; exhaustive search):\n")
		for i, g := range res.Groups {
			fmt.Fprintf(&b, "  %s (n=%d, mean=%.3f)\n", g.Label(), g.Size(), MeanScore(g, scores))
			if opts.Histograms {
				b.WriteString(indent(RenderHistogram(res.Hists[i], opts.BarWidth), "  "))
			}
		}
	}

	if opts.Pairwise && len(res.Pairwise) > 0 {
		b.WriteString("\npairwise distances:\n")
		for _, p := range res.Pairwise {
			fmt.Fprintf(&b, "  %-46s vs %-46s %.4f\n", res.Groups[p.I].Label(), res.Groups[p.J].Label(), p.Distance)
		}
	}
	return b.String()
}

// leafHistIndex maps leaf group keys to their histogram index.
func leafHistIndex(res *core.Result) map[partition.Key]int {
	idx := make(map[partition.Key]int, len(res.Groups))
	for i, g := range res.Groups {
		idx[g.Key()] = i
	}
	return idx
}

func renderNode(b *strings.Builder, res *core.Result, scores []float64, n *partition.Node, depth int, opts ResultOptions, histIdx map[partition.Key]int) {
	pad := strings.Repeat("  ", depth)
	g := n.Group
	if n.IsLeaf() {
		fmt.Fprintf(b, "%s▣ %s  (n=%d, mean=%.3f)\n", pad, g.Label(), g.Size(), MeanScore(g, scores))
		if opts.Histograms {
			if i, ok := histIdx[n.Group.Key()]; ok {
				b.WriteString(indent(RenderHistogram(res.Hists[i], opts.BarWidth), pad))
			}
		}
		return
	}
	fmt.Fprintf(b, "%s▽ %s  (n=%d) — split on %s\n", pad, g.Label(), g.Size(), n.SplitAttr)
	for _, c := range n.Children {
		renderNode(b, res, scores, c, depth+1, opts, histIdx)
	}
}

func indent(s, pad string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	var b strings.Builder
	for _, l := range lines {
		b.WriteString(pad)
		b.WriteString(l)
		b.WriteByte('\n')
	}
	return b.String()
}

// MarkdownTable renders a GitHub-style table.
func MarkdownTable(headers []string, rows [][]string) string {
	var b strings.Builder
	b.WriteString("| " + strings.Join(headers, " | ") + " |\n")
	seps := make([]string, len(headers))
	for i := range seps {
		seps[i] = "---"
	}
	b.WriteString("| " + strings.Join(seps, " | ") + " |\n")
	for _, row := range rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	return b.String()
}

// TextTable renders a fixed-width table with a header rule.
func TextTable(headers []string, rows [][]string) string {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len([]rune(h))
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len([]rune(cell)) > widths[i] {
				widths[i] = len([]rune(cell))
			}
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = c + strings.Repeat(" ", widths[i]-len([]rune(c)))
		}
		return strings.TrimRight(strings.Join(parts, "  "), " ")
	}
	var b strings.Builder
	b.WriteString(line(headers) + "\n")
	rule := make([]string, len(headers))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	b.WriteString(line(rule) + "\n")
	for _, row := range rows {
		b.WriteString(line(row) + "\n")
	}
	return b.String()
}

// FavoredGroups returns the labels of the most and least favored
// partitions of a result (highest and lowest mean score) — the
// auditor's headline finding per job.
func FavoredGroups(res *core.Result, scores []float64) (most, least string) {
	bestMean, worstMean := -1.0, 2.0
	for _, g := range res.Groups {
		mean := MeanScore(g, scores)
		if mean > bestMean {
			bestMean, most = mean, g.Label()
		}
		if mean < worstMean {
			worstMean, least = mean, g.Label()
		}
	}
	return most, least
}
