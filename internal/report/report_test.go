package report

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fairness"
	"repro/internal/histogram"
	"repro/internal/marketplace"
	"repro/internal/partition"
	"repro/internal/scoring"
)

func table1Result(t *testing.T) (*core.Result, []float64) {
	t.Helper()
	d := dataset.Table1()
	fn, err := scoring.NewLinear(dataset.Table1Weights())
	if err != nil {
		t.Fatal(err)
	}
	scores, err := fn.Score(d)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Quantify(d, scores, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return res, scores
}

func TestRenderHistogram(t *testing.T) {
	h := histogram.Hist{Lo: 0, Hi: 1, Counts: []float64{0.5, 0, 1}}
	out := RenderHistogram(h, 10)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("histogram lines: %d", len(lines))
	}
	if !strings.Contains(lines[0], "0.50") {
		t.Errorf("missing mass label: %q", lines[0])
	}
	// The tallest bin gets the longest bar.
	if strings.Count(lines[2], barGlyph) != 10 {
		t.Errorf("full bin bar length: %q", lines[2])
	}
	if strings.Count(lines[0], barGlyph) != 5 {
		t.Errorf("half bin bar length: %q", lines[0])
	}
	if strings.Count(lines[1], barGlyph) != 0 {
		t.Errorf("empty bin bar: %q", lines[1])
	}
}

func TestRenderHistogramDefaultsWidth(t *testing.T) {
	h := histogram.Hist{Lo: 0, Hi: 1, Counts: []float64{1}}
	if out := RenderHistogram(h, 0); !strings.Contains(out, barGlyph) {
		t.Error("zero width should default")
	}
}

func TestMeanScore(t *testing.T) {
	g := partition.Group{Rows: []int{0, 1}}
	if m := MeanScore(g, []float64{0.2, 0.4}); math.Abs(m-0.3) > 1e-12 {
		t.Errorf("MeanScore = %g, want 0.3", m)
	}
	// Out-of-range rows are skipped rather than panicking.
	if m := MeanScore(partition.Group{Rows: []int{99}}, []float64{0.5}); m != 0 {
		t.Errorf("out-of-range rows counted: mean %g", m)
	}
}

func TestRenderResultTree(t *testing.T) {
	res, scores := table1Result(t)
	out := RenderResult(res, scores, ResultOptions{Histograms: true, Pairwise: true})
	for _, want := range []string{
		"criterion : most-unfair avg-emd(bins=5)",
		"unfairness: 0.3467",
		"split on ethnicity",
		"pairwise distances:",
		barGlyph,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
}

func TestRenderResultFlat(t *testing.T) {
	d := dataset.Table1()
	fn, _ := scoring.NewLinear(dataset.Table1Weights())
	scores, _ := fn.Score(d)
	res, err := core.Exhaustive(d, scores, core.Config{Attributes: []string{dataset.AttrGender, dataset.AttrLanguage}})
	if err != nil {
		t.Fatal(err)
	}
	out := RenderResult(res, scores, ResultOptions{Histograms: true})
	if !strings.Contains(out, "exhaustive search") {
		t.Errorf("flat render missing marker:\n%s", out)
	}
	if !strings.Contains(out, "partitionings enumerated") {
		t.Error("flat render missing enumeration count")
	}
}

func TestMarkdownTable(t *testing.T) {
	out := MarkdownTable([]string{"a", "b"}, [][]string{{"1", "2"}, {"3", "4"}})
	want := "| a | b |\n| --- | --- |\n| 1 | 2 |\n| 3 | 4 |\n"
	if out != want {
		t.Errorf("markdown table = %q", out)
	}
}

func TestTextTableAlignment(t *testing.T) {
	out := TextTable([]string{"name", "v"}, [][]string{{"long-name", "1"}, {"x", "22"}})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d", len(lines))
	}
	// All rows align on the second column.
	col := strings.Index(lines[0], "v")
	if !strings.HasPrefix(lines[2][col:], "1") || !strings.HasPrefix(lines[3][col:], "22") {
		t.Errorf("columns misaligned:\n%s", out)
	}
}

func TestFavoredGroups(t *testing.T) {
	res, scores := table1Result(t)
	most, least := FavoredGroups(res, scores)
	if most == "" || least == "" || most == least {
		t.Errorf("favored groups: %q vs %q", most, least)
	}
}

func TestAuditMarketplace(t *testing.T) {
	m, err := marketplace.PresetCrowdsourcing(400, 23)
	if err != nil {
		t.Fatal(err)
	}
	audits, err := AuditMarketplace(m, core.Config{
		Measure:    fairness.DefaultMeasure(),
		Attributes: []string{marketplace.AttrGender, marketplace.AttrEthnicity, marketplace.AttrLanguage},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(audits) != len(m.Jobs) {
		t.Fatalf("audits: %d for %d jobs", len(audits), len(m.Jobs))
	}
	for _, a := range audits {
		if a.Unfairness < 0 || a.Result == nil || a.MostFavored == "" {
			t.Errorf("incomplete audit: %+v", a)
		}
	}
	out := RenderAudit(m.Name, audits)
	if !strings.Contains(out, "FAIRNESS REPORT") || !strings.Contains(out, "most problematic job") {
		t.Errorf("audit render:\n%s", out)
	}
	for _, j := range m.Jobs {
		if !strings.Contains(out, j.Name) {
			t.Errorf("audit missing job %q", j.Name)
		}
	}
}

func TestAuditRankOnly(t *testing.T) {
	m, err := marketplace.PresetTaskRabbitLike(300, 29)
	if err != nil {
		t.Fatal(err)
	}
	audits, err := AuditRankOnly(m, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range audits {
		if a.Function != "[hidden — ranking only]" {
			t.Errorf("rank-only audit function label: %q", a.Function)
		}
	}
}

func TestAuditEmptyMarketplace(t *testing.T) {
	if _, err := AuditMarketplace(nil, core.Config{}); err == nil {
		t.Error("nil marketplace should error")
	}
	if _, err := AuditRankOnly(&marketplace.Marketplace{}, core.Config{}); err == nil {
		t.Error("job-less marketplace should error")
	}
}
