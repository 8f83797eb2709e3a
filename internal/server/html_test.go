package server

import (
	"net/http"
	"strings"
	"testing"

	"repro/internal/mitigate"
)

// The strategy <select> is rendered from mitigate.Strategies() at
// init, so a strategy registered in the mitigate package can never be
// missing from the UI (and a removed one can never linger).
func TestIndexHTMLListsEveryStrategy(t *testing.T) {
	if strings.Contains(indexHTML, "<!--STRATEGY-OPTIONS-->") {
		t.Fatal("strategy placeholder was not substituted")
	}
	for _, name := range mitigate.Strategies() {
		if !strings.Contains(indexHTML, ">"+name+"</option>") {
			t.Errorf("index HTML is missing strategy option %q", name)
		}
		if desc := mitigate.Describe(name); desc == "" {
			t.Errorf("strategy %q has no description for its option title", name)
		}
	}
	if !strings.Contains(indexHTML, `selected>fair</option>`) {
		t.Error("default selection is not the fair strategy")
	}
	// The options carry their descriptions as hover titles.
	if !strings.Contains(indexHTML, `<option title="`) {
		t.Error("strategy options carry no title attributes")
	}
	// The seed input feeds the exposure-lp draw.
	if !strings.Contains(indexHTML, `id="seed"`) {
		t.Error("index HTML is missing the sampling-seed input")
	}
}

// exposure-lp through POST /api/mitigate returns the distribution
// block, and the same seed returns the same bytes.
func TestMitigateEndpointDistribution(t *testing.T) {
	ts := testServer(t)
	body := map[string]any{
		"Dataset":  "table1",
		"Function": "0.3*language_test + 0.7*rating",
		"Strategy": "exposure-lp",
		"Seed":     7,
	}
	var out mitigateResponse
	res := postJSON(t, ts.URL+"/api/mitigate", body, &out)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("mitigate status: %d (%+v)", res.StatusCode, out)
	}
	d := out.Distribution
	if d == nil {
		t.Fatal("exposure-lp response carries no distribution")
	}
	if d.Seed != 7 || d.Support == 0 || len(d.Weights) != d.Support {
		t.Errorf("distribution malformed: %+v", d)
	}
	if d.Sampled < 0 || d.Sampled >= d.Support {
		t.Errorf("sampled index %d outside support %d", d.Sampled, d.Support)
	}
	sum := 0.0
	for _, w := range d.Weights {
		if w <= 0 {
			t.Errorf("non-positive weight %g", w)
		}
		sum += w
	}
	if sum < 1-1e-9 || sum > 1+1e-9 {
		t.Errorf("weights sum to %g, want 1", sum)
	}
	if d.ExpectedRatio < 0.95-1e-9 {
		t.Errorf("expected ratio %g below the default 0.95 floor", d.ExpectedRatio)
	}
	var again mitigateResponse
	postJSON(t, ts.URL+"/api/mitigate", body, &again)
	if again.Distribution == nil || again.Distribution.Sampled != d.Sampled ||
		again.Distribution.ExpectedRatio != d.ExpectedRatio {
		t.Errorf("same seed diverged: %+v vs %+v", d, again.Distribution)
	}
	// Deterministic strategies omit the block entirely.
	var det mitigateResponse
	postJSON(t, ts.URL+"/api/mitigate", map[string]any{
		"Dataset":  "table1",
		"Function": "0.3*language_test + 0.7*rating",
		"Strategy": "detcons",
		"K":        5,
	}, &det)
	if det.Distribution != nil {
		t.Errorf("deterministic strategy returned a distribution: %+v", det.Distribution)
	}
}
