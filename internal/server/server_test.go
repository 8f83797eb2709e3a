package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
)

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	sess := core.NewSession()
	if err := sess.AddDataset("table1", dataset.Table1()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(sess).Handler())
	t.Cleanup(ts.Close)
	return ts
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	res, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if out != nil {
		if err := json.NewDecoder(res.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return res
}

func postJSON(t *testing.T, url string, body any, out any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	res, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if out != nil {
		if err := json.NewDecoder(res.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return res
}

func TestIndexServed(t *testing.T) {
	ts := testServer(t)
	res, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(res.Body); err != nil {
		t.Fatal(err)
	}
	if res.StatusCode != http.StatusOK || !strings.Contains(buf.String(), "FaiRank") {
		t.Errorf("index: %d, %q...", res.StatusCode, buf.String()[:40])
	}
	// Unknown paths 404.
	res2, err := http.Get(ts.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	res2.Body.Close()
	if res2.StatusCode != http.StatusNotFound {
		t.Errorf("unknown path status: %d", res2.StatusCode)
	}
}

func TestDatasetsEndpoint(t *testing.T) {
	ts := testServer(t)
	var infos []datasetInfo
	res := getJSON(t, ts.URL+"/api/datasets", &infos)
	if res.StatusCode != http.StatusOK || len(infos) != 1 {
		t.Fatalf("datasets: %d, %v", res.StatusCode, infos)
	}
	if infos[0].Name != "table1" || infos[0].Rows != 10 || len(infos[0].Attributes) != 8 {
		t.Errorf("dataset info: %+v", infos[0])
	}
}

func TestQuantifyEndpoint(t *testing.T) {
	ts := testServer(t)
	var p panelSummary
	res := postJSON(t, ts.URL+"/api/quantify", core.PanelRequest{
		Dataset:  "table1",
		Function: "0.3*language_test + 0.7*rating",
	}, &p)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("quantify status: %d (%+v)", res.StatusCode, p)
	}
	if p.ID != 1 || p.Partitions == 0 || p.Tree == nil || p.Text == "" {
		t.Errorf("panel: %+v", p)
	}
	if p.Tree.SplitAttr != "ethnicity" {
		t.Errorf("tree root split: %q", p.Tree.SplitAttr)
	}
	// Panel listing.
	var panels []panelSummary
	getJSON(t, ts.URL+"/api/panels", &panels)
	if len(panels) != 1 || panels[0].Tree != nil {
		t.Errorf("panels list: %+v", panels)
	}
	// Detail view.
	var detail panelSummary
	res = getJSON(t, ts.URL+"/api/panels/1", &detail)
	if res.StatusCode != http.StatusOK || detail.Tree == nil {
		t.Errorf("panel detail: %d %+v", res.StatusCode, detail)
	}
	// Delete.
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/api/panels/1", nil)
	if err != nil {
		t.Fatal(err)
	}
	dres, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dres.Body.Close()
	if dres.StatusCode != http.StatusOK {
		t.Errorf("delete status: %d", dres.StatusCode)
	}
	getJSON(t, ts.URL+"/api/panels", &panels)
	if len(panels) != 0 {
		t.Errorf("panels after delete: %+v", panels)
	}
}

func TestQuantifyErrors(t *testing.T) {
	ts := testServer(t)
	var e apiError
	res := postJSON(t, ts.URL+"/api/quantify", core.PanelRequest{Dataset: "nope", Function: "rating"}, &e)
	if res.StatusCode != http.StatusNotFound || e.Error == "" {
		t.Errorf("unknown dataset: %d %+v", res.StatusCode, e)
	}
	res = postJSON(t, ts.URL+"/api/quantify", core.PanelRequest{Dataset: "table1"}, &e)
	if res.StatusCode != http.StatusBadRequest {
		t.Errorf("missing function: %d", res.StatusCode)
	}
	// Malformed JSON body.
	raw, err := http.Post(ts.URL+"/api/quantify", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	raw.Body.Close()
	if raw.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: %d", raw.StatusCode)
	}
}

func TestGenerateEndpoint(t *testing.T) {
	ts := testServer(t)
	var out map[string]any
	res := postJSON(t, ts.URL+"/api/datasets/generate", generateRequest{Preset: "taskrabbit", N: 200, Seed: 3}, &out)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("generate: %d %v", res.StatusCode, out)
	}
	if out["name"] != "taskrabbit-like" || out["rows"].(float64) != 200 {
		t.Errorf("generate out: %v", out)
	}
	var infos []datasetInfo
	getJSON(t, ts.URL+"/api/datasets", &infos)
	if len(infos) != 2 {
		t.Errorf("datasets after generate: %v", infos)
	}
	// Defaults kick in for empty request.
	res = postJSON(t, ts.URL+"/api/datasets/generate", generateRequest{}, &out)
	if res.StatusCode != http.StatusOK {
		t.Errorf("default generate: %d", res.StatusCode)
	}
	// Unknown preset errors.
	var e apiError
	res = postJSON(t, ts.URL+"/api/datasets/generate", generateRequest{Preset: "nope"}, &e)
	if res.StatusCode != http.StatusBadRequest {
		t.Errorf("bad preset: %d", res.StatusCode)
	}
}

func TestAnonymizeEndpoint(t *testing.T) {
	ts := testServer(t)
	var out map[string]any
	res := postJSON(t, ts.URL+"/api/datasets/anonymize", anonymizeRequest{Dataset: "table1", K: 2}, &out)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("anonymize: %d %v", res.StatusCode, out)
	}
	if out["name"] != "table1-k2" {
		t.Errorf("anonymize name: %v", out["name"])
	}
	// The anonymized dataset can be quantified.
	var p panelSummary
	res = postJSON(t, ts.URL+"/api/quantify", core.PanelRequest{
		Dataset:  "table1-k2",
		Function: "0.3*language_test + 0.7*rating",
	}, &p)
	if res.StatusCode != http.StatusOK {
		t.Errorf("quantify anonymized: %d", res.StatusCode)
	}
	// Datafly variant.
	res = postJSON(t, ts.URL+"/api/datasets/anonymize", anonymizeRequest{Dataset: "table1", K: 2, Algorithm: "datafly", Name: "t1-df"}, &out)
	if res.StatusCode != http.StatusOK {
		t.Errorf("datafly anonymize: %d %v", res.StatusCode, out)
	}
	// Errors.
	var e apiError
	res = postJSON(t, ts.URL+"/api/datasets/anonymize", anonymizeRequest{Dataset: "nope", K: 2}, &e)
	if res.StatusCode != http.StatusNotFound {
		t.Errorf("unknown dataset: %d", res.StatusCode)
	}
	res = postJSON(t, ts.URL+"/api/datasets/anonymize", anonymizeRequest{Dataset: "table1", K: 1}, &e)
	if res.StatusCode != http.StatusBadRequest {
		t.Errorf("k=1: %d", res.StatusCode)
	}
	res = postJSON(t, ts.URL+"/api/datasets/anonymize", anonymizeRequest{Dataset: "table1", K: 2, Algorithm: "zz"}, &e)
	if res.StatusCode != http.StatusBadRequest {
		t.Errorf("bad algorithm: %d", res.StatusCode)
	}
}

func TestPanelIDValidation(t *testing.T) {
	ts := testServer(t)
	res, err := http.Get(ts.URL + "/api/panels/abc")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusBadRequest {
		t.Errorf("bad id: %d", res.StatusCode)
	}
	res, err = http.Get(ts.URL + "/api/panels/99")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusNotFound {
		t.Errorf("missing panel: %d", res.StatusCode)
	}
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/api/panels/99", nil)
	if err != nil {
		t.Fatal(err)
	}
	dres, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dres.Body.Close()
	if dres.StatusCode != http.StatusNotFound {
		t.Errorf("delete missing: %d", dres.StatusCode)
	}
}

// TestConcurrentQuantify: eight identical concurrent quantifies all
// succeed, and every one either registers its own panel or is served
// from an in-flight twin (request coalescing), so the panel count is 8
// minus the coalesced count /api/health reports.
func TestConcurrentQuantify(t *testing.T) {
	ts := testServer(t)
	var before, after Health
	getJSON(t, ts.URL+"/api/health", &before)
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			buf, _ := json.Marshal(core.PanelRequest{Dataset: "table1", Function: "rating"})
			res, err := http.Post(ts.URL+"/api/quantify", "application/json", bytes.NewReader(buf))
			if err == nil {
				res.Body.Close()
				if res.StatusCode != http.StatusOK {
					err = fmt.Errorf("status %d", res.StatusCode)
				}
			}
			done <- err
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	getJSON(t, ts.URL+"/api/health", &after)
	var panels []panelSummary
	getJSON(t, ts.URL+"/api/panels", &panels)
	if coalesced := int(after.Coalesced - before.Coalesced); len(panels) != 8-coalesced {
		t.Errorf("concurrent panels: %d, want 8 - %d coalesced", len(panels), coalesced)
	}
	ids := map[int]bool{}
	for _, p := range panels {
		if ids[p.ID] {
			t.Errorf("duplicate panel id %d", p.ID)
		}
		ids[p.ID] = true
	}
}

func TestMitigateEndpoint(t *testing.T) {
	ts := testServer(t)
	var out mitigateResponse
	res := postJSON(t, ts.URL+"/api/mitigate", map[string]any{
		"Dataset":  "table1",
		"Function": "0.3*language_test + 0.7*rating",
		"Strategy": "detcons",
		"K":        5,
	}, &out)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("mitigate status: %d (%+v)", res.StatusCode, out)
	}
	if out.Strategy != "detcons" || out.K != 5 || out.Text == "" {
		t.Errorf("response: %+v", out)
	}
	if len(out.Before.Groups) == 0 || len(out.Before.Groups) != len(out.After.Groups) {
		t.Errorf("metrics groups: %d before, %d after", len(out.Before.Groups), len(out.After.Groups))
	}
	if !strings.Contains(out.Panel.Function, "[mitigated:detcons]") {
		t.Errorf("panel function: %q", out.Panel.Function)
	}
	// The mitigated re-quantification joins the panel list.
	var panels []panelSummary
	getJSON(t, ts.URL+"/api/panels", &panels)
	if len(panels) != 1 || panels[0].ID != out.Panel.ID {
		t.Errorf("panels: %+v", panels)
	}
}

func TestMitigateEndpointErrors(t *testing.T) {
	ts := testServer(t)
	post := func(body map[string]any) int {
		var out map[string]any
		res := postJSON(t, ts.URL+"/api/mitigate", body, &out)
		return res.StatusCode
	}
	fn := "0.3*language_test + 0.7*rating"
	if got := post(map[string]any{"Dataset": "nope", "Function": fn}); got != http.StatusNotFound {
		t.Errorf("unknown dataset: %d", got)
	}
	if got := post(map[string]any{"Dataset": "table1", "Function": fn, "Exhaustive": true}); got != http.StatusBadRequest {
		t.Errorf("exhaustive: %d", got)
	}
	if got := post(map[string]any{"Dataset": "table1", "Function": fn, "Objective": "least"}); got != http.StatusBadRequest {
		t.Errorf("least objective: %d", got)
	}
	if got := post(map[string]any{"Dataset": "table1", "Function": fn, "Strategy": "bogus"}); got != http.StatusBadRequest {
		t.Errorf("unknown strategy: %d", got)
	}
	if got := post(map[string]any{"Dataset": "table1", "Function": fn, "Attributes": []string{"gender"},
		"Strategy": "detgreedy", "K": 10,
		"Targets": map[string]float64{"gender=Female": 0.9, "gender=Male": 0.1},
	}); got != http.StatusUnprocessableEntity {
		t.Errorf("infeasible targets: %d", got)
	}
}
