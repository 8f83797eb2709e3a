package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	fairank "repro"
)

func TestBuildSessionDefault(t *testing.T) {
	sess, m, err := buildSession("crowdsourcing", 200, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	names := sess.DatasetNames()
	if len(names) != 2 || names[0] != "crowdsourcing" || names[1] != "table1" {
		t.Errorf("datasets: %v", names)
	}
	if m == nil || len(m.Jobs) == 0 {
		t.Error("marketplace missing")
	}
}

func TestBuildSessionNoPreset(t *testing.T) {
	sess, m, err := buildSession("", 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m != nil {
		t.Error("no preset should yield no marketplace")
	}
	if names := sess.DatasetNames(); len(names) != 1 || names[0] != "table1" {
		t.Errorf("datasets: %v", names)
	}
}

func TestBuildSessionBadPreset(t *testing.T) {
	if _, _, err := buildSession("nope", 100, 1, 64); err == nil {
		t.Error("unknown preset should error")
	}
}

// A negative -max-cached-scopes is refused at startup rather than
// silently treated as unbounded.
func TestBuildSessionNegativeCacheLimit(t *testing.T) {
	if _, _, err := buildSession("", 0, 0, -5); err == nil {
		t.Error("negative cache limit should error")
	}
}

// TestServedSessionEndToEnd drives the daemon's handler exactly as the
// UI does: list datasets, quantify the generated population.
func TestServedSessionEndToEnd(t *testing.T) {
	sess, m, err := buildSession("taskrabbit", 150, 3, 64)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(fairank.ServeHandler(sess))
	defer ts.Close()

	res, err := http.Get(ts.URL + "/api/datasets")
	if err != nil {
		t.Fatal(err)
	}
	var infos []struct {
		Name string `json:"name"`
		Rows int    `json:"rows"`
	}
	if err := json.NewDecoder(res.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if len(infos) != 2 {
		t.Fatalf("datasets: %+v", infos)
	}

	body, err := json.Marshal(fairank.PanelRequest{
		Dataset:  m.Name,
		Function: m.Jobs[0].Function.String(),
	})
	if err != nil {
		t.Fatal(err)
	}
	qres, err := http.Post(ts.URL+"/api/quantify", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer qres.Body.Close()
	if qres.StatusCode != http.StatusOK {
		t.Fatalf("quantify status %d", qres.StatusCode)
	}
	var panel struct {
		Unfairness float64 `json:"unfairness"`
		Partitions int     `json:"partitions"`
	}
	if err := json.NewDecoder(qres.Body).Decode(&panel); err != nil {
		t.Fatal(err)
	}
	if panel.Partitions < 2 || panel.Unfairness <= 0 {
		t.Errorf("panel: %+v", panel)
	}
}
