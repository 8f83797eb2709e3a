package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSplitList(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"a", []string{"a"}},
		{"a, b ,c", []string{"a", "b", "c"}},
		{" , ,", nil},
	}
	for _, c := range cases {
		got := splitList(c.in)
		if len(got) != len(c.want) {
			t.Errorf("splitList(%q) = %v, want %v", c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("splitList(%q) = %v, want %v", c.in, got, c.want)
			}
		}
	}
}

func TestLoadDataSources(t *testing.T) {
	d, err := loadData("table1", nil, nil)
	if err != nil || d.Len() != 10 {
		t.Errorf("table1: %v, %v", d, err)
	}
	d, err = loadData("preset:taskrabbit:120:7", nil, nil)
	if err != nil || d.Len() != 120 {
		t.Errorf("preset: %v, %v", d, err)
	}
	if _, err := loadData("", nil, nil); err == nil {
		t.Error("empty source should error")
	}
	if _, err := loadData("preset:nope", nil, nil); err == nil {
		t.Error("unknown preset should error")
	}
	if _, err := loadData("preset:fiverr:xx", nil, nil); err == nil {
		t.Error("bad preset size should error")
	}
	if _, err := loadData("preset:fiverr:100:yy", nil, nil); err == nil {
		t.Error("bad preset seed should error")
	}
	if _, err := loadData("/nonexistent/file.csv", nil, nil); err == nil {
		t.Error("missing file should error")
	}
}

func TestLoadDataCSV(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "w.csv")
	csv := "id,gender,skill\nw1,F,0.5\nw2,M,0.7\n"
	if err := os.WriteFile(path, []byte(csv), 0o600); err != nil {
		t.Fatal(err)
	}
	d, err := loadData(path, []string{"gender"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 2 || len(d.Schema().Protected()) != 1 {
		t.Errorf("csv load: %d rows, protected %v", d.Len(), d.Schema().Protected())
	}
}

func TestRunExperimentCmdTable1(t *testing.T) {
	var buf bytes.Buffer
	if err := runExperimentCmd([]string{"E1", "-quick"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "EXACT MATCH") {
		t.Errorf("E1 output missing verdict:\n%s", out)
	}
	if !strings.Contains(out, "w10") {
		t.Error("E1 output missing rows")
	}
}

func TestRunExperimentCmdUnknown(t *testing.T) {
	var buf bytes.Buffer
	if err := runExperimentCmd([]string{"E99"}, &buf); err == nil {
		t.Error("unknown experiment should error")
	}
	if err := runExperimentCmd([]string{"-bogus-flag"}, &buf); err == nil {
		t.Error("bad flag should error")
	}
}

func TestRunQuantifyTable1(t *testing.T) {
	var buf bytes.Buffer
	err := runQuantify([]string{
		"-data", "table1",
		"-fn", "0.3*language_test + 0.7*rating",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"unfairness: 0.3467", "split on ethnicity", "pairwise distances:"} {
		if !strings.Contains(out, want) {
			t.Errorf("quantify output missing %q:\n%s", want, out)
		}
	}
}

func TestRunQuantifyFilterAndOptions(t *testing.T) {
	var buf bytes.Buffer
	err := runQuantify([]string{
		"-data", "table1",
		"-fn", "rating",
		"-filter", "language=English",
		"-objective", "least",
		"-agg", "max",
		"-distance", "ks",
		"-bins", "4",
		"-attrs", "gender,country",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "filter") || !strings.Contains(out, "least-unfair max-ks(bins=4)") {
		t.Errorf("quantify options not reflected:\n%s", out)
	}
}

func TestRunQuantifyExhaustive(t *testing.T) {
	var buf bytes.Buffer
	err := runQuantify([]string{
		"-data", "table1",
		"-fn", "0.3*language_test + 0.7*rating",
		"-attrs", "gender,language",
		"-exhaustive",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "unfairness: 0.2667") {
		t.Errorf("exhaustive quantify:\n%s", buf.String())
	}
}

func TestRunQuantifyErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := runQuantify([]string{"-fn", "rating"}, &buf); err == nil {
		t.Error("missing -data should error")
	}
	if err := runQuantify([]string{"-data", "table1"}, &buf); err == nil {
		t.Error("missing -fn should error")
	}
	if err := runQuantify([]string{"-data", "table1", "-fn", ")("}, &buf); err == nil {
		t.Error("bad function should error")
	}
}

func TestRunAudit(t *testing.T) {
	var buf bytes.Buffer
	if err := runAudit([]string{"-preset", "crowdsourcing", "-n", "200"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "FAIRNESS REPORT") || !strings.Contains(out, "translation") {
		t.Errorf("audit output:\n%s", out)
	}
	// Quantify-only mode reads -workers; the report is identical for
	// every worker count.
	for _, w := range []string{"1", "3"} {
		var wbuf bytes.Buffer
		if err := runAudit([]string{"-preset", "crowdsourcing", "-n", "200", "-workers", w}, &wbuf); err != nil {
			t.Fatal(err)
		}
		if wbuf.String() != out {
			t.Errorf("-workers %s changed the report:\n%s", w, wbuf.String())
		}
	}
}

func TestRunAuditRankOnly(t *testing.T) {
	var buf bytes.Buffer
	if err := runAudit([]string{"-preset", "fiverr", "-n", "200", "-rank-only"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "most problematic job") {
		t.Errorf("rank-only audit output:\n%s", buf.String())
	}
}

func TestRunAuditErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := runAudit([]string{"-preset", "nope"}, &buf); err == nil {
		t.Error("unknown preset should error")
	}
	if err := runAudit([]string{"-preset", "fiverr", "-agg", "nope"}, &buf); err == nil {
		t.Error("unknown aggregator should error")
	}
	if err := runAudit([]string{"-preset", "fiverr", "-workers", "-1"}, &buf); err == nil {
		t.Error("negative -workers should error")
	}
}

func TestRunGenerateToFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.csv")
	var buf bytes.Buffer
	if err := runGenerate([]string{"-preset", "taskrabbit", "-n", "150", "-o", path}, &buf); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(string(data), "\n")
	if lines != 151 { // header + 150 rows
		t.Errorf("generated %d lines", lines)
	}
	if !strings.HasPrefix(string(data), "id,gender,") {
		t.Errorf("csv header: %q", strings.SplitN(string(data), "\n", 2)[0])
	}
}

func TestRunGenerateCrawlToStdout(t *testing.T) {
	var buf bytes.Buffer
	if err := runGenerate([]string{"-preset", "fiverr", "-n", "100", "-crawl"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "id,") {
		t.Errorf("stdout csv: %q", buf.String()[:20])
	}
}

func TestRunGenerateErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := runGenerate([]string{"-preset", "nope"}, &buf); err == nil {
		t.Error("unknown preset should error")
	}
	if err := runGenerate([]string{"-o", "/nonexistent/dir/x.csv"}, &buf); err == nil {
		t.Error("unwritable path should error")
	}
}

func TestRunAnonymizeMondrian(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "anon.csv")
	var buf bytes.Buffer
	err := runAnonymize([]string{
		"-data", "preset:crowdsourcing:300:5",
		"-k", "5",
		"-algorithm", "mondrian",
		"-o", path,
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(string(data), "\n") != 301 {
		t.Errorf("anonymized rows: %d", strings.Count(string(data), "\n"))
	}
}

func TestRunAnonymizeDatafly(t *testing.T) {
	var buf bytes.Buffer
	err := runAnonymize([]string{
		"-data", "preset:taskrabbit:300:5",
		"-k", "3",
		"-algorithm", "datafly",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "id,") {
		t.Errorf("datafly stdout: %q", buf.String()[:20])
	}
}

func TestRunAnonymizeErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := runAnonymize([]string{"-k", "5"}, &buf); err == nil {
		t.Error("missing -data should error")
	}
	if err := runAnonymize([]string{"-data", "table1", "-algorithm", "zz"}, &buf); err == nil {
		t.Error("unknown algorithm should error")
	}
	if err := runAnonymize([]string{"-data", "table1", "-k", "100"}, &buf); err == nil {
		t.Error("impossible k should error")
	}
}
