package fairank

import (
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestTable1Exact is the headline E1 check at the facade level: the
// recovered scoring function reproduces the paper's printed f column
// on every row of Table 1.
func TestTable1Exact(t *testing.T) {
	d := Table1()
	fn, err := NewScorer(Table1Weights())
	if err != nil {
		t.Fatal(err)
	}
	scores, err := fn.Score(d)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.29, 0.911, 0.65, 0.724, 0.885, 0.266, 0.971, 0.195, 0.271, 0.62}
	for i := range want {
		if math.Abs(scores[i]-want[i]) > 1e-9 {
			t.Errorf("f(%s) = %.6f, want %.6f", d.ID(i), scores[i], want[i])
		}
	}
}

// TestQuickstartPipeline exercises the full public workflow the README
// advertises: load → score → quantify → render.
func TestQuickstartPipeline(t *testing.T) {
	d := Table1()
	fn, err := ParseScorer("0.3*language_test + 0.7*rating")
	if err != nil {
		t.Fatal(err)
	}
	scores, err := fn.Score(d)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Quantify(d, scores, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Unfairness-0.346667) > 1e-5 {
		t.Errorf("quickstart unfairness = %.6f", res.Unfairness)
	}
	out := RenderResult(res, scores)
	if !strings.Contains(out, "unfairness: 0.3467") {
		t.Errorf("render: %q", out)
	}
}

// TestFacadeSessionServer wires the facade pieces together: session,
// HTTP handler, filtering, bucketization.
func TestFacadeSessionServer(t *testing.T) {
	sess := NewSession()
	if err := sess.AddDataset("table1", Table1()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(ServeHandler(sess))
	defer ts.Close()
	res, err := http.Get(ts.URL + "/api/datasets")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Errorf("datasets status: %d", res.StatusCode)
	}
}

// TestFacadeFilterBucketize checks predicate building and numeric
// bucketization through the facade.
func TestFacadeFilterBucketize(t *testing.T) {
	d := Table1()
	f, err := d.Filter(Or(Eq("gender", "Female"), And(Eq("gender", "Male"), Eq("language", "English"))))
	if err != nil {
		t.Fatal(err)
	}
	if f.Len() != 8 {
		t.Errorf("filter size: %d", f.Len())
	}
	bk, err := d.Bucketize("year_of_birth", CutPoints(1980, 2000))
	if err != nil {
		t.Fatal(err)
	}
	vals, err := bk.DistinctValues("year_of_birth", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 3 {
		t.Errorf("buckets: %v", vals)
	}
	// Bucketized numeric protected attributes join the partitioning.
	fn, err := NewScorer(Table1Weights())
	if err != nil {
		t.Fatal(err)
	}
	scores, err := fn.Score(bk)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Quantify(bk, scores, Config{Attributes: []string{"gender", "year_of_birth"}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Unfairness <= 0 {
		t.Errorf("bucketized quantify: %.4f", res.Unfairness)
	}
}

// TestFacadeAnonymizePipeline checks the anonymize → quantify flow.
func TestFacadeAnonymizePipeline(t *testing.T) {
	m, err := Preset("crowdsourcing", 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	quasi := []string{"gender", "ethnicity", "language", "region"}
	anon, err := Mondrian(m.Workers, quasi, 5)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := IsKAnonymous(anon, quasi, 5)
	if err != nil || !ok {
		t.Fatalf("not 5-anonymous: %v %v", ok, err)
	}
	scores, err := m.Jobs[0].Function.Score(anon)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Quantify(anon, scores, Config{Attributes: quasi}); err != nil {
		t.Fatal(err)
	}
}

// TestFacadeExperiments smoke-tests the experiment entry points.
func TestFacadeExperiments(t *testing.T) {
	if len(ExperimentIDs()) != 11 {
		t.Errorf("experiment ids: %v", ExperimentIDs())
	}
	if _, err := DescribeExperiment("E1"); err != nil {
		t.Error(err)
	}
	tables, err := RunExperiment("E1", ExperimentOptions{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) == 0 {
		t.Error("E1 produced no tables")
	}
}

// TestFacadeCrawlPipeline checks the crawl → clean → audit flow used
// by the "real crawled data" substitution.
func TestFacadeCrawlPipeline(t *testing.T) {
	m, err := Preset("fiverr", 400, 7)
	if err != nil {
		t.Fatal(err)
	}
	crawled, err := Crawl(m.Workers, CrawlOptions{Noise: 0.02, MissingRate: 0.05, SampleRate: 0.9}, 11)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := crawled.DropMissing()
	if err != nil {
		t.Fatal(err)
	}
	scores, err := m.Jobs[0].Function.Score(clean)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Quantify(clean, scores, Config{Attributes: []string{"gender", "ethnicity", "region"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Tree.Validate(); err != nil {
		t.Error(err)
	}
}

// TestFacadeMitigatePipeline drives the quantify → mitigate →
// re-quantify loop through the public facade.
func TestFacadeMitigatePipeline(t *testing.T) {
	d := Table1()
	fn, err := NewScorer(Table1Weights())
	if err != nil {
		t.Fatal(err)
	}
	scores, err := fn.Score(d)
	if err != nil {
		t.Fatal(err)
	}
	o, err := Mitigate(d, scores, Config{Attributes: []string{"gender", "language"}}, MitigateOptions{
		Strategy: "detcons",
		K:        5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if o.Strategy != "detcons" || len(o.Ranking) != d.Len() {
		t.Fatalf("outcome %+v malformed", o)
	}
	text, err := RenderMitigation(o)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "mitigation : detcons") {
		t.Errorf("rendered report lacks strategy header:\n%s", text)
	}
	if len(MitigationStrategies()) != 5 {
		t.Errorf("strategies = %v", MitigationStrategies())
	}
	if _, err := MitigatorByName("nope"); err == nil {
		t.Error("unknown strategy accepted")
	}
	// Impossible targets surface the typed sentinel through the facade.
	_, err = Mitigate(d, scores, Config{Attributes: []string{"gender"}}, MitigateOptions{
		Strategy: "detgreedy",
		K:        10,
		Targets:  map[string]float64{"gender=Female": 0.9, "gender=Male": 0.1},
	})
	if !errors.Is(err, ErrInfeasible) {
		t.Errorf("expected ErrInfeasible, got %v", err)
	}
}
