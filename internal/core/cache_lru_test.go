package core

import (
	"fmt"
	"testing"

	"repro/internal/dataset"
	"repro/internal/fairness"
	"repro/internal/scoring"
)

// scoreVariant returns the Table 1 scores shifted deterministically so
// each i yields a distinct vector (and therefore a distinct cache
// scope).
func scoreVariant(t testing.TB, d *dataset.Dataset, i int) []float64 {
	t.Helper()
	fn, err := scoring.NewLinear(dataset.Table1Weights())
	if err != nil {
		t.Fatal(err)
	}
	scores, err := fn.Score(d)
	if err != nil {
		t.Fatal(err)
	}
	for r := range scores {
		scores[r] = scores[r] * (1 - float64(i)/1000)
	}
	return scores
}

// TestCacheMaxScopesBounded feeds a capped cache many distinct score
// vectors: the scope count must never exceed the bound, and results
// must match an uncached run.
func TestCacheMaxScopesBounded(t *testing.T) {
	d := dataset.Table1()
	c := NewCache()
	c.SetMaxScopes(4)
	for i := 0; i < 20; i++ {
		scores := scoreVariant(t, d, i)
		got, err := Quantify(d, scores, Config{Cache: c})
		if err != nil {
			t.Fatal(err)
		}
		if n := c.Scopes(); n > 4 {
			t.Fatalf("after %d runs the cache holds %d scopes, bound is 4", i+1, n)
		}
		want, err := Quantify(d, scores, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if got.Unfairness != want.Unfairness {
			t.Fatalf("run %d: capped-cache result %v differs from uncached %v", i, got.Unfairness, want.Unfairness)
		}
	}
	if n := c.Scopes(); n != 4 {
		t.Errorf("cache settled at %d scopes, want the bound 4", n)
	}
}

// TestCacheLRUEvictionOrder verifies the eviction is least-recently-
// used: re-touching a scope protects it while an untouched one is
// evicted.
func TestCacheLRUEvictionOrder(t *testing.T) {
	d := dataset.Table1()
	m := fairness.DefaultMeasure()
	c := NewCache()
	c.SetMaxScopes(2)
	a := c.scopeFor(d, scoreVariant(t, d, 1), m)
	c.scopeFor(d, scoreVariant(t, d, 2), m) // b
	// Touch a so b becomes the least recently used.
	if got := c.scopeFor(d, scoreVariant(t, d, 1), m); got != a {
		t.Fatal("re-request of a live scope returned a new scope")
	}
	c.scopeFor(d, scoreVariant(t, d, 3), m) // evicts b
	if got := c.scopeFor(d, scoreVariant(t, d, 1), m); got != a {
		t.Error("recently used scope was evicted")
	}
	if n := c.Scopes(); n > 2 {
		t.Errorf("cache holds %d scopes, bound is 2", n)
	}
}

// TestCacheBoundAcrossRuns holds the SetMaxScopes bound across
// Quantify runs sharing the cache.
func TestCacheBoundAcrossRuns(t *testing.T) {
	d := dataset.Table1()
	c := NewCache()
	c.SetMaxScopes(3)
	for i := 0; i < 10; i++ {
		if _, err := Quantify(d, scoreVariant(t, d, i), Config{Cache: c}); err != nil {
			t.Fatal(err)
		}
	}
	if n := c.Scopes(); n != 3 {
		t.Errorf("cache holds %d scopes, want 3", n)
	}
}

// TestSessionCacheLimit bounds a session's cache under a stream of
// panels with distinct scoring functions — the long-lived-server
// scenario.
func TestSessionCacheLimit(t *testing.T) {
	sess := NewSession()
	if err := sess.AddDataset("table1", dataset.Table1()); err != nil {
		t.Fatal(err)
	}
	sess.SetCacheLimit(4)
	for i := 0; i < 12; i++ {
		_, err := sess.Quantify(PanelRequest{
			Dataset:  "table1",
			Function: fmt.Sprintf("%g*language_test + %g*rating", 0.3+float64(i)/100, 0.7-float64(i)/100),
		})
		if err != nil {
			t.Fatal(err)
		}
		if n := sess.cache.Scopes(); n > 4 {
			t.Fatalf("after %d panels the session cache holds %d scopes, bound is 4", i+1, n)
		}
	}
	// Lifting the limit keeps existing scopes and stops evicting.
	sess.SetCacheLimit(0)
	for i := 12; i < 15; i++ {
		if _, err := sess.Quantify(PanelRequest{
			Dataset:  "table1",
			Function: fmt.Sprintf("%g*language_test + %g*rating", 0.3+float64(i)/100, 0.7-float64(i)/100),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if n := sess.cache.Scopes(); n != 7 {
		t.Errorf("unbounded cache holds %d scopes, want 7", n)
	}
}
