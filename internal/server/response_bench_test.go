package server

import (
	"testing"

	"repro/internal/core"
	"repro/internal/marketplace"
)

// BenchmarkQuantifyResponse times building the detailed /api/quantify
// response — the JSON tree and the rendered text panel — for one solved
// panel over a 20k-row population, the part of a warm quantify request
// that is not the solve itself.
func BenchmarkQuantifyResponse(b *testing.B) {
	m, err := marketplace.PresetCrowdsourcing(20000, 1)
	if err != nil {
		b.Fatal(err)
	}
	sess := core.NewSession()
	if err := sess.AddDataset("crowdsourcing", m.Workers); err != nil {
		b.Fatal(err)
	}
	p, err := sess.Quantify(core.PanelRequest{Dataset: "crowdsourcing", Function: "0.3*language_test + 0.7*rating"})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := toSummary(p, true); s.Tree == nil || s.Text == "" {
			b.Fatal("summary has no detail")
		}
	}
}
