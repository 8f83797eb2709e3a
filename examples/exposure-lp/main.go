// Stochastic fairness of exposure: walk the exposure-lp pipeline end
// to end — an LP whose optimum is a distribution over a few rankings,
// then seeded sampling — and audit what the mixture guarantees that
// any single ranking cannot.
//
// The deterministic "exposure" strategy caps the worst pairwise
// exposure ratio of its one output ranking best-effort; exposure-lp
// certifies the floor exactly, in expectation over its distribution,
// and is never infeasible. This walkthrough makes that difference
// concrete on a marketplace with a known injected bias.
//
//	go run ./examples/exposure-lp
package main

import (
	"fmt"
	"log"

	fairank "repro"
)

func main() {
	// A crowdsourcing marketplace whose translation job advantages
	// native English speakers through the language test.
	m, err := fairank.Preset("crowdsourcing", 400, 1)
	if err != nil {
		log.Fatal(err)
	}
	var job *fairank.Job
	for i := range m.Jobs {
		if m.Jobs[i].Name == "translation" {
			job = &m.Jobs[i]
		}
	}
	if job == nil {
		log.Fatal("no translation job in the preset")
	}
	scores, err := job.Function.Score(m.Workers)
	if err != nil {
		log.Fatal(err)
	}
	cfg := fairank.Config{Attributes: []string{"gender"}, MaxDepth: 1}

	// Step 1+2+3 in one call: quantify the most unfair partitioning,
	// solve the exposure LP over it, sample a ranking from the optimal
	// distribution with the seed, and re-quantify the sample.
	fmt.Println("== exposure-lp:", fairank.DescribeStrategy("exposure-lp"))
	o, err := fairank.Mitigate(m.Workers, scores, cfg, fairank.MitigateOptions{
		Strategy:         "exposure-lp",
		MinExposureRatio: 0.95,
		Seed:             7,
	})
	if err != nil {
		log.Fatal(err)
	}

	// The Distribution is the strategy's real output: the sampled
	// ranking the rest of the loop evaluated is one draw from it.
	d := o.Distribution
	fmt.Printf("\nthe LP optimum is a distribution over %d rankings;\n", len(d.Rankings))
	fmt.Printf("seed %d drew component #%d (weight %.4f)\n",
		d.Seed, d.Sampled+1, d.Weights[d.Sampled])

	// The guarantee lives on the mixture. Compare the expected
	// exposure ratio (certified ≥ 0.95 by the LP) with the sampled
	// ranking's realized ratio, which may legitimately sit below it.
	fmt.Printf("\nexpected worst exposure ratio (mixture):  %.4f  — the LP floor, exact\n", d.ExpectedRatio)
	fmt.Printf("realized worst exposure ratio (sample) :  %.4f  — one draw, may dip below\n", o.After.ExposureRatio)
	for i, label := range o.GroupLabels {
		fmt.Printf("  %-16s expected exposure %.4f\n", label, d.ExpectedExposure[i])
	}

	// Determinism: the same seed reproduces the same draw bit for bit;
	// a different seed may draw a different component of the same
	// distribution.
	again, err := fairank.Mitigate(m.Workers, scores, cfg, fairank.MitigateOptions{
		Strategy: "exposure-lp", MinExposureRatio: 0.95, Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}
	other, err := fairank.Mitigate(m.Workers, scores, cfg, fairank.MitigateOptions{
		Strategy: "exposure-lp", MinExposureRatio: 0.95, Seed: 8,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nseed 7 again -> component #%d (same draw: %v); seed 8 -> component #%d\n",
		again.Distribution.Sampled+1, again.Distribution.Sampled == d.Sampled,
		other.Distribution.Sampled+1)

	// In expectation over many impressions, serving fresh draws
	// converges to the certified exposure; averaging the weights times
	// each component's exposure is exactly the LP's E_g.
	fmt.Println("\nserving repeatedly realizes the expectation: each impression")
	fmt.Println("samples a fresh ranking; amortized group exposure converges to")
	fmt.Println("the certified values above.")

	// The full before/after report, including the distribution block.
	text, err := fairank.RenderMitigation(o)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n== full mitigation report ==")
	fmt.Print(text)
}
