package main

import (
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"

	fairank "repro"
	"repro/internal/core"
)

// runMitigate closes the explore-and-repair loop from the command
// line: quantify the most unfair partitioning, re-rank with the chosen
// strategy, re-quantify, and print the before/after report.
func runMitigate(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("mitigate", flag.ContinueOnError)
	data := fs.String("data", "", "data source (table1, preset:<name>, or CSV path)")
	fn := fs.String("fn", "", "scoring expression, e.g. '0.3*language_test + 0.7*rating'")
	strategy := fs.String("strategy", "fair", "re-ranking strategy: "+strings.Join(fairank.MitigationStrategies(), " | "))
	k := fs.Int("k", 0, "top-k prefix the constraints apply to (default min(10, n))")
	alpha := fs.Float64("alpha", 0.1, "FA*IR family-wise significance level, split across groups and exactly adjusted per group")
	minRatio := fs.Float64("min-ratio", 0.95, "exposure strategies: worst-group exposure ratio floor")
	seed := fs.Uint64("seed", 1, "exposure-lp: sampling seed (same seed, same ranking on every run)")
	targets := fs.String("targets", "", "comma-separated group=proportion targets, e.g. 'gender=Female=0.5,gender=Male=0.5'")
	normalize := fs.Bool("normalize", false, "min-max normalize the function's attributes first")
	filter := fs.String("filter", "", "comma-separated attr=value conjuncts")
	agg := fs.String("agg", "avg", "avg | max | min | variance")
	distance := fs.String("distance", "emd", "emd | emd-hat | ks | tv")
	bins := fs.Int("bins", 5, "histogram bins")
	attrs := fs.String("attrs", "", "comma-separated protected attributes to partition on")
	minGroup := fs.Int("min-group", 1, "minimum partition size")
	maxDepth := fs.Int("max-depth", 0, "maximum tree depth (0 = unlimited)")
	workers := fs.Int("workers", 0, "solver worker goroutines (0 = all CPUs, 1 = sequential; result is identical)")
	protected := fs.String("protected", "", "CSV loading: comma-separated protected columns")
	meta := fs.String("meta", "", "CSV loading: comma-separated meta columns")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *k < 0 {
		return fmt.Errorf("-k must be non-negative, got %d (0 selects the min(10, n) default)", *k)
	}
	targetMap, err := parseTargets(*targets)
	if err != nil {
		return err
	}
	d, err := loadData(*data, splitList(*protected), splitList(*meta))
	if err != nil {
		return err
	}
	sess := core.NewSession()
	if err := sess.AddDataset("cli", d); err != nil {
		return err
	}
	rp, err := sess.Resolve(core.PanelRequest{
		Dataset:      "cli",
		Function:     *fn,
		Normalize:    *normalize,
		Filter:       splitList(*filter),
		Aggregator:   *agg,
		Distance:     *distance,
		Bins:         *bins,
		Attributes:   splitList(*attrs),
		MinGroupSize: *minGroup,
		MaxDepth:     *maxDepth,
		Workers:      *workers,
	})
	if err != nil {
		return err
	}
	o, err := fairank.Mitigate(rp.Data, rp.Scores, rp.Config, fairank.MitigateOptions{
		Strategy:         *strategy,
		K:                *k,
		Targets:          targetMap,
		Alpha:            *alpha,
		MinExposureRatio: *minRatio,
		Seed:             *seed,
	})
	if err != nil {
		return err
	}
	text, err := fairank.RenderMitigation(o)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "dataset   : %s (%d individuals", *data, rp.Data.Len())
	if rp.Filter != "" {
		fmt.Fprintf(out, ", filter %s", rp.Filter)
	}
	fmt.Fprintf(out, ")\nfunction  : %s\n", rp.Function)
	fmt.Fprint(out, text)
	return nil
}

// parseTargets parses "label=proportion" pairs, where the label itself
// may contain '=' (group labels render as attr=value): the proportion
// is everything after the last '='.
func parseTargets(s string) (map[string]float64, error) {
	if s == "" {
		return nil, nil
	}
	out := make(map[string]float64)
	for _, term := range splitList(s) {
		i := strings.LastIndex(term, "=")
		if i <= 0 || i == len(term)-1 {
			return nil, fmt.Errorf("bad target %q, want group=proportion", term)
		}
		p, err := strconv.ParseFloat(term[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("bad target proportion in %q: %w", term, err)
		}
		out[term[:i]] = p
	}
	return out, nil
}
