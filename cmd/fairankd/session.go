package main

import (
	"fmt"

	fairank "repro"
)

// buildSession assembles the explorer's initial session: the paper's
// Table 1 dataset plus, when preset is non-empty, one generated
// marketplace population, with the memoization cache bounded at
// maxScopes scopes (0 = unbounded; negative is an error). Extracted
// from main so the startup configuration is testable.
func buildSession(preset string, n int, seed uint64, maxScopes int) (*fairank.Session, *fairank.Marketplace, error) {
	if maxScopes < 0 {
		return nil, nil, fmt.Errorf("fairankd: negative -max-cached-scopes %d", maxScopes)
	}
	sess := fairank.NewSession()
	sess.SetCacheLimit(maxScopes)
	if err := sess.AddDataset("table1", fairank.Table1()); err != nil {
		return nil, nil, fmt.Errorf("fairankd: %w", err)
	}
	if preset == "" {
		return sess, nil, nil
	}
	m, err := fairank.Preset(preset, n, seed)
	if err != nil {
		return nil, nil, fmt.Errorf("fairankd: %w", err)
	}
	if err := sess.AddDataset(m.Name, m.Workers); err != nil {
		return nil, nil, fmt.Errorf("fairankd: %w", err)
	}
	return sess, m, nil
}
