package main

import (
	"testing"
	"time"

	"prestigebft/internal/experiments"
	"prestigebft/internal/harness"
	"prestigebft/internal/scenario"
	"prestigebft/internal/sim"
)

// TestFigureCellViolationExitsOne: figure cells earn their exit code by the
// same rule as chaos scenarios. A suite of two figure cells exits 0 while
// both hold every invariant, and 1 once one of them reports a violation —
// here a cell whose fabric drops every message, so nothing commits during
// its warmup.
func TestFigureCellViolationExitsOne(t *testing.T) {
	t.Parallel()
	cell := func(name string, net sim.NetworkConfig) *scenario.Scenario {
		return &scenario.Scenario{
			Name:   name,
			Opts:   harness.Options{N: 4, Clients: 8, BatchSize: 8, Seed: 5, Net: net},
			Warmup: 500 * time.Millisecond,
			Span:   time.Second,
			Read: func(env scenario.Environment) func() []harness.Row {
				return func() []harness.Row {
					return []harness.Row{harness.NewRow(name, "tps", env.Metrics().TPS(0, sim.Duration(time.Second)))}
				}
			},
		}
	}
	lossy := sim.DefaultNetworkConfig()
	lossy.DropRate = 1
	sw := world{newEnv: scenario.NewSimEnv}
	for _, tc := range []struct {
		cells []*scenario.Scenario
		want  int
	}{
		{[]*scenario.Scenario{cell("healthy", sim.NetworkConfig{}), cell("healthy-too", sim.NetworkConfig{})}, 0},
		{[]*scenario.Scenario{cell("healthy", sim.NetworkConfig{}), cell("silent", lossy)}, 1},
	} {
		fig := &experiments.Figure{Name: "exit rule", Cells: tc.cells}
		code, reports := runFigures("test", []*experiments.Figure{fig}, "", sw)
		if code != tc.want {
			t.Errorf("cells %s, %s: exit %d, want %d", tc.cells[0].Name, tc.cells[1].Name, code, tc.want)
		}
		if len(reports) != len(tc.cells) {
			t.Fatalf("%d reports for %d cells", len(reports), len(tc.cells))
		}
	}
}

// TestLiveSafetyExitsThree: a live safety violation is the one verdict that
// is never retryable; in the simulator the same verdict exits 1.
func TestLiveSafetyExitsThree(t *testing.T) {
	reports := []*scenario.Report{{Scenario: "fork", Violations: []string{"safety: servers 1 and 2 committed conflicting blocks at seq 7"}}}
	if code := verdicts(reports, world{live: true}); code != 3 {
		t.Errorf("live safety violation: exit %d, want 3", code)
	}
	if code := verdicts(reports, world{}); code != 1 {
		t.Errorf("simulated safety violation: exit %d, want 1", code)
	}
}
