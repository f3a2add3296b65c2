// Package experiments regenerates the tables and figures of the paper's
// evaluation (§6). A simulated cell is a scenario.Scenario whose Read turns
// the run into rows, so the scenario engine validates every cell against
// the fault bound f and checks its steady state and committed-prefix
// safety, exactly like a chaos scenario's. The package builds no cluster.
package experiments

import (
	"time"

	"prestigebft/internal/client"
	"prestigebft/internal/harness"
	"prestigebft/internal/scenario"
	"prestigebft/internal/sim"
)

// Figure is one table or figure of the evaluation.
type Figure struct {
	Name  string
	Notes string
	// Cells are the simulated cells, in row order.
	Cells []*scenario.Scenario
	// Finalize post-processes the ordered rows after every cell has run
	// (peak extraction, Figure 11's normalization); a closed-form table has
	// no cells and its Finalize builds every row.
	Finalize func(rows []harness.Row) []harness.Row
}

// Grid builds the grid running the cells in worlds newEnv builds, and the
// reports the run fills in.
func (f *Figure) Grid(newEnv func(harness.Options) (scenario.Environment, error)) (*harness.Grid, []*scenario.Report) {
	g, reports := scenario.Suite(f.Cells, newEnv)
	g.Name, g.Notes, g.Finalize = f.Name, f.Notes, f.Finalize
	return g, reports
}

// Run runs the figure on the simulator.
func (f *Figure) Run() (*harness.Result, []*scenario.Report) {
	g, reports := f.Grid(scenario.NewSimEnv)
	return g.Run(), reports
}

// row is harness.NewRow, the constructor of every figure row.
var row = harness.NewRow

// cell declares one simulated cell: opts (with any F1–F4 attackers in
// opts.Faults from t=0) run to span under the engine's own invariants.
func cell(label string, opts harness.Options, warmup, span time.Duration, read func(env scenario.Environment) func() []harness.Row) *scenario.Scenario {
	return &scenario.Scenario{Name: label, Opts: opts, Warmup: warmup, Span: span, Read: read}
}

// steadyCell reads a warmup plus span of steady state as one row: the
// span's throughput and the whole run's mean client latency.
func steadyCell(label string, opts harness.Options, warmup, span time.Duration) *scenario.Scenario {
	return cell(label, opts, warmup, warmup+span, func(env scenario.Environment) func() []harness.Row {
		return func() []harness.Row {
			tps := env.Metrics().TPS(sim.Duration(warmup), sim.Duration(warmup+span))
			return []harness.Row{row(label, "tps", tps, "latency_ms", client.MergeLatencies(env.ClientStats()).Mean())}
		}
	})
}
