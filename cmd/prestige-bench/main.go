// Command prestige-bench regenerates the tables and figures of the
// PrestigeBFT paper's evaluation (§6) on the discrete-event simulator.
//
// Usage:
//
//	prestige-bench -experiment fig9            # one figure, quick scale
//	prestige-bench -experiment all -full       # everything at paper scale
//	prestige-bench -experiment all -json o.json  # also write machine-readable results
//	prestige-bench -scenario all               # the chaos-scenario suite (+ regression corpus)
//	prestige-bench -scenario majority-partition,flaky-network
//	prestige-bench -scenario corpus            # only the committed regression corpus
//	prestige-bench -live -scenario all         # the same suite on a live TCP cluster
//	prestige-bench -fuzz 50 -fuzz-seed 7       # 50 random timelines; shrink + artifact on violation
//	prestige-bench -fuzz 5 -fuzz-seed 7 -live  # a handful of fuzz samples on a live cluster
//	prestige-bench -soak 3m -json v.json       # the soak scenario: a live cluster under churn, gated on resource flatness
//	prestige-bench -workers 1                  # force sequential execution
//	prestige-bench -list                       # enumerate experiments and scenarios
//
// Results print as text tables; with -json they are also written as a JSON
// document (one object per experiment) for the perf trajectory. The figure
// runners live in internal/experiments: every simulated figure cell is a
// scenario run through the scenario engine, so it gets the same validation,
// steady-state and safety verdicts as a chaos scenario. Cells run on a
// worker pool (-workers, default one per CPU); results are deterministic and
// identical for any worker count. DESIGN.md §5 maps each experiment to the
// paper's figure.
//
// -scenario runs chaos scenarios (internal/scenario) instead of figures.
// DESIGN.md §7 documents the scenario engine.
//
// -fuzz samples N seeded random fault timelines (internal/scenario/fuzz)
// and runs them exactly like -scenario cells: deterministic in sim (same
// -fuzz-seed ⇒ byte-identical JSON at any -workers), sequential wall-clock
// runs with -live. A violated invariant shrinks the sample to a minimal
// failing timeline and writes it under -fuzz-out as a committable corpus
// file. DESIGN.md §12 documents the fuzz-and-shrink pipeline and the corpus
// policy.
//
// -live replays the same declarative scenarios against a cluster of real
// runtime replicas over loopback TCP (internal/liveharness): real
// signatures, real proof-of-work, transport-level fault injection, and
// process-style crash/recover. Scenarios run sequentially (they share the
// machine's wall clock), verdicts carry the same safety and liveness
// semantics, and the committed-prefix invariant is checked across the live
// replicas' ledgers. Live runs are not byte-deterministic; DESIGN.md §9
// documents what is and is not preserved.
//
// -soak D runs one more scenario live (soak.go): rolling follower churn for
// D, with the ledger, goroutine, heap and p99 bounds as its invariants.
//
// Every mode (-experiment, -scenario, -ci, -fuzz, -soak, each sim or live)
// goes through runFigures, prints every cell's verdict to stderr, and exits by
// one rule: 0 when every invariant held, 1 when only timing-class
// invariants were violated (liveness, steady state, recovery — retryable on
// a noisy host) or a simulated cell broke one, 3 when a live run saw
// conflicting committed prefixes (a protocol bug, never retryable). That
// rule is what lets CI use any suite as a regression gate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"prestigebft/internal/experiments"
	"prestigebft/internal/harness"
	"prestigebft/internal/liveharness"
	"prestigebft/internal/scenario"
)

// benchOutput is the schema of the -json document.
type benchOutput struct {
	Scale   string            `json:"scale"`
	Results []*harness.Result `json:"results"`
}

func main() {
	experiment := flag.String("experiment", "all", "experiment to run (fig4c, fig6..fig14, peak, pipeline, all)")
	scenarios := flag.String("scenario", "", "run chaos scenarios instead: a comma-separated list of names, or 'all'")
	full := flag.Bool("full", false, "run at paper scale (minutes of wall clock per figure)")
	list := flag.Bool("list", false, "list available experiments and scenarios")
	jsonPath := flag.String("json", "", "also write results as JSON to this path")
	ciPath := flag.String("ci", "", "run the CI bench trajectory (fig4c + pipeline and checkpoint sweeps + all scenarios) and write the combined JSON here; exits nonzero on any invariant violation")
	workers := flag.Int("workers", 0, "worker-pool size for experiment grids (0 = one per CPU)")
	seedOffset := flag.Int64("seed-offset", 0, "shift every scenario's RNG seed by this offset (the nightly seed sweep)")
	live := flag.Bool("live", false, "run -scenario or -fuzz against a live loopback-TCP cluster (real replicas, real PoW) instead of the simulator")
	fuzzCount := flag.Int("fuzz", 0, "sample and run this many random chaos timelines (internal/scenario/fuzz); on violation, shrink and write a minimal timeline to -fuzz-out and exit 1")
	fuzzSeed := flag.Int64("fuzz-seed", 1, "seed of the fuzz sample stream (the nightly job passes its run id)")
	fuzzOut := flag.String("fuzz-out", "fuzz-failures", "directory for shrunk failing timelines")
	soak := flag.Duration("soak", 0, "run the soak scenario: a live cluster under rolling churn for this long, with resource flatness (ledger, heap, goroutines, p99) as its invariants")
	soakMetricsDir := flag.String("soak-metrics-dir", "", "archive raw /metrics snapshots (baseline/mid/end, per replica) into this directory")
	flag.Parse()

	harness.Workers = *workers

	names := make([]string, 0, len(experiments.Experiments))
	for n := range experiments.Experiments {
		names = append(names, n)
	}
	sort.Strings(names)

	if *list {
		fmt.Println("experiments:")
		for _, n := range names {
			fmt.Printf("  %s\n", n)
		}
		fmt.Println("scenarios (-scenario):")
		for _, n := range scenario.Names() {
			fmt.Printf("  %s\n", n)
		}
		return
	}

	sim := world{newEnv: scenario.NewSimEnv}
	w := sim
	if *live {
		w = world{newEnv: liveharness.Builder(liveharness.Config{}), live: true}
	}
	switch {
	case *ciPath != "":
		// The trajectory CI's bench job gates on, committed as BENCH_PR<k>.json.
		var figs []*experiments.Figure
		for _, name := range []string{"fig4c", "pipeline", "checkpoint"} {
			figs = append(figs, experiments.Experiments[name](experiments.Quick))
		}
		code, _ := runFigures("ci", append(figs, chaosSuite("all", *seedOffset, sim)), *ciPath, sim)
		os.Exit(code)
	case *soak > 0:
		runSoak(*soak, *soakMetricsDir, *jsonPath)
	case *fuzzCount > 0:
		runFuzz(*fuzzCount, *fuzzSeed, w, *fuzzOut, *jsonPath)
	case *scenarios != "":
		scale := "scenario"
		if w.live {
			scale = "scenario-live"
		}
		code, _ := runFigures(scale, []*experiments.Figure{chaosSuite(*scenarios, *seedOffset, w)}, *jsonPath, w)
		os.Exit(code)
	}
	if *live {
		fmt.Fprintln(os.Stderr, "-live applies to -scenario and -fuzz runs; pick scenarios with -scenario <names|all> or samples with -fuzz N")
		os.Exit(2)
	}

	scale, scaleName := experiments.Quick, "quick"
	if *full {
		scale, scaleName = experiments.Full, "full"
	}
	if *experiment != "all" {
		if _, ok := experiments.Experiments[*experiment]; !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *experiment)
			os.Exit(2)
		}
		names = []string{*experiment}
	}
	figs := make([]*experiments.Figure, len(names))
	for i, n := range names {
		figs[i] = experiments.Experiments[n](scale)
	}
	code, _ := runFigures(scaleName, figs, *jsonPath, sim)
	os.Exit(code)
}

// parseScenarioNames splits a -scenario spec into names; "all" (or empty)
// selects the whole library.
func parseScenarioNames(spec string) []string {
	if spec == "all" {
		return nil
	}
	var names []string
	for _, n := range strings.Split(spec, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	return names
}

// world is where a suite's scenarios run: the simulator (independent cells
// on the worker pool, byte-identical at any pool size) or live loopback-TCP
// clusters (one cell at a time — they share the machine's wall clock).
type world struct {
	newEnv func(harness.Options) (scenario.Environment, error)
	live   bool
}

// runFigures is the one suite loop: it runs each figure's cells in w as one
// grid and prints its table, writes the results as one -json document, and
// returns the exit code the cells' verdicts earn, with the reports in cell
// order. Chaos suites are figures whose cells read their verdict rows. Live
// rows share the sim suite's schema, so verdict JSON lands next to the
// simulator trajectory in CI artifacts, but they are wall-clock
// measurements: reproducible in verdict, not in bytes.
func runFigures(scale string, figs []*experiments.Figure, jsonPath string, w world) (int, []*scenario.Report) {
	out := benchOutput{Scale: scale}
	var reports []*scenario.Report
	for _, fig := range figs {
		g, reps := fig.Grid(w.newEnv)
		if w.live {
			g.Workers = 1
			for i, run := range g.Cells {
				g.Cells[i] = func() []harness.Row {
					fmt.Printf("live %-34s ...", fig.Cells[i].Name)
					start := time.Now()
					rows := run()
					fmt.Printf(" done in %v\n", time.Since(start).Round(time.Millisecond))
					return rows
				}
			}
		}
		start := time.Now()
		res := g.Run()
		fmt.Println(res)
		fmt.Printf("[%d cells completed in %v]\n\n", len(fig.Cells), time.Since(start).Round(time.Millisecond))
		out.Results = append(out.Results, res)
		reports = append(reports, reps...)
	}
	writeJSON(jsonPath, &out)
	return verdicts(reports, w), reports
}

// verdicts prints every verdict to stderr and returns the exit code they
// earn by the one rule in the package comment.
func verdicts(reports []*scenario.Report, w world) int {
	failed, safety := 0, false
	for _, rep := range reports {
		fmt.Fprintln(os.Stderr, rep)
		if !rep.OK() {
			failed++
		}
		for _, v := range rep.Violations {
			safety = safety || strings.HasPrefix(v, "safety:")
		}
	}
	if failed == 0 {
		return 0
	}
	fmt.Fprintf(os.Stderr, "\n%d of %d cells violated invariants\n", failed, len(reports))
	if w.live && safety {
		fmt.Fprintln(os.Stderr, "safety violation present: not retryable")
		return 3
	}
	return 1
}

// chaosSuite resolves a -scenario spec (a list of names, or all) into the
// chaos suite for w.
func chaosSuite(spec string, seedOffset int64, w world) *experiments.Figure {
	lib, err := scenario.List(parseScenarioNames(spec), seedOffset)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(2)
	}
	name, where := "Chaos scenarios", "the simulated cluster"
	if w.live {
		name, where = "Chaos scenarios (live)", "a live loopback-TCP cluster"
	}
	return &experiments.Figure{
		Name:  name,
		Notes: "declarative fault timelines on " + where + "; ok=1 means every invariant (safety, steady-state, liveness/recovery) held",
		Cells: lib,
	}
}

// writeJSON writes the machine-readable result document when a path is set.
func writeJSON(path string, out *benchOutput) {
	if path == "" {
		return
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "marshal results: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "write %s: %v\n", path, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %d experiment results to %s\n", len(out.Results), path)
}
