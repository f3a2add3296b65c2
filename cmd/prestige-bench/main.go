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
// document (one object per experiment) for the perf trajectory. Figure grids
// run their independent simulation cells on a worker pool (-workers, default
// one per CPU); results are deterministic and identical for any worker
// count. DESIGN.md §5 maps each experiment to the paper's figure.
//
// -scenario runs chaos scenarios (internal/scenario) instead of figures:
// per-scenario invariant verdicts print to stderr and the process exits
// nonzero if any invariant was violated, which is what lets CI use the suite
// as a regression gate. DESIGN.md §7 documents the scenario engine.
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
// Every scenario-shaped mode (-scenario, -ci, -fuzz, -soak, each sim or
// live) goes through runSuite and exits by one rule: 0 when every invariant
// held, 1 when only timing-class invariants were violated (liveness,
// steady state, recovery — retryable on a noisy host), 3 when a live run
// saw conflicting committed prefixes (a protocol bug, never retryable).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

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
	ciPath := flag.String("ci", "", "run the CI bench trajectory (fig4c + pipeline sweep + all scenarios) and write the combined JSON here; exits nonzero on any invariant violation")
	workers := flag.Int("workers", 0, "worker-pool size for experiment grids (0 = one per CPU)")
	depth := flag.Int("pipeline-depth", 0, "default replication window W for clusters that do not pin one (0 = core default, 8); specs with an explicit depth — the pipeline sweep, the *-mid-window scenarios — keep theirs")
	seedOffset := flag.Int64("seed-offset", 0, "shift every scenario's RNG seed by this offset (the nightly seed sweep)")
	live := flag.Bool("live", false, "run -scenario or -fuzz against a live loopback-TCP cluster (real replicas, real PoW) instead of the simulator")
	fuzzCount := flag.Int("fuzz", 0, "sample and run this many random chaos timelines (internal/scenario/fuzz); on violation, shrink and write a minimal timeline to -fuzz-out and exit 1")
	fuzzSeed := flag.Int64("fuzz-seed", 1, "seed of the fuzz sample stream (the nightly job passes its run id)")
	fuzzOut := flag.String("fuzz-out", "fuzz-failures", "directory for shrunk failing timelines")
	soak := flag.Duration("soak", 0, "run the soak scenario: a live cluster under rolling churn for this long, with resource flatness (ledger, heap, goroutines, p99) as its invariants")
	soakMetricsDir := flag.String("soak-metrics-dir", "", "archive raw /metrics snapshots (baseline/mid/end, per replica) into this directory")
	flag.Parse()

	harness.Workers = *workers
	harness.DefaultPipelineDepth = *depth

	names := make([]string, 0, len(harness.Experiments))
	for n := range harness.Experiments {
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

	w := world{newEnv: scenario.NewSimEnv}
	if *live {
		w = world{newEnv: liveharness.Builder(liveharness.Config{}), live: true}
	}
	switch {
	case *ciPath != "":
		runCI(*ciPath, *seedOffset)
	case *soak > 0:
		runSoak(*soak, *soakMetricsDir, *jsonPath)
	case *fuzzCount > 0:
		runFuzz(*fuzzCount, *fuzzSeed, w, *fuzzOut, *jsonPath)
	case *scenarios != "":
		scale := "scenario"
		if w.live {
			scale = "scenario-live"
		}
		res, reports := runScenarios(*scenarios, *seedOffset, w)
		writeJSON(*jsonPath, &benchOutput{Scale: scale, Results: []*harness.Result{res}})
		os.Exit(verdicts(reports, w))
	}
	if *live {
		fmt.Fprintln(os.Stderr, "-live applies to -scenario and -fuzz runs; pick scenarios with -scenario <names|all> or samples with -fuzz N")
		os.Exit(2)
	}

	scale := harness.Quick
	scaleName := "quick"
	if *full {
		scale = harness.Full
		scaleName = "full"
	}

	out := benchOutput{Scale: scaleName}
	run := func(name string) {
		runner, ok := harness.Experiments[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", name)
			os.Exit(2)
		}
		start := time.Now()
		res := runner(scale)
		out.Results = append(out.Results, res)
		fmt.Println(res)
		fmt.Printf("[%s completed in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	if *experiment == "all" {
		for _, n := range names {
			run(n)
		}
	} else {
		run(*experiment)
	}

	writeJSON(*jsonPath, &out)
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

// runSuite runs lib in w as one grid, one scenario per cell, and prints the
// table. Live rows share the sim suite's schema, so verdict JSON lands next
// to the simulator trajectory in CI artifacts, but they are wall-clock
// measurements: reproducible in verdict, not in bytes.
func runSuite(name, notes string, lib []*scenario.Scenario, w world) (*harness.Result, []*scenario.Report) {
	g, reports := scenario.Suite(lib, w.newEnv)
	g.Name, g.Notes = name, notes
	if w.live {
		g.Workers = 1
		for i := range g.Specs {
			label, measure := g.Specs[i].Label, g.Specs[i].Measure
			g.Specs[i].Measure = func(s *harness.ExperimentSpec) []harness.Row {
				fmt.Printf("live %-34s ...", label)
				start := time.Now()
				rows := measure(s)
				fmt.Printf(" done in %v\n", time.Since(start).Round(time.Millisecond))
				return rows
			}
		}
	}
	start := time.Now()
	res := g.Run()
	fmt.Println(res)
	fmt.Printf("[%d scenarios completed in %v]\n\n", len(lib), time.Since(start).Round(time.Millisecond))
	return res, reports
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
	fmt.Fprintf(os.Stderr, "\n%d of %d scenarios violated invariants\n", failed, len(reports))
	if w.live && safety {
		fmt.Fprintln(os.Stderr, "safety violation present: not retryable")
		return 3
	}
	return 1
}

// runScenarios runs the chaos suite (or a named subset) in w.
func runScenarios(spec string, seedOffset int64, w world) (*harness.Result, []*scenario.Report) {
	lib, err := scenario.List(parseScenarioNames(spec), seedOffset)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(2)
	}
	name, where := "Chaos scenarios", "the simulated cluster"
	if w.live {
		name, where = "Chaos scenarios (live)", "a live loopback-TCP cluster"
	}
	return runSuite(name, "declarative fault timelines on "+where+
		"; ok=1 means every invariant (safety, steady-state, liveness/recovery) held", lib, w)
}

// runCI produces the bench trajectory document consumed by CI's regression
// gate (and committed at the repo root as BENCH_PR<k>.json): the fig4c
// reputation table, the pipeline sweep, and the full chaos-scenario suite
// with pass/fail rows. Deterministic for any -workers value; exits nonzero
// if any scenario invariant is violated.
func runCI(path string, seedOffset int64) {
	out := benchOutput{Scale: "ci"}
	for _, res := range []*harness.Result{
		harness.RunFig4c(), harness.RunPipelineSweep(harness.Quick), harness.RunCheckpointSweep(harness.Quick),
	} {
		fmt.Println(res)
		out.Results = append(out.Results, res)
	}
	w := world{newEnv: scenario.NewSimEnv}
	res, reports := runScenarios("all", seedOffset, w)
	out.Results = append(out.Results, res)
	writeJSON(path, &out)
	os.Exit(verdicts(reports, w))
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
