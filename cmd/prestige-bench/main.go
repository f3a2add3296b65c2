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
//	prestige-bench -soak 3m -soak-out v.json   # live cluster under churn, gated on resource flatness
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
// failing timeline, writes it under -fuzz-out as a committable corpus file,
// and exits 1 (3 for live safety violations). DESIGN.md §12 documents the
// fuzz-and-shrink pipeline and the corpus policy.
//
// -live replays the same declarative scenarios against a cluster of real
// runtime replicas over loopback TCP (internal/liveharness): real
// signatures, real proof-of-work, transport-level fault injection, and
// process-style crash/recover. Scenarios run sequentially (they share the
// machine's wall clock), verdicts carry the same safety and liveness
// semantics, and the committed-prefix invariant is checked across the live
// replicas' ledgers. Live runs are not byte-deterministic; DESIGN.md §9
// documents what is and is not preserved.
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

	_ "prestigebft/internal/baseline/hotstuff"
	_ "prestigebft/internal/baseline/prosecutor"
	_ "prestigebft/internal/baseline/sbft"
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
	liveSlack := flag.Float64("live-slack", 0, "multiplier on liveness bounds in -live mode (0 = default 1.5)")
	fuzzCount := flag.Int("fuzz", 0, "sample and run this many random chaos timelines (internal/scenario/fuzz); on violation, shrink and write a minimal timeline to -fuzz-out and exit 1")
	fuzzSeed := flag.Int64("fuzz-seed", 1, "seed of the fuzz sample stream (the nightly job passes its run id)")
	fuzzOut := flag.String("fuzz-out", "fuzz-failures", "directory for shrunk failing timelines")
	soak := flag.Duration("soak", 0, "run a live cluster under rolling churn for this long and gate on resource flatness (ledger, heap, goroutines, p99); exits 1 on any gate failure")
	soakOut := flag.String("soak-out", "", "write the soak verdict JSON here (nightly CI archives it)")
	soakMetricsDir := flag.String("soak-metrics-dir", "", "archive raw /metrics snapshots (baseline/mid/end, per replica) into this directory")
	ckptInterval := flag.Int("checkpoint-interval", 16, "checkpoint/compaction interval for -soak clusters (0 disables compaction — the ledger-flat gate then fails by design)")
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

	if *ciPath != "" {
		runCI(*ciPath, *seedOffset)
		return
	}

	if *soak > 0 {
		runSoak(*soak, *ckptInterval, *soakOut, *soakMetricsDir)
		return
	}

	if *fuzzCount > 0 {
		runFuzz(*fuzzCount, *fuzzSeed, *live, *fuzzOut, *jsonPath, *liveSlack)
		return
	}

	if *scenarios != "" {
		if *live {
			runScenariosLive(*scenarios, *jsonPath, *seedOffset, *liveSlack)
		} else {
			runScenarios(*scenarios, *jsonPath, *seedOffset)
		}
		return
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

// runScenarios executes the chaos suite (or a named subset) and exits
// nonzero if any invariant was violated — the CI regression gate.
func runScenarios(spec, jsonPath string, seedOffset int64) {
	g, reports, err := scenario.SuiteSeeded(parseScenarioNames(spec), seedOffset)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(2)
	}
	start := time.Now()
	res := g.Run()
	fmt.Println(res)
	fmt.Printf("[%d scenarios completed in %v]\n\n", len(reports), time.Since(start).Round(time.Millisecond))

	writeJSON(jsonPath, &benchOutput{Scale: "scenario", Results: []*harness.Result{res}})

	if failed := reportVerdicts(reports); failed > 0 {
		fmt.Fprintf(os.Stderr, "\n%d of %d scenarios violated invariants\n", failed, len(reports))
		os.Exit(1)
	}
}

// runScenariosLive executes scenarios sequentially against real TCP
// clusters (internal/liveharness) and exits nonzero on any violation. The
// emitted rows share the sim suite's schema so the verdict JSON lands next
// to the simulator trajectory in CI artifacts, but live rows are
// wall-clock measurements — reproducible in verdict, not in bytes.
//
// The exit code distinguishes what failed: 1 means only timing-class
// violations (liveness, steady-state, recovery — retryable on a noisy
// host), 3 means at least one safety violation (conflicting committed
// prefixes — a protocol bug, never retryable). CI's live-smoke retry
// keys off this distinction.
func runScenariosLive(spec, jsonPath string, seedOffset int64, slack float64) {
	lib, err := scenario.List(parseScenarioNames(spec), seedOffset)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(2)
	}
	build := liveharness.Builder(liveharness.Config{Slack: slack})
	res := &harness.Result{
		Name:  "Chaos scenarios (live)",
		Notes: "declarative fault timelines on a live loopback-TCP cluster; ok=1 means every invariant (safety, steady-state, liveness/recovery) held",
	}
	start := time.Now()
	reports := make([]*scenario.Report, 0, len(lib))
	for _, s := range lib {
		fmt.Printf("live %-34s ...", s.Name)
		cellStart := time.Now()
		rep := s.RunWith(build)
		fmt.Printf(" done in %v\n", time.Since(cellStart).Round(time.Millisecond))
		reports = append(reports, rep)
		res.Rows = append(res.Rows, rep.Row())
	}
	fmt.Println(res)
	fmt.Printf("[%d live scenarios completed in %v]\n\n", len(reports), time.Since(start).Round(time.Millisecond))

	writeJSON(jsonPath, &benchOutput{Scale: "scenario-live", Results: []*harness.Result{res}})

	if failed := reportVerdicts(reports); failed > 0 {
		fmt.Fprintf(os.Stderr, "\n%d of %d live scenarios violated invariants\n", failed, len(reports))
		for _, rep := range reports {
			for _, v := range rep.Violations {
				if strings.HasPrefix(v, "safety:") {
					fmt.Fprintln(os.Stderr, "safety violation present: not retryable")
					os.Exit(3)
				}
			}
		}
		os.Exit(1)
	}
}

// reportVerdicts prints per-scenario verdicts to stderr and counts failures.
func reportVerdicts(reports []*scenario.Report) int {
	failed := 0
	for _, rep := range reports {
		fmt.Fprintln(os.Stderr, rep)
		if !rep.OK() {
			failed++
		}
	}
	return failed
}

// runCI produces the bench trajectory document consumed by CI's regression
// gate (and committed at the repo root as BENCH_PR<k>.json): the fig4c
// reputation table, the pipeline sweep, and the full chaos-scenario suite
// with pass/fail rows. Deterministic for any -workers value; exits nonzero
// if any scenario invariant is violated.
func runCI(path string, seedOffset int64) {
	start := time.Now()
	out := benchOutput{Scale: "ci"}
	out.Results = append(out.Results, harness.RunFig4c())
	out.Results = append(out.Results, harness.RunPipelineSweep(harness.Quick))
	out.Results = append(out.Results, harness.RunCheckpointSweep(harness.Quick))
	g, reports, err := scenario.SuiteSeeded(nil, seedOffset)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(2)
	}
	out.Results = append(out.Results, g.Run())
	for _, res := range out.Results {
		fmt.Println(res)
	}
	fmt.Printf("[ci trajectory completed in %v]\n\n", time.Since(start).Round(time.Millisecond))
	writeJSON(path, &out)
	if failed := reportVerdicts(reports); failed > 0 {
		fmt.Fprintf(os.Stderr, "\n%d of %d scenarios violated invariants\n", failed, len(reports))
		os.Exit(1)
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
