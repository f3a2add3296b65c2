package main

// The -fuzz mode: sample N random chaos timelines from a seed, run each as
// an ordinary deterministic grid cell (or sequentially against a live TCP
// cluster with -live), and on any invariant violation shrink the failing
// timeline to a minimal reproducer and write it to -fuzz-out as a timeline
// document ready to be committed into internal/scenario/corpus/. The samples
// are one more suite for runSuite. DESIGN.md §12 documents the pipeline.

import (
	"fmt"
	"os"
	"path/filepath"

	"prestigebft/internal/harness"
	"prestigebft/internal/scenario"
	"prestigebft/internal/scenario/fuzz"
)

// Shrink budgets: oracle re-runs per failing timeline. Sim cells are
// hundreds of milliseconds, live cells tens of seconds, so the live budget
// stays small — a live shrink is a convenience, not the workhorse (the
// nightly sim sweep is).
const (
	simShrinkRuns  = 300
	liveShrinkRuns = 25
)

// runFuzz drives the whole fuzz pipeline and never returns.
func runFuzz(count int, seed int64, w world, outDir, jsonPath string) {
	scens := fuzz.New(seed).Scenarios(count)
	mode, suffix, shrinkRuns := "fuzz", "", simShrinkRuns
	if w.live {
		mode, suffix, shrinkRuns = "fuzz-live", ", live", liveShrinkRuns
	}
	res, reports := runSuite(fmt.Sprintf("Chaos fuzz (seed %d, %d samples%s)", seed, count, suffix),
		"randomized fault timelines sampled by internal/scenario/fuzz; ok=1 means every invariant held", scens, w)
	writeJSON(jsonPath, &benchOutput{Scale: mode, Results: []*harness.Result{res}})

	code := verdicts(reports, w)
	if code != 0 {
		fmt.Fprintln(os.Stderr, "shrinking")
		oracle := func(s *scenario.Scenario) []string { return s.RunWith(w.newEnv).Violations }
		for i, rep := range reports {
			if !rep.OK() {
				writeArtifact(outDir, seed, i, fuzz.Shrink(scens[i], oracle, shrinkRuns))
			}
		}
	}
	os.Exit(code)
}

// writeArtifact serializes a shrunk failing timeline into outDir and prints
// how to replay it. Artifact emission must never mask the violation exit:
// failures to write are reported and swallowed.
func writeArtifact(outDir string, seed int64, index int, shr fuzz.Result) {
	fmt.Fprintf(os.Stderr, "%s: shrunk to %d events in %d runs (%d accepted moves)\n",
		shr.Scenario.Name, len(shr.Scenario.Events), shr.Runs, shr.Accepted)
	for _, v := range shr.Violations {
		fmt.Fprintf(os.Stderr, "    ✗ %s\n", v)
	}
	data, err := scenario.MarshalScenario(shr.Scenario)
	if err != nil {
		fmt.Fprintf(os.Stderr, "    marshal artifact: %v\n", err)
		return
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "    create %s: %v\n", outDir, err)
		return
	}
	path := filepath.Join(outDir, shr.Scenario.Name+".json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "    write %s: %v\n", path, err)
		return
	}
	fmt.Fprintf(os.Stderr, "    wrote %s — the unshrunk sample replays with: prestige-bench -fuzz %d -fuzz-seed %d\n", path, index+1, seed)
	fmt.Fprintf(os.Stderr, "    after the fix, commit it (renamed corpus-*) under internal/scenario/corpus/\n")
}
