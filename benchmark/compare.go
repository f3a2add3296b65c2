package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// metricDef declares one metric: BENCHMARK.json carries the same table.
type metricDef struct {
	name, unit string
	// better is "higher" or "lower".
	better string
	// bound is the share of the parent's median by which the metric may get
	// worse before a change counts as a regression (end-to-end metrics only).
	bound float64
}

// endToEndMetrics are what a user of the system sees, per workload.
var endToEndMetrics = []metricDef{
	{"tps", "tx/s", "higher", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"p99_ms", "ms", "lower", 0.25},
	{"ok_share", "ratio", "higher", 0.002},
	{"outage_ms", "ms", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// runSet is the -out file: every run's value of every metric, by workload.
type runSet struct {
	Runs map[string]map[string][]float64 `json:"runs"`
}

func (s runSet) write(path string) error {
	data, err := json.MarshalIndent(s, "", " ")
	if err != nil {
		return fmt.Errorf("encode %s: %w", path, err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write run set: %w", err)
	}
	return nil
}

func readRunSet(path string) (runSet, error) {
	var s runSet
	data, err := os.ReadFile(path)
	if err != nil {
		return s, fmt.Errorf("read run set: %w", err)
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("parse %s: %w", path, err)
	}
	return s, nil
}

// parseResult extracts the result object from a run's output: its last
// non-empty line.
func parseResult(out []byte) (result, error) {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return res, fmt.Errorf("last output line is not a result object: %w", err)
	}
	return res, nil
}

// Verdicts of one (workload, metric) row.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// verdict applies a metric's bound to two sets of runs of it. The change's
// median may be worse than the parent's by at most bound × parent median.
// Where either side's own run-to-run spread (interquartile distance over
// median) is wider than the bound — or unknown, with fewer than two runs —
// the row is unresolved: the data cannot tell a regression from noise, and
// saying "unchanged" would be a claim it does not support.
func verdict(m metricDef, parent, change []float64) (v string, worse float64) {
	pm, cm := median(parent), median(change)
	worse = ratio(cm-pm, pm)
	if m.better == "higher" {
		worse = -worse
	}
	ps, pok := quartileSpread(parent)
	cs, cok := quartileSpread(change)
	switch {
	case !pok || !cok || ps > m.bound || cs > m.bound:
		return verdictUnresolved, worse
	case worse > m.bound:
		return verdictRegressed, worse
	}
	return verdictOK, worse
}

// runCompare prints one row per (workload, end-to-end metric) and returns 1
// if any row regressed.
func runCompare(parentPath, changePath string) int {
	parent, err := readRunSet(parentPath)
	if err != nil {
		fatalf(1, "%v", err)
	}
	change, err := readRunSet(changePath)
	if err != nil {
		fatalf(1, "%v", err)
	}
	exit := 0
	fmt.Printf("%-14s %-10s %12s %12s %9s %7s  %s\n", "workload", "metric", "parent", "change", "worse by", "bound", "verdict")
	for _, w := range workloads {
		for _, m := range endToEndMetrics {
			p, c := parent.Runs[w.name][m.name], change.Runs[w.name][m.name]
			v, worse := verdict(m, p, c)
			if v == verdictRegressed {
				exit = 1
			}
			fmt.Printf("%-14s %-10s %12.4f %12.4f %+8.2f%% %6.1f%%  %s (n=%d,%d)\n",
				w.name, m.name, median(p), median(c), worse*100, m.bound*100, v, len(p), len(c))
		}
	}
	return exit
}
