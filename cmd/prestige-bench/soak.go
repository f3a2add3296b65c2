package main

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"prestigebft/internal/experiments"
	"prestigebft/internal/harness"
	"prestigebft/internal/liveharness"
	"prestigebft/internal/scenario"
	"prestigebft/internal/types"
)

// Soak-mode shape: a 4-replica cluster under rolling follower churn. The
// point is not protocol coverage (the scenario suite owns that) but
// resource flatness over time — the class of bug that only shows up when a
// cluster runs for minutes, not seconds.
const (
	soakWarmup    = 5 * time.Second  // no churn before this; the steady scrape and p99 are taken here
	soakCooldown  = 10 * time.Second // last churn recovery ends this early
	churnPeriod   = 20 * time.Second // one crash/recover cycle per period
	churnDowntime = 5 * time.Second  // how long each crashed follower stays down

	soakCheckpointInterval = 16
)

// soakScenario is the soak as a scenario: dur of rolling follower churn —
// one crash/recover cycle per period, rotating across the followers, never
// more than f=1 down at once, healed well before the end — whose invariants
// are the resource-flatness gates. Generous on purpose: they exist to catch
// monotonic growth (leaks, unbounded ledgers), not to flake on scheduler
// noise. With interval 0 nothing compacts and the ledger bound fails, which
// is the proof the bound measures something real.
func soakScenario(dur time.Duration, interval int) *scenario.Scenario {
	s := &scenario.Scenario{
		Name:        "soak",
		Description: "rolling follower churn with ledger, goroutine, heap and p99 growth bounds",
		Opts: harness.Options{
			N: 4, Clients: 8, BatchSize: 8, Seed: 301,
			ClientTimeout:      500 * time.Millisecond,
			CheckpointInterval: interval,
		},
		Warmup: soakWarmup,
		Span:   dur,
		Invariants: scenario.Invariants{
			MaxLedgerBlocks: 4*interval + 64,
			MaxP99Factor:    3,
			Metrics: &scenario.MetricInvariants{
				MaxGoroutineGrowth:  32,
				MaxHeapGrowthFactor: 4,
			},
		},
	}
	followers := []types.ServerID{2, 3, 4}
	for i, at := 0, soakWarmup+7*time.Second; at+churnDowntime < dur-soakCooldown; i, at = i+1, at+churnPeriod {
		id := followers[i%len(followers)]
		s.Events = append(s.Events,
			scenario.Event{At: at, Action: scenario.Crash{Server: id}},
			scenario.Event{At: at + churnDowntime, Action: scenario.Recover{Server: id}})
	}
	return s
}

// runSoak runs the soak scenario on a live cluster through the ordinary suite
// path and never returns; its verdict is a Report row like any other.
func runSoak(dur time.Duration, metricsDir, jsonPath string) {
	if dur < 30*time.Second {
		fmt.Fprintf(os.Stderr, "-soak %v is below the 30s minimum (warmup %v + churn + cooldown %v need room)\n",
			dur, soakWarmup, soakCooldown)
		os.Exit(2)
	}
	w := world{live: true, newEnv: func(o harness.Options) (scenario.Environment, error) {
		env, err := liveharness.New(o, liveharness.Config{Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "soak: "+format+"\n", args...)
		}})
		if err != nil {
			return nil, err
		}
		if metricsDir != "" {
			env.Schedule(soakWarmup, func() { dumpMetrics(env, metricsDir, "baseline") })
			env.Schedule(dur/2, func() { dumpMetrics(env, metricsDir, "mid") })
			env.Schedule(dur-time.Second, func() { dumpMetrics(env, metricsDir, "end") })
		}
		return env, nil
	}}
	code, _ := runFigures("soak", []*experiments.Figure{{
		Name:  fmt.Sprintf("Soak (%v)", dur),
		Notes: "a live loopback-TCP cluster under rolling follower churn; ok=1 means safety held and the ledger, goroutines, heap and p99 stayed inside their growth bounds",
		Cells: []*scenario.Scenario{soakScenario(dur, soakCheckpointInterval)},
	}}, jsonPath, w)
	os.Exit(code)
}

// dumpMetrics archives every live replica's raw /metrics exposition at one
// scrape point — the bytes a Prometheus server would have ingested, kept as
// CI artifacts for post-mortems.
func dumpMetrics(env *liveharness.Env, dir, phase string) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "soak: mkdir %s: %v\n", dir, err)
		return
	}
	for id := types.ServerID(1); int(id) <= env.N(); id++ {
		addr := env.AdminAddr(id)
		if addr == "" {
			continue
		}
		resp, err := http.Get("http://" + addr + "/metrics")
		if err != nil {
			continue // crashed replica; nothing to archive
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			continue
		}
		path := filepath.Join(dir, fmt.Sprintf("%s-S%d.prom", phase, id))
		if err := os.WriteFile(path, body, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "soak: write %s: %v\n", path, err)
		}
	}
}
