package liveharness_test

import (
	"io"
	"net/http"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"prestigebft/internal/liveharness"
	"prestigebft/internal/scenario"
	"prestigebft/internal/sim"
	"prestigebft/internal/types"
)

// TestLiveScrapeRoundTrip boots a real cluster, lets it commit, then
// scrapes every replica's /metrics over HTTP and parses the exposition
// bytes back into snapshots — the full path an external Prometheus server
// would exercise. The committed work must be visible in the scrape: every
// replica's prestige_commits_total > 0 and the transport counters moving.
func TestLiveScrapeRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("live TCP cluster; skipped with -short")
	}
	env, err := liveharness.New(shape(4, 41), liveharness.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	env.Start()
	if err := env.WaitHealthy(); err != nil {
		t.Fatalf("cluster never turned healthy: %v", err)
	}
	env.RunUntil(2 * time.Second)

	snaps := env.ScrapeAll()
	if len(snaps) != 4 {
		t.Fatalf("scraped %d replicas, want 4", len(snaps))
	}
	for id, snap := range snaps {
		commits, ok := snap.Value("prestige_commits_total")
		if !ok || commits <= 0 {
			t.Errorf("S%d: prestige_commits_total = %v (present=%v), want > 0", id, commits, ok)
		}
		if sent := snap.Sum("prestige_transport_sent_total"); sent <= 0 {
			t.Errorf("S%d: transport sent nothing (%v)", id, sent)
		}
		if peerSent := snap.Sum("prestige_peer_sent_total"); peerSent <= 0 {
			t.Errorf("S%d: no per-peer send counters (%v)", id, peerSent)
		}
		if g, ok := snap.Value("go_goroutines"); !ok || g <= 0 {
			t.Errorf("S%d: process metrics missing (go_goroutines=%v present=%v)", id, g, ok)
		}
	}

	// The raw exposition body must carry the content type and HELP/TYPE
	// headers a scraper keys on.
	resp, err := http.Get("http://" + env.AdminAddr(1) + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("content type %q missing exposition version", ct)
	}
	if !strings.Contains(string(body), "# TYPE prestige_commits_total counter") {
		t.Errorf("exposition missing TYPE line:\n%s", body)
	}
}

// TestLiveLatenessHistograms: on 2 ms links every replica exports how late its
// link releases and its timers ran, and both histograms fill. Two
// environments in a row still share the process's one alarm goroutine and one
// timerfd, however many transports and runtimes came and went.
func TestLiveLatenessHistograms(t *testing.T) {
	if testing.Short() {
		t.Skip("live TCP cluster; skipped with -short")
	}
	for _, seed := range []int64{45, 46} {
		opts := shape(4, seed)
		opts.Net = sim.NetworkConfig{Latency: sim.FixedLatency(2 * time.Millisecond)}
		env, err := liveharness.New(opts, liveharness.Config{})
		if err != nil {
			t.Fatal(err)
		}
		env.Start()
		if err := env.WaitHealthy(); err != nil {
			env.Close()
			t.Fatalf("cluster never turned healthy: %v", err)
		}
		env.RunUntil(1500 * time.Millisecond)
		snaps := env.ScrapeAll()
		env.Close()

		var timers float64
		for id, snap := range snaps {
			if n, ok := snap.Value("prestige_link_release_lateness_seconds_count"); !ok || n <= 0 {
				t.Errorf("S%d: link release lateness count = %v (present=%v), want > 0", id, n, ok)
			}
			n, ok := snap.Value("prestige_timer_lateness_seconds_count")
			if !ok {
				t.Errorf("S%d: prestige_timer_lateness_seconds not exported", id)
			}
			timers += n
		}
		// Only the leader's batch timer fires in a quiet run.
		if len(snaps) != 4 || timers <= 0 {
			t.Errorf("scraped %d replicas with %v handled timers, want 4 and > 0", len(snaps), timers)
		}
	}

	stacks := make([]byte, 4<<20)
	stacks = stacks[:runtime.Stack(stacks, true)]
	if n := strings.Count(string(stacks), "internal/alarm.run("); n != 1 {
		t.Errorf("%d alarm goroutines, want exactly 1", n)
	}
	if runtime.GOOS != "linux" {
		return
	}
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	timerfds := 0
	for _, fd := range fds {
		if target, _ := os.Readlink("/proc/self/fd/" + fd.Name()); target == "anon_inode:[timerfd]" {
			timerfds++
		}
	}
	if timerfds != 1 {
		t.Errorf("%d timerfds open, want exactly 1", timerfds)
	}
}

// TestLivePprofOnAdminPort: a running replica can be CPU-profiled over its
// admin port — the same listener that serves /metrics and /healthz.
func TestLivePprofOnAdminPort(t *testing.T) {
	if testing.Short() {
		t.Skip("live TCP cluster; skipped with -short")
	}
	env, err := liveharness.New(shape(4, 44), liveharness.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	env.Start()
	if err := env.WaitHealthy(); err != nil {
		t.Fatalf("cluster never turned healthy: %v", err)
	}
	for _, path := range []string{"/debug/pprof/profile?seconds=1", "/debug/pprof/heap", "/debug/pprof/"} {
		resp, err := http.Get("http://" + env.AdminAddr(2) + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || len(body) == 0 {
			t.Errorf("GET %s: status %d, %d bytes; want 200 with a body", path, resp.StatusCode, len(body))
		}
	}
}

// TestLiveViewChangeCountsOncePerReplica crashes the leader and never
// recovers it: the survivors run exactly one view change. Each survivor's
// prestige_viewchange_total must read exactly 1 — installs are deduped per
// target view no matter how many vcBlock announcements or sync rounds
// re-deliver the result.
func TestLiveViewChangeCountsOncePerReplica(t *testing.T) {
	if testing.Short() {
		t.Skip("live TCP cluster with crash; skipped with -short")
	}
	if raceEnabled {
		t.Skip("timing-bound view-change deadline is meaningless under race instrumentation")
	}
	env, err := liveharness.New(shape(4, 42), liveharness.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	env.Start()
	if err := env.WaitHealthy(); err != nil {
		t.Fatalf("cluster never turned healthy: %v", err)
	}
	env.RunUntil(1 * time.Second)
	env.Crash(1)

	// Wait for every survivor to install the new view, then give the
	// cluster time to keep committing in it — any spurious re-count would
	// land in this window.
	deadline := time.Now().Add(8 * time.Second)
	for {
		snaps := env.ScrapeAll()
		installed := 0
		for _, id := range []types.ServerID{2, 3, 4} {
			if v, _ := snaps[id].Value("prestige_viewchange_total"); v >= 1 {
				installed++
			}
		}
		if installed == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("view change not installed on all survivors within deadline: %v", snaps)
		}
		time.Sleep(100 * time.Millisecond)
	}
	time.Sleep(2 * time.Second)

	snaps := env.ScrapeAll()
	for _, id := range []types.ServerID{2, 3, 4} {
		snap, ok := snaps[id]
		if !ok {
			t.Fatalf("S%d missing from scrape", id)
		}
		if v, _ := snap.Value("prestige_viewchange_total"); v != 1 {
			t.Errorf("S%d: prestige_viewchange_total = %v, want exactly 1", id, v)
		}
	}
}

// TestLiveMetricInvariants runs the scenario engine end to end with
// metric-backed invariants on the live harness: healthz gate, steady-state
// commit-rate hypothesis, and scrape-observable recovery after the heal.
func TestLiveMetricInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("live TCP cluster; skipped with -short")
	}
	if raceEnabled {
		t.Skip("timing-bound recovery deadlines are meaningless under race instrumentation")
	}
	rep := runLive(t, &scenario.Scenario{
		Name:   "live-metric-oracle",
		Opts:   shape(4, 43),
		Warmup: 1 * time.Second,
		Span:   10 * time.Second,
		Events: []scenario.Event{
			{At: 1 * time.Second, Action: scenario.Crash{Server: 2}},
			{At: 4 * time.Second, Action: scenario.Recover{Server: 2}},
		},
		Invariants: scenario.Invariants{
			RecoverWithin: 5 * time.Second,
			Metrics: &scenario.MetricInvariants{
				MinSteadyCommitRate: 1,
				RequireRecovery:     true,
				MaxGoroutineGrowth:  500,
				MaxHeapGrowthFactor: 8,
			},
		},
	})
	if !rep.OK() {
		t.Fatalf("metric-oracle scenario violated invariants: %v", rep.Violations)
	}
}
