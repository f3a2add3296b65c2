package scenario

import (
	"fmt"
	"sync"

	"prestigebft/internal/metrics"
	"prestigebft/internal/types"
)

// MetricsEnvironment is the optional scrape surface an environment may
// expose: per-replica Prometheus snapshots fetched over the same path an
// external monitoring system would use. The live harness implements it; the
// simulator does not, so metric-backed invariants are skipped there and the
// deterministic trajectory is untouched.
type MetricsEnvironment interface {
	ScrapeAll() map[types.ServerID]metrics.Snapshot
}

// HealthEnvironment is the optional readiness surface: block until every
// replica's /healthz is green (or an environment-owned timeout trips).
type HealthEnvironment interface {
	WaitHealthy() error
}

// MetricInvariants declares scrape-backed checks, the chaos-engineering
// oracle pattern: a steady-state hypothesis verified on metrics before
// injection, and recovery detected on metrics after the last event heals.
// All checks are evaluated only when the environment implements
// MetricsEnvironment.
type MetricInvariants struct {
	// MinSteadyCommitRate asserts the cluster-wide commit rate at the
	// pre-injection scrape: sum of prestige_commits_total across replicas
	// divided by the warmup length (scenario seconds) must reach this.
	// Zero skips the check.
	MinSteadyCommitRate float64
	// RequireRecovery asserts recovery as a scraper would detect it: every
	// replica present in both the post-heal scrape (at the last event) and
	// the final scrape must show prestige_commits_total strictly
	// increasing between them.
	RequireRecovery bool
	// MaxGoroutineGrowth bounds per-replica go_goroutines at the final
	// scrape to the pre-injection value plus this allowance (the whole
	// process hosts the harness, so the bound is absolute headroom, not a
	// leak-free ideal). Zero skips the check.
	MaxGoroutineGrowth float64
	// MaxHeapGrowthFactor bounds go_memstats_heap_inuse_bytes at the final
	// scrape to the pre-injection value times this factor (plus a fixed
	// 32 MiB noise floor — Go's allocator is not byte-stable). Zero skips.
	MaxHeapGrowthFactor float64
}

// active reports whether any check is declared.
func (m *MetricInvariants) active() bool {
	return m != nil && (m.MinSteadyCommitRate > 0 || m.RequireRecovery ||
		m.MaxGoroutineGrowth > 0 || m.MaxHeapGrowthFactor > 0)
}

// heapNoiseFloor forgives allocator jitter in the heap-growth check.
const heapNoiseFloor = 32 << 20

// metricScrapes carries the engine's three scrape points through a run.
// postHeal is written by the environment's injection goroutine (scheduled
// at the last event) and read after Close; the mutex makes that hand-off
// safe regardless of the environment's internal synchronization.
type metricScrapes struct {
	mu       sync.Mutex
	steady   map[types.ServerID]metrics.Snapshot
	postHeal map[types.ServerID]metrics.Snapshot
	final    map[types.ServerID]metrics.Snapshot
}

func (sc *metricScrapes) setPostHeal(m map[types.ServerID]metrics.Snapshot) {
	sc.mu.Lock()
	sc.postHeal = m
	sc.mu.Unlock()
}

// evaluateMetrics checks the declared metric invariants against the three
// scrape points, appending violations to the report. quorum is how many
// replicas a growth check must be able to compare before it means anything.
func (s *Scenario) evaluateMetrics(sc *metricScrapes, quorum int, rep *Report) {
	m := s.Invariants.Metrics
	if !m.active() || sc == nil {
		return
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if m.MinSteadyCommitRate > 0 {
		if len(sc.steady) == 0 {
			rep.Violations = append(rep.Violations, "metrics: steady-state scrape returned no replicas")
		} else {
			total := 0.0
			for _, id := range types.SortedKeys(sc.steady) {
				v, _ := sc.steady[id].Value("prestige_commits_total")
				total += v
			}
			rate := total / s.warmup().Seconds()
			if rate < m.MinSteadyCommitRate {
				rep.Violations = append(rep.Violations,
					fmt.Sprintf("metrics: steady-state commit rate %.1f/s below the %.1f/s hypothesis before injection",
						rate, m.MinSteadyCommitRate))
			}
		}
	}
	if m.RequireRecovery {
		checked := 0
		for _, id := range types.SortedKeys(sc.postHeal) {
			fin, ok := sc.final[id]
			if !ok {
				continue
			}
			before, _ := sc.postHeal[id].Value("prestige_commits_total")
			after, _ := fin.Value("prestige_commits_total")
			checked++
			if after <= before {
				rep.Violations = append(rep.Violations,
					fmt.Sprintf("metrics: server %d prestige_commits_total flat at %.0f after the last event — recovery not observable by scrape", id, after))
			}
		}
		if checked == 0 {
			rep.Violations = append(rep.Violations, "metrics: recovery check had no replicas present in both post-heal and final scrapes")
		}
	}
	if m.MaxGoroutineGrowth > 0 {
		sc.compare(rep, quorum, "go_goroutines", func(before float64) float64 { return before + m.MaxGoroutineGrowth },
			fmt.Sprintf("over the +%.0f allowance — goroutine leak", m.MaxGoroutineGrowth))
	}
	if m.MaxHeapGrowthFactor > 0 {
		sc.compare(rep, quorum, "go_memstats_heap_inuse_bytes", func(before float64) float64 { return before*m.MaxHeapGrowthFactor + heapNoiseFloor },
			fmt.Sprintf("over %.1fx + noise floor — memory not flat", m.MaxHeapGrowthFactor))
	}
}

// compare checks one gauge's growth from the steady scrape to the final one
// on every replica present in both. Churn may hide a replica from a scrape,
// so the check works on the intersection — but an intersection thinner than
// a quorum means the scrapes say nothing, which is itself a violation.
func (sc *metricScrapes) compare(rep *Report, quorum int, gauge string, bound func(before float64) float64, over string) {
	compared := 0
	for _, id := range types.SortedKeys(sc.steady) {
		fin, ok := sc.final[id]
		if !ok {
			continue
		}
		compared++
		before, _ := sc.steady[id].Value(gauge)
		after, _ := fin.Value(gauge)
		if after > bound(before) {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("metrics: server %d %s grew %.0f → %.0f, %s", id, gauge, before, after, over))
		}
	}
	if compared < quorum {
		rep.Violations = append(rep.Violations,
			fmt.Sprintf("metrics: %s comparable on only %d replicas present in both the steady and the final scrape; need a quorum of %d",
				gauge, compared, quorum))
	}
}
