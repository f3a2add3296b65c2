package scenario

import (
	"fmt"
	"strings"
	"time"

	"prestigebft/internal/harness"
)

// Report is the measured outcome of one scenario run plus any invariant
// violations. An empty Violations slice means the run passed.
type Report struct {
	Scenario string

	// SteadyTPS is throughput during the pre-injection warmup; FinalTPS is
	// throughput from the last event to the end of the span.
	SteadyTPS float64
	FinalTPS  float64

	// Client-observed commit latency percentiles over the whole run.
	P50, P95, P99 time.Duration
	// SteadyP99 is the warm-up window's p99, taken only when
	// Invariants.MaxP99Factor compares against it.
	SteadyP99 time.Duration

	// Recovery is how long after the last event throughput returned to the
	// declared fraction of steady state; -1 when not measured or never.
	Recovery time.Duration

	// Counters are the collector's protocol counters at the end of the run;
	// Msgs and Bytes are the traffic the replicas sent.
	harness.Counters
	Msgs, Bytes uint64

	Violations []string

	// Rows are what the scenario's Read read from the run (nil without one).
	Rows []harness.Row
}

// OK reports whether every invariant held.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

// Row renders the report as one figure-grid row, so scenario suites emit the
// same JSON row shape as every other experiment (runner.go).
func (r *Report) Row() harness.Row {
	ok := 0.0
	if r.OK() {
		ok = 1
	}
	rec := -1.0
	if r.Recovery >= 0 {
		rec = r.Recovery.Seconds()
	}
	return harness.NewRow(r.Scenario,
		"ok", ok,
		"steady_tps", r.SteadyTPS,
		"final_tps", r.FinalTPS,
		"p50_ms", float64(r.P50.Microseconds())/1000,
		"p95_ms", float64(r.P95.Microseconds())/1000,
		"p99_ms", float64(r.P99.Microseconds())/1000,
		"recovery_s", rec,
		"view_changes", float64(r.ViewChangesStarted),
		"elections", float64(r.Elections),
		"sync_ups", float64(r.SyncUps),
		"checkpoints", float64(r.Checkpoints),
		"snapshots", float64(r.SnapshotInstalls),
		"msgs", float64(r.Msgs),
		"mbytes", float64(r.Bytes)/(1<<20),
	)
}

// String renders a human-readable verdict line (violations included).
func (r *Report) String() string {
	var b strings.Builder
	verdict := "PASS"
	if !r.OK() {
		verdict = "FAIL"
	}
	fmt.Fprintf(&b, "%-34s %s  steady=%.0f tps  final=%.0f tps  p99=%v",
		r.Scenario, verdict, r.SteadyTPS, r.FinalTPS, r.P99.Round(time.Millisecond))
	if r.SteadyP99 > 0 {
		fmt.Fprintf(&b, " (warmup %v)", r.SteadyP99.Round(time.Millisecond))
	}
	if r.Recovery >= 0 {
		fmt.Fprintf(&b, "  recovery=%v", r.Recovery.Round(10*time.Millisecond))
	}
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "\n    ✗ %s", v)
	}
	return b.String()
}
