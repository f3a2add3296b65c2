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

	Commits     int
	TotalTxs    int
	ViewChanges int
	Elections   int
	SyncUps     int
	Checkpoints int
	Snapshots   int
	Msgs        uint64
	Bytes       uint64

	Violations []string
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
	row := harness.Row{Label: r.Scenario, Values: map[string]float64{}}
	add := func(k string, v float64) {
		row.Values[k] = v
		row.Order = append(row.Order, k)
	}
	add("ok", ok)
	add("steady_tps", r.SteadyTPS)
	add("final_tps", r.FinalTPS)
	add("p50_ms", float64(r.P50.Microseconds())/1000)
	add("p95_ms", float64(r.P95.Microseconds())/1000)
	add("p99_ms", float64(r.P99.Microseconds())/1000)
	add("recovery_s", rec)
	add("view_changes", float64(r.ViewChanges))
	add("elections", float64(r.Elections))
	add("sync_ups", float64(r.SyncUps))
	add("checkpoints", float64(r.Checkpoints))
	add("snapshots", float64(r.Snapshots))
	add("msgs", float64(r.Msgs))
	add("mbytes", float64(r.Bytes)/(1<<20))
	return row
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
