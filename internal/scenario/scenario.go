// Package scenario is a declarative chaos-scenario engine. A Scenario names
// a cluster shape (harness.Options), a timeline of environmental Events
// (crashes, partitions, fault-spec swaps, fabric degradation), and the
// invariants the run must uphold (safety: no conflicting commits; steady
// state: healthy before injection; liveness: throughput recovers within a
// bound after the last fault heals).
//
// Scenarios run against the Environment seam (env.go): the default world
// is the deterministic simulator (simenv.go), where events are scheduled
// on the cluster's own sim.Scheduler before the simulation starts, so a
// scenario is one ordinary discrete-event run — byte-reproducible for a
// given spec under any worker count, exactly like the figure grids
// (runner.go). The second world is a live loopback-TCP cluster
// (internal/liveharness): the same declarative timelines replay against
// real runtime.Runtime replicas with transport-level fault injection, so
// the paper's actual deployment mode gets the same safety and liveness
// verdicts (DESIGN.md §9). The built-in library (builtin.go) generalizes
// the paper's four fixed Byzantine behaviors (§6.2, F1–F4) into composable
// adversarial workloads; DESIGN.md §7 maps each scenario back to the
// paper's fault model.
package scenario

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"prestigebft/internal/harness"
	"prestigebft/internal/sim"
	"prestigebft/internal/types"
)

// Invariants declares what a scenario run must uphold. Safety (no two
// replicas commit different blocks at the same sequence number) and the
// steady-state hypothesis (the cluster commits during the warmup window,
// before any injection) are always checked; the rest are opt-in.
type Invariants struct {
	// RecoverWithin bounds the liveness recovery time: after the last event
	// fires, windowed throughput must return to RecoveryFraction of the
	// steady-state level within this duration. Zero skips the check.
	RecoverWithin time.Duration
	// RecoveryFraction is the fraction of steady-state TPS that counts as
	// recovered. Zero means 0.3.
	RecoveryFraction float64
	// RequireViewChange asserts at least one election completed (scenarios
	// that kill or degrade the leader must dethrone it).
	RequireViewChange bool
	// RequireSyncUp asserts the state-transfer path (§4.2.3) ran.
	RequireSyncUp bool
	// CatchUpServer, when nonzero, asserts that server's chain ends within
	// CatchUpLag blocks of the highest chain (late-joiner catch-up).
	CatchUpServer types.ServerID
	// CatchUpLag is the allowed height gap for CatchUpServer. Zero means 2.
	CatchUpLag types.SeqNum
	// StallFrom/StallTo assert that NO block commits inside (StallFrom,
	// StallTo]. Majority-partition scenarios use it: a commit while no side
	// holds a quorum would reveal a quorum-intersection bug, the most
	// serious safety defect a BFT protocol can have. Zero values skip it.
	StallFrom, StallTo time.Duration
	// RequireCheckpoint asserts at least one checkpoint certificate was
	// assembled (the log compacted at least once).
	RequireCheckpoint bool
	// RequireSnapshot asserts at least one certified-snapshot installation
	// happened: some replica's catch-up provably skipped compacted history
	// instead of replaying it block-by-block.
	RequireSnapshot bool
	// MaxLedgerBlocks, when nonzero, bounds every readable server's
	// retained txBlock count at the end of the run — the bounded-memory
	// claim of checkpoint compaction. Servers below the bound's reach
	// (crashed at the end) are still checked: their ledgers are readable.
	MaxLedgerBlocks int
	// MaxP99Factor, when nonzero, bounds client-observed p99 latency over
	// the whole run to this multiple of the warm-up window's p99, plus
	// 100 ms: a cluster that gets slower as it ages drifts past it. Only
	// for timelines whose faults clients are not meant to feel.
	MaxP99Factor float64
	// Metrics declares scrape-backed invariants (metrics.go): the
	// steady-state hypothesis and recovery detection read from each
	// replica's /metrics endpoint instead of in-process counters. Evaluated
	// only in environments exposing a scrape surface (the live harness);
	// the simulator skips them, so the deterministic sim trajectory is
	// untouched.
	Metrics *MetricInvariants
}

// Scenario is one declarative chaos workload.
type Scenario struct {
	Name        string
	Description string

	// Opts shapes the cluster. Scenarios relying on runtime fault swaps
	// must list the target servers in Opts.WrapServers (or Opts.Faults).
	Opts harness.Options

	// Warmup is the steady-state window: the cluster runs undisturbed for
	// this long and must commit transactions before the first injection.
	// Zero means 2 s. All events must fire at or after Warmup.
	Warmup time.Duration
	// Span is the total virtual duration of the run. It must leave room
	// after the last event for the recovery check.
	Span time.Duration

	// Events is the injection timeline, ordered by non-decreasing At.
	Events []Event

	Invariants Invariants

	// Read, when set, makes the scenario a figure cell (internal/experiments):
	// it gets the environment before Start, may Schedule probes, and returns
	// the function that reads the rows into the Report after the run. It is
	// not part of a scenario file.
	Read func(env Environment) (rows func() []harness.Row)
}

// Event fires one action at an absolute virtual time (measured from cluster
// start).
type Event struct {
	At     time.Duration
	Action Action
}

// recoveryWindow is the throughput-measurement window of the liveness check:
// recovery is declared at the first window whose TPS reaches the target
// fraction of steady state.
const recoveryWindow = time.Second

func (s *Scenario) warmup() time.Duration {
	if s.Warmup == 0 {
		return 2 * time.Second
	}
	return s.Warmup
}

func (s *Scenario) recoveryFraction() float64 {
	if f := s.Invariants.RecoveryFraction; f > 0 {
		return f
	}
	return 0.3
}

func (s *Scenario) catchUpLag() types.SeqNum {
	if s.Invariants.CatchUpLag > 0 {
		return s.Invariants.CatchUpLag
	}
	return 2
}

// lastEventAt returns the fire time of the final event (0 with no events).
func (s *Scenario) lastEventAt() time.Duration {
	if len(s.Events) == 0 {
		return 0
	}
	return s.Events[len(s.Events)-1].At
}

// Validate rejects malformed scenarios before any simulation work: events
// out of order or outside the [Warmup, Span] window, actions referencing
// unknown or unwrapped servers, timelines that exceed the fault bound f with
// simultaneously crashed or Byzantine servers, and spans too short for the
// declared recovery check.
func (s *Scenario) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario has no name")
	}
	if s.Span <= s.warmup() {
		return fmt.Errorf("span %v must exceed warmup %v", s.Span, s.warmup())
	}
	st := NewFaultState(s.Opts)
	if st.Load() > st.F() {
		return fmt.Errorf("initial Faults lists %d Byzantine servers, exceeding f=%d", st.Load(), st.F())
	}
	if id := s.Invariants.CatchUpServer; id != 0 && (id < 1 || int(id) > st.N()) {
		return fmt.Errorf("CatchUpServer %d is not a server in 1..%d", id, st.N())
	}

	last := time.Duration(0)
	for i, ev := range s.Events {
		if ev.Action == nil {
			return fmt.Errorf("event %d has no action", i)
		}
		if ev.At < last {
			return fmt.Errorf("event %d (%s at %v) fires before its predecessor at %v", i, ev.Action, ev.At, last)
		}
		last = ev.At
		if ev.At < s.warmup() {
			return fmt.Errorf("event %d (%s at %v) fires inside the warmup window (%v)", i, ev.Action, ev.At, s.warmup())
		}
		if ev.At >= s.Span {
			// At == Span is rejected too: the run ends at the horizon, so an
			// event firing exactly there can never influence any measured
			// window — it would be a silent no-op in the timeline.
			return fmt.Errorf("event %d (%s at %v) fires at or past the scenario horizon (%v)", i, ev.Action, ev.At, s.Span)
		}
		// Beyond f the protocol guarantees nothing, so a scenario exceeding
		// the fault bound would assert invariants the paper never claims.
		if err := st.Apply(ev.Action); err != nil {
			var bound *boundError
			if errors.As(err, &bound) {
				return fmt.Errorf("after event %d (%s): %w", i, ev.Action, err)
			}
			return fmt.Errorf("event %d %w", i, err)
		}
	}
	if w := s.Invariants.RecoverWithin; w > 0 {
		// One extra recoveryWindow: a recovery at the very end of the bound
		// still needs a full measurement window inside the span to be seen.
		if need := s.lastEventAt() + w + recoveryWindow; s.Span < need {
			return fmt.Errorf("span %v too short for recovery check: last event at %v + RecoverWithin %v + %v window needs ≥ %v",
				s.Span, s.lastEventAt(), w, recoveryWindow, need)
		}
	}
	if inv := s.Invariants; inv.StallFrom != 0 || inv.StallTo != 0 {
		if inv.StallTo <= inv.StallFrom || inv.StallTo > s.Span {
			return fmt.Errorf("stall window (%v, %v] must be ordered and inside the span (%v)", inv.StallFrom, inv.StallTo, s.Span)
		}
	}
	return nil
}

// Run executes the scenario on the deterministic simulator and evaluates
// its invariants. It never panics on a malformed spec: validation errors
// surface as violations in the Report.
func (s *Scenario) Run() *Report { return s.RunWith(NewSimEnv) }

// RunWith executes the scenario in an environment built by newEnv — the
// sim-or-live seam. The scenario's Opts are normalized (default seed) and
// handed to the builder; a builder error becomes a violation so suite
// drivers degrade gracefully. The environment is always closed before the
// invariants are evaluated, because a live environment only guarantees
// race-free ledger reads once its replicas are stopped.
func (s *Scenario) RunWith(newEnv func(harness.Options) (Environment, error)) *Report {
	rep := &Report{Scenario: s.Name, Recovery: -1}
	if err := s.Validate(); err != nil {
		rep.Violations = append(rep.Violations, "invalid: "+err.Error())
		return rep
	}

	o := s.Opts
	if o.Seed == 0 {
		o.Seed = seedFor(s.Name)
	}
	env, err := newEnv(o)
	if err != nil {
		rep.Violations = append(rep.Violations, "environment: "+err.Error())
		return rep
	}
	defer env.Close()
	if s.Read != nil {
		rows := s.Read(env)
		defer func() { rep.Rows = rows() }() // on every return from here on
	}
	r := &run{env: env}
	for _, ev := range s.Events {
		a := ev.Action
		env.Schedule(ev.At, func() { a.apply(r) })
	}

	// Metric-backed invariants need scrape points; they exist only where
	// the environment exposes a scrape surface (live harness).
	var scrapes *metricScrapes
	me, scrapable := env.(MetricsEnvironment)
	if scrapable && s.Invariants.Metrics.active() {
		scrapes = &metricScrapes{}
		if s.Invariants.Metrics.RequireRecovery && len(s.Events) > 0 {
			// Registered after the scenario's own events at the same
			// offset, so it scrapes the instant the last (healing) event
			// has been applied — the recovery-detection baseline.
			sc := scrapes
			env.Schedule(s.lastEventAt(), func() { sc.setPostHeal(me.ScrapeAll()) })
		}
	}

	env.Start()
	// Chaos only lands on a provably healthy cluster: when the environment
	// exposes /healthz, every replica must answer green before the run
	// proceeds (live-smoke's precondition).
	if hw, ok := env.(HealthEnvironment); ok {
		if err := hw.WaitHealthy(); err != nil {
			rep.Violations = append(rep.Violations, "healthz: "+err.Error())
			return rep
		}
	}
	warm := s.warmup()
	env.RunUntil(warm)
	met := env.Metrics()
	rep.SteadyTPS = met.TPS(0, sim.Duration(warm))
	if rep.SteadyTPS == 0 {
		rep.Violations = append(rep.Violations,
			fmt.Sprintf("steady-state: no commits during the %v warmup, refusing to inject faults into an unhealthy cluster", warm))
		return rep
	}
	if scrapes != nil {
		scrapes.steady = me.ScrapeAll()
	}
	if s.Invariants.MaxP99Factor > 0 {
		met.SetClientStats(env.ClientStats())
		rep.SteadyP99 = met.LatencyPercentile(99)
	}
	env.RunUntil(s.Span)
	if scrapes != nil {
		// Final scrape happens before Close — a closed environment's admin
		// endpoints are gone, like any stopped process's.
		scrapes.final = me.ScrapeAll()
	}
	env.Close()

	s.evaluate(env, rep)
	s.evaluateMetrics(scrapes, types.QuorumSize(env.Deployment().Opts.N), rep)
	return rep
}

// p99Slack forgives scheduler noise in the MaxP99Factor check.
const p99Slack = 100 * time.Millisecond

// evaluate fills the report's metrics and checks every declared invariant
// against the closed environment's deployment and collector.
func (s *Scenario) evaluate(env Environment, rep *Report) {
	dep, met := env.Deployment(), env.Metrics()
	tps := func(from, to time.Duration) float64 { return met.TPS(sim.Duration(from), sim.Duration(to)) }
	met.SetClientStats(env.ClientStats())
	rep.P50 = met.LatencyPercentile(50)
	rep.P95 = met.LatencyPercentile(95)
	rep.P99 = met.LatencyPercentile(99)
	c := met.Counters()
	rep.Commits = c.Commits
	rep.TotalTxs = c.TotalTxs
	rep.ViewChanges = c.ViewChangesStarted
	rep.Elections = c.Elections
	rep.SyncUps = c.SyncUps
	rep.Checkpoints = c.Checkpoints
	rep.Snapshots = c.SnapshotInstalls
	rep.Msgs, rep.Bytes = env.Traffic()
	lastAt := s.lastEventAt()
	rep.FinalTPS = tps(lastAt, s.Span)

	// Safety: every pair of replicas agrees on the common prefix of their
	// committed chains (no conflicting commits at any sequence number).
	rep.Violations = append(rep.Violations, safetyViolations(dep)...)

	inv := s.Invariants
	slack, margin := env.Timing()
	if inv.RecoverWithin > 0 {
		target := s.recoveryFraction() * rep.SteadyTPS
		const step = 250 * time.Millisecond
		for t := lastAt; t+recoveryWindow <= s.Span; t += step {
			if tps(t, t+recoveryWindow) >= target {
				rep.Recovery = t - lastAt
				break
			}
		}
		// Liveness bounds stretch by the environment's slack (but never
		// past what the span can actually observe — beyond that the
		// "never recovered" arm already fires).
		bound := time.Duration(float64(inv.RecoverWithin) * slack)
		switch {
		case rep.Recovery < 0:
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("liveness: throughput never recovered to %.0f%% of steady state (%.0f tps) after the last event at %v",
					s.recoveryFraction()*100, rep.SteadyTPS, lastAt))
		case rep.Recovery > bound:
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("liveness: recovery took %v, bound is %v", rep.Recovery, bound))
		}
	}
	if inv.StallTo > inv.StallFrom {
		// The leading margin forgives traffic already in flight when the
		// quorum-removing event landed (zero on the simulator).
		from := inv.StallFrom + margin
		if from < inv.StallTo {
			if got := tps(from, inv.StallTo); got > 0 {
				rep.Violations = append(rep.Violations,
					fmt.Sprintf("stall: %.0f tps committed during (%v, %v], a window where no quorum exists — possible quorum-intersection bug",
						got, from, inv.StallTo))
			}
		}
	}
	if inv.RequireViewChange && rep.Elections == 0 {
		rep.Violations = append(rep.Violations, "no election completed, but the scenario requires a view change")
	}
	if inv.RequireSyncUp && rep.SyncUps == 0 {
		rep.Violations = append(rep.Violations, "state transfer (SyncUp) never ran, but the scenario requires it")
	}
	if inv.RequireCheckpoint && rep.Checkpoints == 0 {
		rep.Violations = append(rep.Violations, "no checkpoint certificate assembled, but the scenario requires log compaction")
	}
	if inv.RequireSnapshot && rep.Snapshots == 0 {
		rep.Violations = append(rep.Violations, "no certified snapshot installed: catch-up replayed history instead of using the snapshot path")
	}
	if inv.MaxP99Factor > 0 {
		bound := time.Duration(float64(rep.SteadyP99)*inv.MaxP99Factor) + p99Slack
		switch {
		case rep.SteadyP99 == 0:
			rep.Violations = append(rep.Violations, "latency: no client latencies collected during the warmup")
		case rep.P99 > bound:
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("latency: p99 %v during the warmup, %v over the whole run, bound is %v — latency drifting",
					rep.SteadyP99, rep.P99, bound))
		}
	}
	if inv.MaxLedgerBlocks > 0 {
		for i := 1; i <= dep.Opts.N; i++ {
			id := types.ServerID(i)
			if blocks, ok := dep.RetainedBlocks(id); ok && blocks > inv.MaxLedgerBlocks {
				rep.Violations = append(rep.Violations,
					fmt.Sprintf("compaction: server %d retains %d txBlocks, bound is %d — the ledger is not bounded",
						id, blocks, inv.MaxLedgerBlocks))
			}
		}
	}
	if id := inv.CatchUpServer; id != 0 {
		var maxH types.SeqNum
		for i := 1; i <= dep.Opts.N; i++ {
			if h, ok := dep.ChainHeight(types.ServerID(i)); ok && h > maxH {
				maxH = h
			}
		}
		h, ok := dep.ChainHeight(id)
		if !ok {
			rep.Violations = append(rep.Violations, fmt.Sprintf("catch-up server %d is not a PrestigeBFT node", id))
		} else if h+s.catchUpLag() < maxH {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("catch-up: server %d ended at height %d, %d behind the head (%d); allowed lag %d",
					id, h, maxH-h, maxH, s.catchUpLag()))
		}
	}
}

// safetyViolations checks that every pair of replicas agrees on the common
// prefix of their committed chains, hash-by-hash — on a live cluster this
// is the byte-for-byte committed-prefix check across real ledgers. At each
// sequence number the first replica still retaining the block (compaction
// prunes certified prefixes) is the reference for that seq; agreement with
// a per-seq shared reference implies pairwise agreement among everyone who
// retains it. Seqs nobody retains are skipped: a retained block above any
// replica's log base always exists below the heads being compared, and the
// pruned region itself is covered by its checkpoint certificate (2f+1
// matching state hashes).
func safetyViolations(dep *harness.Deployment) []string {
	var out []string
	var maxH types.SeqNum
	for i := 1; i <= dep.Opts.N; i++ {
		if h, ok := dep.ChainHeight(types.ServerID(i)); ok && h > maxH {
			maxH = h
		}
	}
	// A replica is reported at most once, at its first divergent seq.
	bad := make(map[types.ServerID]bool)
	for seq := types.SeqNum(1); seq <= maxH; seq++ {
		var ref types.Digest
		refID := types.ServerID(0)
		for i := 1; i <= dep.Opts.N; i++ {
			id := types.ServerID(i)
			if bad[id] {
				continue
			}
			h, ok := dep.BlockHash(id, seq)
			if !ok {
				continue // no ledger, above this replica's head, or compacted
			}
			if refID == 0 {
				ref, refID = h, id
				continue
			}
			if h != ref {
				out = append(out, fmt.Sprintf("safety: servers %d and %d committed conflicting blocks at seq %d", refID, id, seq))
				bad[id] = true
			}
		}
	}
	return out
}

// seedFor derives a deterministic per-scenario seed from the name (FNV-1a),
// so unnamed-seed scenarios still replay identically.
func seedFor(name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	seed := int64(h.Sum64() & 0x7fffffffffff)
	if seed == 0 {
		seed = 1
	}
	return seed
}

// sortedIDs renders a server set compactly for descriptions.
func sortedIDs(ids []types.ServerID) []types.ServerID {
	out := append([]types.ServerID(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
