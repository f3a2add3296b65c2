// Package fuzz generates randomized chaos-scenario timelines and shrinks
// failing ones to minimal reproducers (DESIGN.md §12). The hand-written
// scenario library (scenario/builtin.go) is a fixed test set; the fuzzer
// samples the space those eleven points live in: seeded random sequences of
// Crash/Recover, Partition/Heal, SetFault swaps, and Degrade/Restore over
// the existing invariant oracles (safety, steady state, bounded liveness
// recovery, catch-up).
//
// Generation is a pure function of (fuzz seed, sample index): the generator
// draws from its own rand.Rand and applies every drawn action to a
// scenario.FaultState — the same fault state Scenario.Validate walks — and
// only draws actions that state accepts: never more than f simultaneous
// crashed-or-Byzantine servers, no Crash of a crashed server or Recover of
// a running one, no runtime RepeatedVC swap. Every timeline also quiesces:
// every fault it injects is healed, cleared, or restored before the
// timeline ends (except crashes it deliberately leaves in place, which keep
// quorum by construction), so the bounded-liveness invariant is a claim the
// protocol actually makes. Each sample then runs as an ordinary
// deterministic grid cell: same seed, same timeline, same verdict at any
// worker count.
package fuzz

import (
	"fmt"
	"math/rand"
	"time"

	"prestigebft/internal/faults"
	"prestigebft/internal/harness"
	"prestigebft/internal/scenario"
	"prestigebft/internal/types"
)

// Tunables of the sampled space. Widening any of these widens the search;
// they are constants (not knobs) so a fuzz seed alone reproduces a sample.
const (
	warmup = 2 * time.Second
	// minGap/maxGap bound the virtual time between consecutive events.
	minGap = 300 * time.Millisecond
	maxGap = 1500 * time.Millisecond
	// minEvents/maxEvents bound the randomized phase (cleanup is extra).
	minEvents = 2
	maxEvents = 8
	// recoverWithin is the bounded-liveness budget granted after the final
	// event. Generous on purpose: a generated timeline may end with a crash
	// still in place and a fresh election required; the invariant hunts
	// wedges (no recovery at all), not slow recoveries.
	recoverWithin = 12 * time.Second
	// tailSlack pads the span past the liveness deadline so the recovery
	// scan always has a full measurement window.
	tailSlack = 2 * time.Second
	// leaderDownForVC is the contiguous crash duration of the initial
	// leader, un-obscured by any partition, after which a completed
	// election is provably required and RequireViewChange is asserted.
	leaderDownForVC = 4 * time.Second
)

// Fuzzer samples scenarios deterministically from a seed.
type Fuzzer struct {
	seed int64
}

// New returns a fuzzer for the given seed.
func New(seed int64) *Fuzzer { return &Fuzzer{seed: seed} }

// Scenarios samples the first count scenarios.
func (f *Fuzzer) Scenarios(count int) []*scenario.Scenario {
	out := make([]*scenario.Scenario, count)
	for i := range out {
		out[i] = f.Scenario(i)
	}
	return out
}

// Scenario samples the i-th scenario of this fuzzer's stream. The result
// always passes Validate — a sample that does not is a generator bug and
// panics rather than polluting a CI run with "invalid:" verdicts.
func (f *Fuzzer) Scenario(i int) *scenario.Scenario {
	// splitmix-style seed mixing keeps per-sample streams independent: with
	// plain seed+i, fuzzer seeds S and S+1 would share most samples.
	mixed := f.seed ^ (int64(i)+1)*0x5851F42D4C957F2D
	if mixed == 0 {
		mixed = 1
	}
	rng := rand.New(rand.NewSource(mixed))
	s := generate(rng, fmt.Sprintf("fuzz-s%d-%04d", f.seed, i))
	if err := s.Validate(); err != nil {
		panic(fmt.Sprintf("fuzz: generated invalid scenario %s: %v", s.Name, err))
	}
	return s
}

// genState is the generator's view of the timeline drawn so far: the
// shared fault state every sampled action is applied to, the wrapped
// servers SetFault draws its target from, and the election-oracle window.
type genState struct {
	*scenario.FaultState
	wrapped []types.ServerID
	events  []scenario.Event

	// down holds, since downSince, while the initial leader S1 is crashed
	// and no partition is in force anywhere; deposed records that such a
	// window lasted leaderDownForVC. During it the remaining n−1 ≥ 2f+1 servers
	// are fully connected, at most f−1 of them are crashed or Byzantine,
	// and the clients' complaint timers are running — a completed election
	// is guaranteed, so RequireViewChange is a sound oracle. A partition
	// anywhere in the window voids the proof (conservatively: even one that
	// leaves a quorum connected changes which servers can confirm).
	down      bool
	downSince time.Duration
	deposed   bool
}

// add appends a at time at, applying it to the fault state. The step
// functions only draw actions whose preconditions hold, so a rejection is
// a generator bug.
func (g *genState) add(at time.Duration, a scenario.Action) {
	if g.down && at-g.downSince >= leaderDownForVC {
		g.deposed = true
	}
	if err := g.Apply(a); err != nil {
		panic(fmt.Sprintf("fuzz: sampled %s at %v, which the fault state rejects: %v", a, at, err))
	}
	g.events = append(g.events, scenario.Event{At: at, Action: a})
	const leader = types.ServerID(1)
	if g.Crashed(leader) && !g.Partitioned() {
		if !g.down {
			g.down, g.downSince = true, at
		}
	} else {
		g.down = false
	}
}

func generate(rng *rand.Rand, name string) *scenario.Scenario {
	// Cluster shape: mostly the 4-server minimum (fastest cells, f=1),
	// sometimes 7 (f=2 allows richer concurrent-fault interleavings).
	n := 4
	if rng.Intn(10) < 3 {
		n = 7
	}
	// Wrap up to f servers (from the top ids, away from the initial leader
	// S1) so SetFault swaps have targets. Zero wrapped servers simply
	// removes SetFault from the action vocabulary for this sample.
	var wrapped []types.ServerID
	for w := rng.Intn(types.FaultBound(n) + 1); w > 0; w-- {
		wrapped = append(wrapped, types.ServerID(n-w+1))
	}

	opts := harness.Options{
		N: n, Clients: 8, BatchSize: 8,
		Seed:          rng.Int63n(1<<40) + 1,
		ClientTimeout: 500 * time.Millisecond,
		WrapServers:   wrapped,
	}
	// Sometimes run with certified checkpoints enabled: compaction racing
	// crashes and partitions is exactly where a stale-snapshot wedge would
	// hide. No checkpoint invariants are asserted — short timelines may
	// legitimately not compact — the value is the interleaving itself
	// under the always-on safety and liveness oracles.
	if rng.Intn(10) < 3 {
		opts.CheckpointInterval = 16
	}
	g := &genState{FaultState: scenario.NewFaultState(opts), wrapped: wrapped}

	at := warmup
	steps := minEvents + rng.Intn(maxEvents-minEvents+1)
	for len(g.events) < steps {
		at += minGap + time.Duration(rng.Int63n(int64(maxGap-minGap)))
		if a := g.step(rng); a != nil {
			g.add(at, a)
		}
	}

	// Cleanup phase: quiesce so bounded liveness is a legitimate claim.
	// Order matters — heal the fabric before recovering servers so the
	// recovered replicas rejoin a connected quorum.
	cleanup := func(a scenario.Action) {
		at += 400 * time.Millisecond
		g.add(at, a)
	}
	if g.Partitioned() {
		cleanup(scenario.Heal{})
	}
	if g.Degraded() {
		cleanup(scenario.Restore{})
	}
	for _, id := range g.ByzantineIDs() {
		cleanup(scenario.SetFault{Server: id})
	}
	for _, id := range g.CrashedIDs() {
		// Most crashed servers recover (exercising the catch-up and
		// timer-re-arm paths); some stay down, which forces the liveness
		// oracle to see the survivors commit without them — the shape that
		// catches election wedges even when a recovered old leader would
		// otherwise resume and mask one. Quorum holds either way: at most
		// f servers are ever crashed.
		if rng.Intn(10) < 7 {
			cleanup(scenario.Recover{Server: id})
		}
	}
	events := g.events

	inv := scenario.Invariants{RecoverWithin: recoverWithin}
	// Catch-up oracle: a server that crashed and came back must end near
	// the head. Pick the last recovered server that is still up when the
	// timeline ends (deterministic choice): a server that was re-crashed
	// after its recovery and left down can never catch up, so asserting it
	// would fail a perfectly healthy protocol.
	for i := len(events) - 1; i >= 0; i-- {
		r, ok := events[i].Action.(scenario.Recover)
		if !ok || g.Crashed(r.Server) {
			continue
		}
		inv.CatchUpServer = r.Server
		break
	}
	// Election oracle: if the initial leader S1 was provably deposed, at
	// least one election must have completed. Without this, a view-change
	// wedge can hide behind the recovered leader resuming. The span extends
	// recoverWithin past the last event, so a window still open at the end
	// certainly reaches leaderDownForVC.
	if g.deposed || g.down {
		inv.RequireViewChange = true
	}

	last := events[len(events)-1].At
	return &scenario.Scenario{
		Name: name,
		Description: fmt.Sprintf("fuzz-sampled timeline (n=%d, %d events, opts seed %d)",
			n, len(events), opts.Seed),
		Opts:       opts,
		Warmup:     warmup,
		Span:       last + recoverWithin + tailSlack,
		Events:     events,
		Invariants: inv,
	}
}

// step samples one applicable action. It returns nil when the sampled
// action kind has no valid instantiation right now (e.g. Heal with no
// partition active); the caller just re-rolls.
func (g *genState) step(rng *rand.Rand) scenario.Action {
	switch rng.Intn(7) {
	case 0: // Crash
		var cands []types.ServerID
		if g.Load() < g.F() {
			for i := 1; i <= g.N(); i++ {
				id := types.ServerID(i)
				if !g.Crashed(id) {
					cands = append(cands, id)
				}
			}
		} else {
			// At the bound, crashing a running Byzantine server keeps the
			// load constant (it stops counting as Byzantine).
			for _, id := range g.ByzantineIDs() {
				if !g.Crashed(id) {
					cands = append(cands, id)
				}
			}
		}
		if len(cands) == 0 {
			return nil
		}
		return scenario.Crash{Server: cands[rng.Intn(len(cands))]}
	case 1: // Recover
		// A crashed Byzantine server resuming would re-raise the fault load.
		var ok []types.ServerID
		for _, id := range g.CrashedIDs() {
			if !g.Byzantine(id) || g.Load() < g.F() {
				ok = append(ok, id)
			}
		}
		if len(ok) == 0 {
			return nil
		}
		return scenario.Recover{Server: ok[rng.Intn(len(ok))]}
	case 2: // Partition (replaces any active one)
		groups := g.samplePartition(rng)
		if groups == nil {
			return nil
		}
		return scenario.Partition{Groups: groups}
	case 3: // Heal
		if !g.Partitioned() {
			return nil
		}
		return scenario.Heal{}
	case 4: // SetFault
		if len(g.wrapped) == 0 {
			return nil
		}
		id := g.wrapped[rng.Intn(len(g.wrapped))]
		if g.Byzantine(id) {
			// Clear it (dynamic fault migration: the faulty set moves).
			return scenario.SetFault{Server: id}
		}
		if g.Load() >= g.F() && !g.Crashed(id) {
			return nil
		}
		return scenario.SetFault{Server: id, Spec: quietOrEquivocate(rng)}
	case 5: // Degrade
		extra := 5*time.Millisecond + time.Duration(rng.Int63n(int64(35*time.Millisecond)))
		return scenario.Degrade{
			Extra:    extra,
			Jitter:   time.Duration(rng.Int63n(int64(extra)/2 + 1)),
			DropRate: rng.Float64() * 0.25,
		}
	case 6: // Restore
		if !g.Degraded() {
			return nil
		}
		return scenario.Restore{}
	}
	return nil
}

// samplePartition draws a random split: each server lands in the implicit
// remainder group or one of up to two named groups. Splits that do not
// actually separate anybody (all servers on one side) are rejected.
func (g *genState) samplePartition(rng *rand.Rand) [][]types.ServerID {
	ngroups := 1
	if g.N() >= 7 && rng.Intn(4) == 0 {
		ngroups = 2
	}
	named := make([][]types.ServerID, ngroups)
	remainder := 0
	for i := 1; i <= g.N(); i++ {
		gi := rng.Intn(ngroups + 1)
		if gi == 0 {
			remainder++
			continue
		}
		named[gi-1] = append(named[gi-1], types.ServerID(i))
	}
	sep := 0
	for _, grp := range named {
		if len(grp) > 0 {
			sep++
		}
	}
	if sep == 0 || (remainder == 0 && sep < 2) {
		return nil
	}
	return named
}

// quietOrEquivocate samples a runtime-swappable Byzantine behavior (F2 or
// F3; F4/RepeatedVC is construction-time only and never generated).
func quietOrEquivocate(rng *rand.Rand) faults.Spec {
	if rng.Intn(2) == 0 {
		return faults.Spec{Mode: faults.Quiet}
	}
	return faults.Spec{Mode: faults.Equivocate}
}
