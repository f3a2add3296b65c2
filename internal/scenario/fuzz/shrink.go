package fuzz

// Shrinking: given a failing timeline, find a smaller one that still fails
// the same way. The shrinker is a greedy descent over three move families —
// drop an event, merge an event onto its predecessor's instant, halve the
// gap in front of an event (shifting the whole tail earlier) — accepting
// the first move whose candidate still reproduces a violation of the same
// class, and restarting until no move is accepted or the run budget is
// spent. Every accepted move strictly decreases (event count, sum of event
// times) lexicographically, so the descent terminates even without the
// budget; re-running the same failing scenario against a deterministic
// oracle makes the whole shrink deterministic, which CI relies on when it
// compares artifacts across worker counts.

import (
	"fmt"
	"strings"
	"time"

	"prestigebft/internal/scenario"
)

// Oracle runs a scenario and returns its invariant violations (empty =
// pass). The sim oracle is Scenario.Run; the live oracle runs the timeline
// against a real TCP cluster through the same Environment seam.
type Oracle func(*scenario.Scenario) []string

// Result is the outcome of a shrink.
type Result struct {
	// Scenario is the minimal failing timeline (the input scenario,
	// unchanged, when the input passed its oracle).
	Scenario *scenario.Scenario
	// Violations are the minimal scenario's violations (of the original
	// run when no shrink was possible).
	Violations []string
	// Runs counts oracle invocations, Accepted the moves that stuck.
	Runs, Accepted int
}

// classOf maps a violation message to its class — the "safety:"/"liveness:"
// style prefix — so shrinking chases the original failure and cannot drift
// onto an unrelated violation that a mutated timeline happens to trip.
func classOf(v string) string {
	if i := strings.IndexByte(v, ':'); i >= 0 {
		return v[:i]
	}
	return v
}

func classesOf(vs []string) map[string]bool {
	out := make(map[string]bool, len(vs))
	for _, v := range vs {
		out[classOf(v)] = true
	}
	return out
}

// Shrink minimizes s against the oracle within maxRuns oracle invocations
// (the initial probe included). The input scenario is never mutated.
func Shrink(s *scenario.Scenario, oracle Oracle, maxRuns int) Result {
	res := Result{Scenario: s, Runs: 1}
	res.Violations = oracle(s)
	if len(res.Violations) == 0 {
		return res // shrinking a passing timeline is a no-op
	}
	target := classesOf(res.Violations)
	// tail is the post-last-event observation window of the original
	// scenario; every candidate keeps it, so moving events earlier shortens
	// the run without shortening what the liveness scan can observe (a
	// truncated tail could manufacture "never recovered" out of a slow
	// recovery — the shrinker must only ever remove cause, not evidence).
	tail := s.Span - lastEventAt(s)

	cur := cloneScenario(s)
	for res.Runs < maxRuns {
		next, viols, runs := step(cur, oracle, target, tail, maxRuns-res.Runs)
		res.Runs += runs
		if next == nil {
			break // no move reproduces: cur is minimal under our moves
		}
		cur, res.Violations = next, viols
		res.Accepted++
	}
	res.Scenario = cur
	if res.Accepted > 0 {
		res.Scenario.Description = fmt.Sprintf(
			"shrunk from %d to %d events (%d oracle runs); violation: %s",
			len(s.Events), len(cur.Events), res.Runs, res.Violations[0])
	}
	return res
}

// step tries every move on cur in deterministic order and returns the first
// accepted candidate (nil when none reproduces within budget).
func step(cur *scenario.Scenario, oracle Oracle, target map[string]bool, tail time.Duration, budget int) (*scenario.Scenario, []string, int) {
	runs := 0
	try := func(c *scenario.Scenario) ([]string, bool) {
		if c == nil || runs >= budget {
			return nil, false
		}
		normalize(c, tail)
		if c.Validate() != nil || !quiesces(c) {
			return nil, false // structurally invalid move: free rejection
		}
		runs++
		viols := oracle(c)
		for _, v := range viols {
			if target[classOf(v)] {
				return viols, true
			}
		}
		return nil, false
	}

	// Move family 1: drop one event (dependent repair inside dropEvent).
	// Dropping later events first keeps the failure's setup intact while
	// stripping aftermath, which tends to reproduce more often.
	for i := len(cur.Events) - 1; i >= 0; i-- {
		if c := dropEvent(cur, i); c != nil {
			if viols, ok := try(c); ok {
				return c, viols, runs
			}
		}
	}
	// Move family 2: merge an event onto its predecessor's instant (or the
	// warmup boundary for the first event) — adjacent windows collapse.
	for i := range cur.Events {
		if c := mergeEarlier(cur, i); c != nil {
			if viols, ok := try(c); ok {
				return c, viols, runs
			}
		}
	}
	// Move family 3: halve the gap before an event, shifting the tail of
	// the timeline with it — spans shorten without reordering.
	for i := range cur.Events {
		if c := halveGap(cur, i); c != nil {
			if viols, ok := try(c); ok {
				return c, viols, runs
			}
		}
	}
	return nil, nil, runs
}

// normalize recomputes the span so the candidate keeps the original
// observation tail after its (possibly earlier) last event, never cutting
// into a declared stall window.
func normalize(c *scenario.Scenario, tail time.Duration) {
	span := lastEventAt(c) + tail
	if c.Invariants.StallTo > span {
		span = c.Invariants.StallTo
	}
	c.Span = span
}

func lastEventAt(s *scenario.Scenario) time.Duration {
	if len(s.Events) == 0 {
		return s.Warmup
	}
	return s.Events[len(s.Events)-1].At
}

// dropEvent removes event i and repairs the remainder: any event whose
// precondition the removal broke is removed too (repairEvents).
func dropEvent(s *scenario.Scenario, i int) *scenario.Scenario {
	c := cloneScenario(s)
	c.Events = append(c.Events[:i], c.Events[i+1:]...)
	c.Events = repairEvents(c)
	return c
}

// mergeEarlier sets event i's time to its predecessor's (the warmup for
// i=0), collapsing the window between them to zero.
func mergeEarlier(s *scenario.Scenario, i int) *scenario.Scenario {
	prev := s.Warmup
	if i > 0 {
		prev = s.Events[i-1].At
	}
	if s.Events[i].At == prev {
		return nil
	}
	c := cloneScenario(s)
	c.Events[i].At = prev
	return c
}

// halveGap halves the gap between event i and its predecessor, shifting
// event i and everything after it earlier by the same amount. Gaps under
// 10ms are left alone (mergeEarlier finishes the job).
func halveGap(s *scenario.Scenario, i int) *scenario.Scenario {
	prev := s.Warmup
	if i > 0 {
		prev = s.Events[i-1].At
	}
	gap := s.Events[i].At - prev
	if gap < 10*time.Millisecond {
		return nil
	}
	c := cloneScenario(s)
	for j := i; j < len(c.Events); j++ {
		c.Events[j].At -= gap / 2
	}
	return c
}

// quiesces reports whether the timeline ends with the environment healthy —
// no partition or degradation active, no server left Byzantine. The
// generator only emits quiescing timelines (that contract is what makes the
// RecoverWithin claim legitimate), so the shrinker must stay inside the
// same space: dropping a Heal or Restore while keeping the fault it undoes
// would fail liveness for environmental reasons and pin the shrink onto a
// timeline that fails even with the protocol bug fixed. Lingering crashes
// are fine — Validate already bounds them to f, so a quorum remains — with
// one exception: the catch-up target must end the timeline up, or the
// catch-up claim is vacuously false (dropping its Recover would let the
// shrinker "reproduce" on any protocol, bug or not).
func quiesces(s *scenario.Scenario) bool {
	st := scenario.NewFaultState(s.Opts)
	for _, ev := range s.Events {
		if st.Apply(ev.Action) != nil {
			return false
		}
	}
	if id := s.Invariants.CatchUpServer; id != 0 && st.Crashed(id) {
		return false
	}
	return st.Quiescent()
}

// repairEvents keeps the events the shared fault state still accepts in
// order, dropping those whose precondition no longer holds (a Recover of a
// server no longer crashed, a Crash that would now exceed the fault bound).
// It never invents events, so the result is a subsequence of the input.
func repairEvents(s *scenario.Scenario) []scenario.Event {
	st := scenario.NewFaultState(s.Opts)
	var out []scenario.Event
	for _, ev := range s.Events {
		if st.Apply(ev.Action) == nil {
			out = append(out, ev)
		}
	}
	return out
}

// cloneScenario deep-copies the parts shrinking mutates (events, span,
// description); Opts and Invariants are value-copied, which is deep enough
// because the shrinker never touches their reference fields.
func cloneScenario(s *scenario.Scenario) *scenario.Scenario {
	c := *s
	c.Events = append([]scenario.Event(nil), s.Events...)
	return &c
}
