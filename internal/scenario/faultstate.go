package scenario

import (
	"fmt"

	"prestigebft/internal/harness"
	"prestigebft/internal/types"
)

// FaultState is a timeline's fault state at one instant: which servers are
// crashed, which are Byzantine, whether a partition or a fabric degradation
// is in force, and the fault bound f. The paper's fault model lets the
// faulty set change membership over a run while never exceeding f (§6.2),
// so crashed servers plus running Byzantine servers may never exceed f (a
// crashed attacker is just a crash). Partitions are exempt: they model the
// network, not servers, and are expected to stall liveness until healed.
//
// Validate, the fuzz generator and the shrinker all walk timelines through
// one FaultState, so every stateful precondition is written here once.
type FaultState struct {
	n, f        int
	wrapped     map[types.ServerID]bool
	crashed     map[types.ServerID]bool
	byz         map[types.ServerID]bool
	partitioned bool
	degraded    bool
}

// NewFaultState returns the state a run built from o starts in: nothing
// crashed, no partition or degradation, and every server with a faulty
// spec in o.Faults Byzantine. Those servers and o.WrapServers are the ones
// a SetFault may target. An initial Byzantine set over f is not rejected
// here; Validate reports it.
func NewFaultState(o harness.Options) *FaultState {
	n := o.WithDefaults().N
	st := &FaultState{
		n:       n,
		f:       types.FaultBound(n),
		wrapped: make(map[types.ServerID]bool),
		crashed: make(map[types.ServerID]bool),
		byz:     make(map[types.ServerID]bool),
	}
	for _, id := range types.SortedKeys(o.Faults) {
		if o.Faults[id].IsFaulty() {
			st.wrapped[id] = true
			st.byz[id] = true
		}
	}
	for _, id := range o.WrapServers {
		st.wrapped[id] = true
	}
	return st
}

// N is the cluster size.
func (st *FaultState) N() int { return st.n }

// F is the fault bound ⌊(n−1)/3⌋.
func (st *FaultState) F() int { return st.f }

// Crashed reports whether server id is crashed.
func (st *FaultState) Crashed(id types.ServerID) bool { return st.crashed[id] }

// Byzantine reports whether server id runs a faulty spec (crashed or not).
func (st *FaultState) Byzantine(id types.ServerID) bool { return st.byz[id] }

// CrashedIDs lists the crashed servers in ascending order.
func (st *FaultState) CrashedIDs() []types.ServerID { return types.SortedKeys(st.crashed) }

// ByzantineIDs lists the Byzantine servers, crashed or not, in ascending
// order.
func (st *FaultState) ByzantineIDs() []types.ServerID { return types.SortedKeys(st.byz) }

// Load counts the servers the fault bound caps: crashed servers plus
// running Byzantine ones.
func (st *FaultState) Load() int {
	load := len(st.crashed)
	for id := range st.byz {
		if !st.crashed[id] {
			load++
		}
	}
	return load
}

// Partitioned reports whether a partition is in force.
func (st *FaultState) Partitioned() bool { return st.partitioned }

// Degraded reports whether a fabric degradation is in force.
func (st *FaultState) Degraded() bool { return st.degraded }

// Quiescent reports whether the environment is healthy apart from crashes:
// no partition, no degradation, no server Byzantine.
func (st *FaultState) Quiescent() bool {
	return !st.partitioned && !st.degraded && len(st.byz) == 0
}

// boundError is the error Apply returns for an action that would push the
// fault load past f.
type boundError struct{ crashed, byz, f int }

func (e *boundError) Error() string {
	return fmt.Sprintf("%d crashed + %d faulty servers exceed f=%d", e.crashed, e.byz, e.f)
}

// Apply checks a's precondition and the fault bound and, when both hold,
// applies a. On error the state is unchanged. Except for a fault-bound
// error, the message is a predicate for the event ("crashes unknown
// server 9"), which Validate prefixes with the event's index.
func (st *FaultState) Apply(a Action) error {
	valid := func(id types.ServerID) bool { return id >= 1 && int(id) <= st.n }
	switch a := a.(type) {
	case Crash:
		if !valid(a.Server) {
			return fmt.Errorf("crashes unknown server %d", a.Server)
		}
		if st.crashed[a.Server] {
			return fmt.Errorf("crashes server %d which is already crashed", a.Server)
		}
		return st.setBounded(st.crashed, a.Server, true)
	case Recover:
		if !st.crashed[a.Server] {
			return fmt.Errorf("recovers server %d which is not crashed", a.Server)
		}
		return st.setBounded(st.crashed, a.Server, false)
	case Partition:
		seen := make(map[types.ServerID]bool)
		for _, g := range a.Groups {
			for _, id := range g {
				if !valid(id) {
					return fmt.Errorf("partitions unknown server %d", id)
				}
				if seen[id] {
					return fmt.Errorf("lists server %d in two partition groups", id)
				}
				seen[id] = true
			}
		}
		st.partitioned = true
	case Heal:
		st.partitioned = false
	case SetFault:
		if !valid(a.Server) {
			return fmt.Errorf("sets a fault on unknown server %d", a.Server)
		}
		if !st.wrapped[a.Server] {
			return fmt.Errorf("sets a fault on server %d, which is neither in Faults nor WrapServers", a.Server)
		}
		if a.Spec.RepeatedVC {
			// The F4 levers (aggressive campaign timeouts, the S2 gate)
			// are wired at cluster construction; a runtime swap would
			// only change message filtering and leave an inert attacker
			// that reports the attack ran. Same restriction as F1.
			return fmt.Errorf("swaps in RepeatedVC at runtime; F4 is construction-time — declare the attacker in Opts.Faults")
		}
		return st.setBounded(st.byz, a.Server, a.Spec.IsFaulty())
	case Degrade:
		if a.DropRate < 0 || a.DropRate >= 1 {
			return fmt.Errorf("drop rate %v outside [0,1)", a.DropRate)
		}
		st.degraded = true
	case Restore:
		st.degraded = false
	default:
		return fmt.Errorf("has unknown action type %T", a)
	}
	return nil
}

// setBounded sets id's membership of set to on, undoing it when the fault
// load then exceeds f.
func (st *FaultState) setBounded(set map[types.ServerID]bool, id types.ServerID, on bool) error {
	was := set[id]
	setMember(set, id, on)
	if load := st.Load(); load > st.f {
		err := &boundError{crashed: len(st.crashed), byz: load - len(st.crashed), f: st.f}
		setMember(set, id, was)
		return err
	}
	return nil
}

func setMember(set map[types.ServerID]bool, id types.ServerID, on bool) {
	if on {
		set[id] = true
	} else {
		delete(set, id)
	}
}
