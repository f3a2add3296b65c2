package scenario

import (
	"fmt"
	"time"

	"prestigebft/internal/faults"
	"prestigebft/internal/types"
)

// Action is one environmental injection. Actions stop and start servers,
// edit the run's Fabric or swap a fault wrapper's behaviour, never protocol
// internals — a scenario only does what a real operator's misfortune (or a
// real attacker) could. They are written against the engine's run state, so
// the same timeline replays on the simulator and on a live TCP cluster.
type Action interface {
	fmt.Stringer
	apply(r *run)
}

// run is the engine's state while a scenario executes: the world, and the
// one declared Fabric the fabric actions edit and re-apply.
type run struct {
	env    Environment
	fabric Fabric
}

// Crash fail-stops a server. The simulator severs all of its links; a live
// environment stops the hosting runtime and closes its transport, then
// re-spawns it on Recover against the ledger it kept (fail-recover, not
// amnesia).
type Crash struct{ Server types.ServerID }

func (a Crash) String() string { return fmt.Sprintf("crash(S%d)", a.Server) }
func (a Crash) apply(r *run)   { r.env.Crash(a.Server) }

// Recover brings a crashed server back. It rejoins with its local state
// via the normal catch-up path.
type Recover struct{ Server types.ServerID }

func (a Recover) String() string { return fmt.Sprintf("recover(S%d)", a.Server) }
func (a Recover) apply(r *run)   { r.env.Recover(a.Server) }

// Partition splits the server plane: servers in different groups cannot
// talk. Servers not listed in any group form one implicit group together.
// A later Partition replaces the current one; Heal removes it.
type Partition struct{ Groups [][]types.ServerID }

func (a Partition) String() string {
	out := "partition("
	for i, g := range a.Groups {
		if i > 0 {
			out += "|"
		}
		for j, id := range sortedIDs(g) {
			if j > 0 {
				out += ","
			}
			out += fmt.Sprintf("S%d", id)
		}
	}
	return out + ")"
}

func (a Partition) apply(r *run) {
	r.fabric.Groups = make(map[types.ServerID]int)
	for gi, g := range a.Groups {
		for _, id := range g {
			r.fabric.Groups[id] = gi + 1 // 0 is the implicit remainder group
		}
	}
	r.env.SetFabric(r.fabric)
}

// Heal removes the current partition. Crashed servers stay crashed.
type Heal struct{}

func (Heal) String() string { return "heal" }
func (Heal) apply(r *run) {
	r.fabric.Groups = nil
	r.env.SetFabric(r.fabric)
}

// SetFault swaps a server's Byzantine behavior at runtime (the paper's
// dynamic fault set: membership of the faulty set may change while
// |faulty| ≤ f holds). The server must be wrapped (harness
// Options.WrapServers or a faulty initial Spec).
type SetFault struct {
	Server types.ServerID
	Spec   faults.Spec
}

func (a SetFault) String() string { return fmt.Sprintf("setFault(S%d,%s)", a.Server, a.Spec) }
func (a SetFault) apply(r *run) {
	if w := r.env.Deployment().Wrappers[a.Server-1]; w != nil {
		w.SetSpec(a.Spec)
	}
}

// Degrade reshapes the whole fabric: a gray failure where links stay up
// but turn slow and lossy. Each message gains a normally distributed
// Extra±Jitter delay on top of the base fabric profile and is dropped with
// probability DropRate — the netem vocabulary, so the same numbers drive
// the simulator's latency model and a live transport's fault layer.
type Degrade struct {
	Extra    time.Duration
	Jitter   time.Duration
	DropRate float64
}

func (a Degrade) String() string {
	return fmt.Sprintf("degrade(+%v±%v,drop=%.0f%%)", a.Extra, a.Jitter, a.DropRate*100)
}
func (a Degrade) apply(r *run) {
	r.fabric.Degrade = &a
	r.env.SetFabric(r.fabric)
}

// Restore returns the fabric to the scenario's base profile (undoes Degrade).
type Restore struct{}

func (Restore) String() string { return "restore" }
func (Restore) apply(r *run) {
	r.fabric.Degrade = nil
	r.env.SetFabric(r.fabric)
}
