package hotstuff

import (
	"prestigebft/internal/consensus"
	"prestigebft/internal/types"
)

// The replica answers consensus.Faultable for the HotStuff message set.
var _ consensus.Faultable = (*Replica)(nil)

// Leading implements consensus.Faultable: this replica is the current
// view's scheduled leader and has collected its NewView quorum. HotStuff
// servers never campaign, so an attacker leads only in the views the
// rotation hands it.
func (r *Replica) Leading() bool { return r.active && r.isLeader() }

// Replication implements consensus.Faultable. Client requests, the three
// voting phases, Decide and client notifications are replication traffic;
// NewView (view change) and SyncReq/SyncResp are not.
func (r *Replica) Replication(msg types.Message) bool {
	switch msg.(type) {
	case *types.Prop, *types.Compt, *Prepare, *Vote, *PhaseAnnounce, *Decide, *types.Notif:
		return true
	}
	return false
}

// Forge implements consensus.Faultable: a copy of msg with its signature
// stripped.
func (r *Replica) Forge(msg types.Message) types.Message {
	switch m := msg.(type) {
	case *Prepare:
		c := *m
		c.Sig = nil
		return &c
	case *Vote:
		c := *m
		c.Sig = nil
		return &c
	case *PhaseAnnounce:
		c := *m
		c.Sig = nil
		return &c
	case *Decide:
		c := *m
		c.Sig = nil
		return &c
	case *NewView:
		c := *m
		c.Sig = nil
		return &c
	case *types.Notif:
		c := *m
		c.Sig = nil
		return &c
	}
	return msg
}
