package sbft

import (
	"prestigebft/internal/consensus"
	"prestigebft/internal/types"
)

// The replica answers consensus.Faultable for the SBFT message set.
var _ consensus.Faultable = (*Replica)(nil)

// Leading implements consensus.Faultable: this replica is the current
// view's scheduled leader (SBFT's collector). SBFT servers never campaign,
// so an attacker leads only in the views the rotation hands it.
func (r *Replica) Leading() bool { return r.isLeader() }

// Replication implements consensus.Faultable. Client requests, PrePrepare,
// signature shares, proofs and client notifications are replication
// traffic; NewView is view change.
func (r *Replica) Replication(msg types.Message) bool {
	switch msg.(type) {
	case *types.Prop, *types.Compt, *PrePrepare, *Share, *Proof, *types.Notif:
		return true
	}
	return false
}

// Forge implements consensus.Faultable: a copy of msg with its signature
// stripped.
func (r *Replica) Forge(msg types.Message) types.Message {
	switch m := msg.(type) {
	case *PrePrepare:
		c := *m
		c.Sig = nil
		return &c
	case *Share:
		c := *m
		c.Sig = nil
		return &c
	case *Proof:
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
