package core

import (
	"prestigebft/internal/consensus"
	"prestigebft/internal/types"
)

// The node answers consensus.Faultable for the PrestigeBFT message set, so
// the fault injector needs no knowledge of it.
var _ consensus.Faultable = (*Node)(nil)

// Leading implements consensus.Faultable: the node holds leadership once it
// wins an election (or starts as view 1's leader).
func (n *Node) Leading() bool { return n.state == Leader }

// Replication implements consensus.Faultable: client requests, the two
// replication phases with their replies, committed blocks and client
// notifications.
func (n *Node) Replication(msg types.Message) bool {
	switch msg.(type) {
	case *types.Prop, *types.Compt, *types.Ord, *types.OrdReply, *types.Cmt, *types.CmtReply,
		*types.Adopt, *types.TxBlockMsg, *types.Notif:
		return true
	}
	return false
}

// Forge implements consensus.Faultable: a copy of msg with its signature
// stripped. Receivers spend bandwidth and verification work before
// rejecting it.
func (n *Node) Forge(msg types.Message) types.Message {
	switch m := msg.(type) {
	case *types.Ord:
		c := *m
		c.Sig = nil
		return &c
	case *types.OrdReply:
		c := *m
		c.Sig = nil
		return &c
	case *types.Cmt:
		c := *m
		c.Sig = nil
		return &c
	case *types.Adopt:
		c := *m
		c.Sig = nil
		return &c
	case *types.CmtReply:
		c := *m
		c.Sig = nil
		return &c
	case *types.TxBlockMsg:
		c := *m
		c.Sig = nil
		return &c
	case *types.Notif:
		c := *m
		c.Sig = nil
		return &c
	case *types.VoteCP:
		c := *m
		c.Sig = nil
		return &c
	case *types.ReVC:
		c := *m
		c.Sig = nil
		return &c
	case *types.VcYes:
		c := *m
		c.Sig = nil
		return &c
	}
	return msg
}
