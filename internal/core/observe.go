package core

import "prestigebft/internal/types"

// Observability accessors: read-only views of node state sampled by the
// live runtime's metrics loop (which owns the node's goroutine, so no
// locking is needed). None of these mutate state or draw from the RNG —
// sampling must not perturb the deterministic core.

// ChainHeight returns the committed txBlock height.
func (n *Node) ChainHeight() types.SeqNum { return n.store.TxHeight() }

// RetainedBlocks returns how many txBlocks the ledger currently holds —
// the quantity checkpoint compaction bounds, and therefore the soak gate's
// memory-flatness signal.
func (n *Node) RetainedBlocks() int { return n.store.RetainedTxBlocks() }

// CheckpointLag returns how far the committed chain has run ahead of the
// latest certified checkpoint (the whole chain height when no checkpoint
// exists yet). A lag that grows without bound while CheckpointInterval > 0
// means certification has stalled.
func (n *Node) CheckpointLag() int64 {
	ckpt := n.store.Checkpoint()
	if ckpt == nil {
		return int64(n.store.TxHeight())
	}
	return int64(n.store.TxHeight()) - int64(ckpt.Header.Seq)
}

// ComplaintBacklog counts complained transactions that have not committed
// yet — the pressure feeding the complaint-triggered view-change path
// (§4.2.1).
func (n *Node) ComplaintBacklog() int { return len(n.compts) }

// Reputations returns this node's view of every server's reputation
// penalty, in ServerID order aligned with the returned IDs slice.
func (n *Node) Reputations() ([]types.ServerID, []int64) {
	rp := n.store.LatestVcBlock().RP
	ids := types.SortedKeys(rp)
	vals := make([]int64, len(ids))
	for i, id := range ids {
		vals[i] = rp[id]
	}
	return ids, vals
}
