package core

import (
	"time"

	"prestigebft/internal/consensus"
	"prestigebft/internal/quorum"
	"prestigebft/internal/types"
)

// --- Proposal intake ---------------------------------------------------------

// onProp handles a client proposal (§4.3 "Invoking a consensus service").
// The leader batches proposals into consensus instances, and any replica
// answers a re-sent proposal for a committed transaction. A client sends
// each proposal to the leader its last Notifs named, or to every server
// when it has no such hint; a non-leader passes on the ones a stale hint
// sent it (forwardProp) and drops the rest unverified.
func (n *Node) onProp(now time.Duration, from consensus.Origin, m *types.Prop) []consensus.Effect {
	out, committed := n.committedTx[m.D]
	if !committed {
		if n.state != Leader || !n.leaderConfirmed {
			return n.forwardProp(from, m)
		}
		// A verified transaction with this digest is already queued: a
		// copy adds nothing, valid or not, so it costs no verification.
		if n.pendingByDigest[m.D] {
			return nil
		}
	}
	if m.Tx.Digest() != m.D {
		return nil
	}
	if !n.cfg.Registry.VerifyClient(m.Tx.Client, m.SigningBytes(), m.Sig) {
		return nil
	}
	if committed {
		// Duplicate of a committed transaction: re-notify.
		return []consensus.Effect{n.renotify(m.Tx.Client, m.D, out)}
	}
	return n.enqueueTx(now, m)
}

// forwardProp passes a proposal on to this replica's current leader, once
// and unverified (the leader verifies it), when it came straight from a
// client and this replica has led a view. A leader hint is agreed by f+1
// replicas, at least one correct, and names the leader of a view they
// installed, so a proposal sent to a server that never led came from a
// hintless broadcast, whose leader copy went to the leader itself. A copy
// relayed by a server is never relayed again: at most one extra hop.
func (n *Node) forwardProp(from consensus.Origin, m *types.Prop) []consensus.Effect {
	if leader := n.store.CurrentLeader(); from.Client && n.led && leader != n.cfg.ID {
		return []consensus.Effect{consensus.Send{To: leader, Msg: m}}
	}
	return nil
}

// enqueueTx adds a verified transaction to the leader's batch queue and
// starts replication instances while the window has room.
func (n *Node) enqueueTx(now time.Duration, m *types.Prop) []consensus.Effect {
	if n.pendingByDigest[m.D] {
		return nil
	}
	n.pendingByDigest[m.D] = true
	n.pending = append(n.pending, m.Tx)
	var effs []consensus.Effect
	effs = append(effs, n.maybeStartInstance(now)...)
	effs = append(effs, n.armBatchTimer()...)
	return effs
}

// armBatchTimer arms the partial-batch flush timer when queued transactions
// are waiting and no timer is armed. An empty queue never arms it: with
// instances in flight but nothing queued the timer would fire, flush
// nothing, and re-arm forever — a busy loop in otherwise idle leader traces.
func (n *Node) armBatchTimer() []consensus.Effect {
	if len(n.pending) == 0 || n.batchArmed {
		return nil
	}
	n.batchArmed = true
	return []consensus.Effect{consensus.SetTimer{Kind: TimerBatch, Key: 0, Delay: batchTimeout}}
}

// onBatchTimer flushes a partial batch.
func (n *Node) onBatchTimer(now time.Duration) []consensus.Effect {
	n.batchArmed = false
	var effs []consensus.Effect
	effs = append(effs, n.maybeStartInstanceWith(now, true)...)
	effs = append(effs, n.armBatchTimer()...)
	return effs
}

// maybeStartInstance starts replication instances while full batches are
// queued and the window is below PipelineDepth.
func (n *Node) maybeStartInstance(now time.Duration) []consensus.Effect {
	return n.maybeStartInstanceWith(now, false)
}

// maybeStartInstanceWith admits as many instances as the replication window
// allows: one per full batch, plus — when flush is set — one final partial
// batch. Instance k+1 chains onto instance k through its predicted hash
// (types.TxBlock.PredictedHash), so successive blocks enter the Ordering
// phase without waiting for their predecessors' commit certificates.
func (n *Node) maybeStartInstanceWith(now time.Duration, flush bool) []consensus.Effect {
	if n.state != Leader || !n.leaderConfirmed {
		return nil
	}
	var effs []consensus.Effect
	for len(n.inflight) < n.cfg.PipelineDepth && len(n.pending) > 0 {
		if !flush && len(n.pending) < n.cfg.BatchSize {
			break
		}
		batch := n.pending
		if len(batch) > n.cfg.BatchSize {
			batch = batch[:n.cfg.BatchSize]
			n.pending = append([]types.Transaction(nil), n.pending[n.cfg.BatchSize:]...)
		} else {
			n.pending = nil
		}
		effs = append(effs, n.startInstance(now, batch)...)
	}
	return effs
}

// startInstance opens one consensus instance for the batch at the window's
// high watermark and broadcasts its Ord.
func (n *Node) startInstance(now time.Duration, batch []types.Transaction) []consensus.Effect {
	seq := n.store.TxHeight() + types.SeqNum(len(n.inflight)) + 1
	var prevHash types.Digest
	if prev, ok := n.inflight[seq-1]; ok {
		prevHash = prev.block.PredictedHash()
	} else {
		prevHash = n.store.LatestTxBlock().Hash()
	}
	blk := &types.TxBlock{
		Header: types.TxBlockHeader{
			V:        n.View(),
			N:        seq,
			PrevHash: prevHash,
			BatchLen: uint32(len(batch)),
		},
		Txs: batch,
	}
	digest := blk.ContentDigest()
	inst := &replInstance{
		block:   blk,
		digest:  digest,
		ordColl: quorum.NewCollector(types.QCOrdering, blk.Header.V, blk.Header.N, digest, n.quorumSize()),
		started: now,
	}
	n.voteOwn(inst.ordColl)
	n.inflight[seq] = inst
	ord := &types.Ord{From: n.cfg.ID, V: blk.Header.V, N: blk.Header.N, Prev: blk.Header.PrevHash, Txs: batch}
	ord.Sig = n.sign(ord.SigningBytes())
	return []consensus.Effect{
		consensus.Broadcast{Msg: ord},
		consensus.SetTimer{Kind: TimerInstance, Key: uint64(seq), Delay: n.cfg.InstanceTimeout},
	}
}

// onInstanceTimer retransmits an in-flight instance's phase messages. For a
// regular instance the Ord is always resent (followers that voted re-send
// their existing reply; the collectors deduplicate), plus the Cmt once the
// ordering_QC exists; an adopted instance resends its Adopt. Parked
// instances (commit_QC assembled, predecessor still open) need no
// retransmission of their own — their predecessor's timer drives progress.
func (n *Node) onInstanceTimer(now time.Duration, seq types.SeqNum) []consensus.Effect {
	inst, ok := n.inflight[seq]
	if !ok || n.state != Leader || !n.leaderConfirmed || inst.committed() {
		return nil
	}
	blk := inst.block
	var effs []consensus.Effect
	if seq == n.store.TxHeight()+1 && n.store.TxHeight() > 0 {
		// The bottom of the window is stalled: voters may be missing our
		// latest committed block (e.g. its TxBlockMsg died in a partition),
		// which both blocks their ordering votes (chain gap) and wedges any
		// stale candidate below our height out of elections. Re-broadcast
		// the tip so stragglers re-discover it and sync up.
		tip := n.store.LatestTxBlock()
		msg := &types.TxBlockMsg{From: n.cfg.ID, Block: *tip}
		msg.Sig = n.sign(msg.SigningBytes())
		effs = append(effs, consensus.Broadcast{Msg: msg})
	}
	if inst.adopted {
		ad := &types.Adopt{From: n.cfg.ID, V: n.View(), Block: *blk}
		ad.Sig = n.sign(ad.SigningBytes())
		effs = append(effs, consensus.Broadcast{Msg: ad})
	} else {
		ord := &types.Ord{From: n.cfg.ID, V: blk.Header.V, N: blk.Header.N, Prev: blk.Header.PrevHash, Txs: blk.Txs}
		ord.Sig = n.sign(ord.SigningBytes())
		effs = append(effs, consensus.Broadcast{Msg: ord})
		if inst.cmtColl != nil {
			cmt := &types.Cmt{From: n.cfg.ID, V: blk.Header.V, N: blk.Header.N, OrderingQC: blk.OrderingQC}
			cmt.Sig = n.sign(cmt.SigningBytes())
			effs = append(effs, consensus.Broadcast{Msg: cmt})
		}
	}
	effs = append(effs, consensus.SetTimer{Kind: TimerInstance, Key: uint64(seq), Delay: n.cfg.InstanceTimeout})
	return effs
}

// dropWindow abandons every in-flight instance (view change, leadership
// loss) and cancels their retransmission timers, in ascending sequence
// order for deterministic effect streams.
func (n *Node) dropWindow() []consensus.Effect {
	if len(n.inflight) == 0 {
		return nil
	}
	seqs := types.SortedKeys(n.inflight)
	effs := make([]consensus.Effect, 0, len(seqs))
	for _, seq := range seqs {
		effs = append(effs, consensus.CancelTimer{Kind: TimerInstance, Key: uint64(seq)})
	}
	n.inflight = make(map[types.SeqNum]*replInstance)
	return effs
}

// --- Phase 1: ordering (§4.3) -------------------------------------------------

// onOrd handles the leader's ordering message at a follower.
func (n *Node) onOrd(now time.Duration, m *types.Ord) []consensus.Effect {
	v := n.View()
	if m.V < v {
		return nil // never respond to a lower view (§4.3)
	}
	if m.V > v {
		// We are stale in view changes; catch up from the sender.
		return n.startSync(m.From, types.SyncVc, uint64(v), uint64(m.V), m)
	}
	if m.From != n.store.CurrentLeader() || n.state != Follower || n.replStopped {
		return nil
	}
	if !n.cfg.Registry.VerifyServer(m.From, m.SigningBytes(), m.Sig) {
		return nil
	}
	height := n.store.TxHeight()
	if m.N <= height {
		return nil // already committed
	}
	// Pipelined chaining: the proposal must extend either the committed tip
	// (m.N == height+1) or a prepared-but-uncommitted predecessor in the
	// replication window, through the predecessor's predicted hash. A gap —
	// no prepared m.N-1 — means a predecessor Ord was lost or we are behind;
	// the proposal is dropped and the chain catches up through the committed
	// TxBlockMsg path (onTxBlock syncs across real gaps). Syncing here would
	// request blocks the leader may not have committed yet, which no peer
	// could serve.
	var prevHash types.Digest
	if m.N == height+1 {
		prevHash = n.store.LatestTxBlock().Hash()
	} else if prev, ok := n.prepared[m.N-1]; ok {
		prevHash = prev.predHash
	} else {
		// Ahead of our prepared chain: the predecessor's Ord is missing
		// (lost, reordered, or refused). Buffer the proposal and replay it
		// the moment the predecessor prepares or commits — far sooner than
		// the leader's retransmission cycle. Syncing here would be wrong:
		// the predecessor may not be committed anywhere yet, so no peer
		// could serve it.
		n.stashOrd(m)
		return nil
	}
	if m.Prev != prevHash {
		return nil
	}
	blk := types.TxBlock{
		Header: types.TxBlockHeader{V: m.V, N: m.N, PrevHash: m.Prev, BatchLen: uint32(len(m.Txs))},
		Txs:    m.Txs,
	}
	digest := blk.ContentDigest()
	// Lock rule: once this server holds an ordering_QC for a block at this
	// sequence number (the slot is "locked", see onCmt/onAdopt), it never
	// ordering-votes for conflicting content there. A block that reached a
	// commit_QC anywhere was locked at ≥ f+1 correct servers, so a
	// conflicting proposal can gather at most 2f votes — this is what makes
	// the committed prefix survive leader changes with a window in flight.
	// A lock is replaced only by an Adopt carrying an equal-or-higher-view
	// ordering_QC, or released once it is orphaned (lockOrphaned).
	if prep, ok := n.prepared[m.N]; ok && !prep.block.OrderingQC.IsZero() && prep.digest != digest {
		if !n.lockOrphaned(prep) {
			return nil
		}
		delete(n.prepared, m.N)
	}
	// "Verify that n has not been used" — at most one ordering vote per
	// sequence number per view. A retransmitted Ord for the block we already
	// voted re-sends the identical reply (the vote, not a new one); a
	// conflicting proposal at a used sequence number is dropped.
	if usedV, used := n.ordVoted[m.N]; used && usedV == m.V {
		prep, ok := n.prepared[m.N]
		if !ok || prep.digest != digest {
			return nil
		}
	} else {
		n.ordVoted[m.N] = m.V
		n.prepared[m.N] = &pendingProposal{block: blk, digest: digest, predHash: blk.PredictedHash()}
	}
	rep := &types.OrdReply{From: n.cfg.ID, V: m.V, N: m.N, D: digest}
	rep.Sig = n.sign(rep.SigningBytes())
	effs := []consensus.Effect{consensus.Send{To: m.From, Msg: rep}}
	// A successor may have been stashed while this slot was missing.
	effs = append(effs, n.drainOrdStash(now, m.N+1)...)
	return effs
}

// lockOrphaned reports whether a locked slot can be released because the
// chain it belongs to is dead: its sequence number's predecessor has
// committed as a *different* block than the locked block chains from. A
// locked block is only ever applied after its predecessor, and conflicting
// commits at the predecessor's height are impossible (safety below this
// slot), so an orphaned lock provably protects a block that was never
// applied anywhere — holding it would wedge the slot forever (no quorum
// could form past f+1 stale lockers, and no superseding certificate could
// ever be produced).
func (n *Node) lockOrphaned(prep *pendingProposal) bool {
	seq := prep.block.Header.N
	if seq != n.store.TxHeight()+1 {
		return false // predecessor not committed yet; cannot judge
	}
	return prep.block.Header.PrevHash != n.store.LatestTxBlock().Hash()
}

// ordStashLimit bounds the out-of-order proposal buffer.
const ordStashLimit = 256

// stashOrd buffers a proposal that arrived ahead of its predecessor.
func (n *Node) stashOrd(m *types.Ord) {
	if len(n.ordStash) >= ordStashLimit {
		return
	}
	n.ordStash[m.N] = m
}

// drainOrdStash replays buffered proposals in sequence order starting at
// next. onOrd re-validates each from scratch (view, chaining, locks), so a
// stale or equivocating stashed entry is simply discarded.
func (n *Node) drainOrdStash(now time.Duration, next types.SeqNum) []consensus.Effect {
	var effs []consensus.Effect
	for {
		m, ok := n.ordStash[next]
		if !ok {
			return effs
		}
		delete(n.ordStash, next)
		effs = append(effs, n.onOrd(now, m)...)
		next++
	}
}

// onOrdReply assembles ordering_QC at the leader. Replies are routed to
// their instance by sequence number, so every window slot gathers votes
// concurrently.
func (n *Node) onOrdReply(now time.Duration, m *types.OrdReply) []consensus.Effect {
	inst := n.inflight[m.N]
	if inst == nil || inst.cmtColl != nil {
		return nil
	}
	if m.V != inst.block.Header.V || m.D != inst.digest {
		return nil
	}
	if !inst.ordColl.Add(n.cfg.Registry, m.From, m.Sig) {
		return nil
	}
	ordQC := inst.ordColl.QC()
	inst.block.OrderingQC = ordQC
	inst.cmtColl = quorum.NewCollector(types.QCCommit, m.V, m.N, ordQC.Digest, n.quorumSize())
	n.voteOwn(inst.cmtColl)
	cmt := &types.Cmt{From: n.cfg.ID, V: m.V, N: m.N, OrderingQC: ordQC}
	cmt.Sig = n.sign(cmt.SigningBytes())
	return []consensus.Effect{consensus.Broadcast{Msg: cmt}}
}

// --- Phase 2: commit ----------------------------------------------------------

// onCmt verifies ordering_QC and replies with a commit vote.
func (n *Node) onCmt(now time.Duration, m *types.Cmt) []consensus.Effect {
	if m.V != n.View() || m.From != n.store.CurrentLeader() || n.state != Follower || n.replStopped {
		return nil
	}
	prep, ok := n.prepared[m.N]
	if !ok || prep.block.Header.V != m.V {
		return nil
	}
	if m.OrderingQC.Kind != types.QCOrdering || m.OrderingQC.View != m.V ||
		m.OrderingQC.Seq != m.N || m.OrderingQC.Digest != prep.digest {
		return nil
	}
	if err := n.cfg.Registry.VerifyQC(&m.OrderingQC, n.quorumSize()); err != nil {
		return nil
	}
	if !n.cfg.Registry.VerifyServer(m.From, m.SigningBytes(), m.Sig) {
		return nil
	}
	// Storing the ordering_QC locks the slot: from here on this server
	// refuses conflicting proposals at this sequence number (see onOrd) and
	// carries the certified block as evidence in its election votes, which
	// is what lets a new leader adopt the old leader's in-flight window.
	prep.block.OrderingQC = m.OrderingQC
	rep := &types.CmtReply{From: n.cfg.ID, V: m.V, N: m.N, D: prep.digest}
	rep.Sig = n.sign(rep.SigningBytes())
	return []consensus.Effect{consensus.Send{To: m.From, Msg: rep}}
}

// onAdopt handles the new leader's re-proposal of a certified block from an
// earlier view (view-change window adoption). The attached ordering_QC
// replaces the Ordering phase: after verifying it — and the chain linkage —
// the follower locks the slot and answers with a CmtReply over the block's
// original commit statement, so the resulting commit_QC (and therefore the
// block hash) is identical to what the previous leader would have produced.
func (n *Node) onAdopt(now time.Duration, m *types.Adopt) []consensus.Effect {
	v := n.View()
	if m.V < v {
		return nil
	}
	if m.V > v {
		// We are stale in view changes; catch up from the sender.
		return n.startSync(m.From, types.SyncVc, uint64(v), uint64(m.V), m)
	}
	if m.From != n.store.CurrentLeader() || n.state != Follower || n.replStopped {
		return nil
	}
	if !n.cfg.Registry.VerifyServer(m.From, m.SigningBytes(), m.Sig) {
		return nil
	}
	blk := m.Block
	blk.CommitQC = types.QC{} // the commit certificate is what adoption produces
	seq := blk.Header.N
	digest := blk.ContentDigest()
	qc := blk.OrderingQC
	if qc.Kind != types.QCOrdering || qc.Seq != seq || qc.View != blk.Header.V || qc.Digest != digest {
		return nil
	}
	if err := n.cfg.Registry.VerifyQC(&qc, n.quorumSize()); err != nil {
		return nil
	}
	height := n.store.TxHeight()
	if seq <= height {
		// Already committed here. Re-vote only for the identical block,
		// helping the leader finish an instance some server already learned.
		cb := n.store.TxBlock(seq)
		if cb == nil || cb.ContentDigest() != digest {
			return nil
		}
	} else {
		var prevHash types.Digest
		if seq == height+1 {
			prevHash = n.store.LatestTxBlock().Hash()
		} else if prev, ok := n.prepared[seq-1]; ok {
			prevHash = prev.predHash
		} else {
			return nil
		}
		if blk.Header.PrevHash != prevHash {
			return nil
		}
		// A held lock is only replaced by an equal-or-higher-view
		// certificate (certificate supersession; prevents replay of a
		// superseded slot) — or released outright once orphaned.
		if prep, ok := n.prepared[seq]; ok && !prep.block.OrderingQC.IsZero() &&
			prep.digest != digest && qc.View < prep.block.OrderingQC.View &&
			!n.lockOrphaned(prep) {
			return nil
		}
		n.prepared[seq] = &pendingProposal{block: blk, digest: digest, predHash: blk.PredictedHash()}
	}
	rep := &types.CmtReply{From: n.cfg.ID, V: blk.Header.V, N: seq, D: digest}
	rep.Sig = n.sign(rep.SigningBytes())
	effs := []consensus.Effect{consensus.Send{To: m.From, Msg: rep}}
	effs = append(effs, n.drainOrdStash(now, seq+1)...)
	return effs
}

// onCmtReply assembles commit_QC at the leader. The quorum for any window
// slot may complete first, but blocks are applied strictly in sequence
// order: an out-of-order completion parks (commit_QC stored on the
// instance) until every predecessor has committed, preserving the exact
// client-notification and ledger semantics of the stop-and-wait protocol.
func (n *Node) onCmtReply(now time.Duration, m *types.CmtReply) []consensus.Effect {
	inst := n.inflight[m.N]
	if inst == nil || inst.cmtColl == nil || inst.committed() {
		return nil
	}
	if m.V != inst.block.Header.V || m.D != inst.digest {
		return nil
	}
	if !inst.cmtColl.Add(n.cfg.Registry, m.From, m.Sig) {
		return nil
	}
	inst.block.CommitQC = inst.cmtColl.QC()
	effs := []consensus.Effect{consensus.CancelTimer{Kind: TimerInstance, Key: uint64(m.N)}}
	effs = append(effs, n.applyCommittedPrefix()...)
	// Refill the window from the queue.
	effs = append(effs, n.maybeStartInstance(now)...)
	return effs
}

// applyCommittedPrefix drains the contiguous committed prefix of the window
// bottom-up: append to the ledger, notify clients, broadcast the finished
// txBlock. It stops at the first slot still gathering votes.
func (n *Node) applyCommittedPrefix() []consensus.Effect {
	var effs []consensus.Effect
	for {
		next := n.store.TxHeight() + 1
		inst, ok := n.inflight[next]
		if !ok || !inst.committed() {
			return effs
		}
		delete(n.inflight, next)
		// Both certificates are this node's own work — collectors it seeded
		// with its own vote and fed verified replies (or, for an adopted
		// block, an ordering_QC it verified when it locked it) — so the
		// append checks chain linkage only; re-verifying them would spend an
		// ed25519 verify per QC on this node's own signature.
		if err := n.store.AppendTxBlockUnchecked(n.cfg.Registry, inst.block); err != nil {
			// Should be impossible (the block extends our own tip). Nothing
			// above the failed block can chain anymore: drop the window and
			// let the next proposal — or a view change — restart cleanly.
			effs = append(effs, n.dropWindow()...)
			return effs
		}
		committed := n.store.LatestTxBlock() // the stored copy carries Status
		effs = append(effs, n.recordCommit(committed)...)
		msg := &types.TxBlockMsg{From: n.cfg.ID, Block: *committed}
		msg.Sig = n.sign(msg.SigningBytes())
		effs = append(effs, consensus.Broadcast{Msg: msg})
		effs = append(effs, consensus.Commit{Block: committed})
		effs = append(effs, n.maybeCheckpoint()...)
	}
}

// onTxBlock commits a finished block at a follower ("Terminating consensus
// instance": verify the txBlock, then notify the client).
func (n *Node) onTxBlock(now time.Duration, m *types.TxBlockMsg) []consensus.Effect {
	blk := &m.Block
	height := n.store.TxHeight()
	if blk.Header.N <= height {
		return nil
	}
	if blk.Header.N > height+1 {
		return n.startSync(m.From, types.SyncTx, uint64(height), uint64(blk.Header.N-1), m)
	}
	if err := n.store.AppendTxBlock(n.cfg.Registry, blk); err != nil {
		return nil
	}
	committed := n.store.LatestTxBlock()
	var effs []consensus.Effect
	effs = append(effs, n.recordCommit(committed)...)
	effs = append(effs, consensus.Commit{Block: committed})
	effs = append(effs, n.maybeCheckpoint()...)
	// The next proposal may be waiting in the out-of-order buffer.
	effs = append(effs, n.drainOrdStash(now, committed.Header.N+1)...)
	return effs
}

// recordCommit updates commit bookkeeping and emits client notifications
// for every transaction in the block — under one signature: the block's
// (digest, status) pairs become the leaves of a Merkle tree, the replica
// signs the root once, and each Notif carries that signature plus its own
// leaf's path (types/notifproof.go). Every commit path (leader apply,
// follower TxBlockMsg, sync replay) ends here.
func (n *Node) recordCommit(blk *types.TxBlock) []consensus.Effect {
	seq, v := blk.Header.N, n.View()
	digests := make([]types.Digest, len(blk.Txs))
	leaves := make([]types.Digest, len(blk.Txs))
	for i := range blk.Txs {
		digests[i] = blk.Txs[i].Digest()
		leaves[i] = types.NotifLeaf(digests[i], txStatus(blk, i))
	}
	root, paths := types.NotifProofs(leaves)
	leader := n.store.CurrentLeader()
	sig := n.sign(types.NotifStatement(n.cfg.ID, leader, v, seq, root))
	effs := make([]consensus.Effect, 0, len(digests))
	for i, d := range digests {
		status := txStatus(blk, i)
		n.committedTx[d] = txOutcome{seq: seq, status: status}
		delete(n.pendingByDigest, d)
		effs = append(effs, consensus.SendClient{To: blk.Txs[i].Client, Msg: &types.Notif{
			From: n.cfg.ID, Leader: leader, V: v, N: seq, TxD: d, Status: status,
			Index: uint32(i), Path: paths[i], Sig: sig,
		}})
		// A commit settles any pending complaint for the transaction.
		if _, ok := n.compts[d]; ok {
			effs = append(effs, consensus.CancelTimer{Kind: TimerCompt, Key: timerKeyFromDigest(d)})
			delete(n.compts, d)
		}
	}
	delete(n.ordVoted, seq)
	delete(n.prepared, seq)
	delete(n.ordStash, seq)
	return effs
}

// txStatus is transaction i's consensus result; a block without a Status
// entry for it (never produced by the ledger) reads as accepted.
func txStatus(blk *types.TxBlock, i int) bool {
	return i >= len(blk.Status) || blk.Status[i]
}

// renotify answers a re-sent proposal or complaint for a transaction that
// already committed: a Notif for that transaction alone (the one-leaf tree),
// carrying the result the block recorded.
func (n *Node) renotify(client types.ClientID, d types.Digest, out txOutcome) consensus.Effect {
	notif := &types.Notif{From: n.cfg.ID, Leader: n.store.CurrentLeader(), V: n.View(), N: out.seq, TxD: d, Status: out.status}
	notif.Sig = n.sign(notif.SigningBytes())
	return consensus.SendClient{To: client, Msg: notif}
}
