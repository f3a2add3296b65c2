package core

import (
	"time"

	"prestigebft/internal/consensus"
	"prestigebft/internal/quorum"
	"prestigebft/internal/types"
)

// --- SyncUp (§4.2.3) ---------------------------------------------------------
//
// Stale servers acquire missing blocks from a more up-to-date peer and
// validate them through their QCs; blocks are self-certifying, so the peer
// need not be trusted. The Algorithm 2 pseudocode is synchronous; this
// implementation issues a SyncReq, stashes the message that exposed the
// staleness, and replays stashed traffic once the chains catch up.

// startSync requests blocks of the given kind in (start, end] from peer.
// trigger, if non-nil, is replayed after the sync completes. Every sync is
// bounded by TimerSync: a lost request or response must not wedge the node
// in the syncing state (it stashes all other traffic — including election
// votes — so a silent wedge would take the server out of the cluster).
func (n *Node) startSync(peer types.ServerID, kind types.SyncKind, start, end uint64, trigger types.Message) []consensus.Effect {
	if trigger != nil && len(n.syncStash) < 4096 {
		n.syncStash = append(n.syncStash, stashedMsg{consensus.FromServer(peer), trigger})
	}
	if n.syncing {
		return nil // one sync at a time; the stash replay will re-trigger
	}
	n.syncing = true
	n.syncFrom = peer
	n.syncToken++
	req := &types.SyncReq{From: n.cfg.ID, Kind: kind, Start: start, End: end}
	return []consensus.Effect{
		n.trace(consensus.TraceSyncUp, n.View(), int64(end-start)),
		consensus.Send{To: peer, Msg: req},
		consensus.SetTimer{Kind: TimerSync, Key: n.syncToken, Delay: syncTimeout},
	}
}

// onSyncTimeout abandons a sync whose response never arrived and replays the
// stash; replayed messages typically expose the staleness again and retry
// the sync (possibly against a different, reachable peer).
func (n *Node) onSyncTimeout(now time.Duration, token uint64) []consensus.Effect {
	if !n.syncing || token != n.syncToken {
		return nil
	}
	n.syncing = false
	n.syncFrom = 0
	return n.replaySyncStash(now)
}

// replaySyncStash re-delivers the messages stashed while syncing. If a
// replayed message starts another sync, the remaining entries flow back into
// the stash through OnMessage's syncing path instead of being dropped.
func (n *Node) replaySyncStash(now time.Duration) []consensus.Effect {
	stash := n.syncStash
	n.syncStash = nil
	var effs []consensus.Effect
	for _, s := range stash {
		effs = append(effs, n.OnMessage(now, s.from, s.msg)...)
	}
	return effs
}

// onSyncReq serves a peer's block request from the local chains. When the
// requester's gap starts below our log base — the history it wants was
// compacted away — the response carries the certified snapshot plus only the
// retained tail: the snapshot sync handshake of DESIGN.md §10.
func (n *Node) onSyncReq(now time.Duration, m *types.SyncReq) []consensus.Effect {
	resp := &types.SyncResp{From: n.cfg.ID, Kind: m.Kind}
	switch m.Kind {
	case types.SyncTx:
		if types.SeqNum(m.Start) < n.store.LogBase() {
			resp.Snapshot = n.store.SnapshotPackage()
		}
		resp.TxBlocks = n.store.TxRange(types.SeqNum(m.Start+1), types.SeqNum(m.End))
	case types.SyncVc:
		resp.VcBlocks = n.store.VcRangeAfter(types.View(m.Start), types.View(m.End))
	default:
		return nil
	}
	if len(resp.TxBlocks) == 0 && len(resp.VcBlocks) == 0 && resp.Snapshot == nil {
		return nil
	}
	return []consensus.Effect{consensus.Send{To: m.From, Msg: resp}}
}

// onSyncResp validates and applies fetched blocks, then replays stashed
// messages.
func (n *Node) onSyncResp(now time.Duration, m *types.SyncResp) []consensus.Effect {
	if !n.syncing || m.From != n.syncFrom {
		return nil
	}
	effs := []consensus.Effect{consensus.CancelTimer{Kind: TimerSync, Key: n.syncToken}}
	// Validate all blocks through their QCs (the SyncUp function of
	// §4.2.3), then adopt.
	for i := range m.VcBlocks {
		blk := m.VcBlocks[i]
		if blk.V <= n.store.CurrentView() {
			continue
		}
		if err := n.store.AppendVcBlock(n.cfg.Registry, &blk); err != nil {
			break // chain mismatch; stop adopting
		}
		effs = append(effs, n.trace(consensus.TraceViewInstalled, blk.V, int64(blk.LeaderID)))
		effs = append(effs, n.retryDeferredCheckpoint()...)
	}
	// Snapshot catch-up: our gap starts below the peer's log base, so the
	// response carries the certified checkpoint state instead of the pruned
	// blocks. Install it (every component verifies against the certificate
	// or its own QCs — ledger.Store.InstallSnapshot), then replay only the
	// retained tail below: O(CheckpointInterval) instead of O(history).
	if m.Snapshot != nil && m.Snapshot.Cert.Header.Seq > n.store.TxHeight() {
		if err := n.store.InstallSnapshot(n.cfg.Registry, m.Snapshot); err == nil {
			n.afterSnapshotInstall()
			effs = append(effs, n.trace(consensus.TraceSnapshotInstall, n.View(), int64(n.store.LogBase())))
		} else {
			// A rejected snapshot (bad certificate, tampered state, or a
			// state machine that cannot restore) would otherwise wedge this
			// replica in a silent re-sync loop — the tail below cannot
			// chain onto our stale tip. Surface it to trace observers.
			effs = append(effs, n.trace(consensus.TraceSnapshotReject, n.View(), int64(m.Snapshot.Cert.Header.Seq)))
		}
	}
	for i := range m.TxBlocks {
		blk := m.TxBlocks[i]
		if blk.Header.N <= n.store.TxHeight() {
			continue
		}
		if err := n.store.AppendTxBlock(n.cfg.Registry, &blk); err != nil {
			break
		}
		effs = append(effs, n.recordCommit()...)
		effs = append(effs, consensus.Commit{Block: n.store.LatestTxBlock()})
		effs = append(effs, n.maybeCheckpoint()...)
	}
	// If vcBlocks advanced our view, reset per-view state: any campaign we
	// were running is obsolete (a redeemer/candidate discovering a higher
	// view transitions back to follower).
	if len(m.VcBlocks) > 0 && n.store.CurrentView() > 0 {
		if n.state == Redeemer {
			effs = append(effs, consensus.AbortPuzzle{Token: n.puzzleToken})
			n.state = Follower
		}
		if n.state == Candidate && n.store.CurrentView() >= n.vPrime {
			effs = append(effs, consensus.CancelTimer{Kind: TimerElection, Key: uint64(n.vPrime)})
			n.state = Follower
		}
		n.viewEnteredAt = now
		effs = append(effs, n.armPolicyTimer()...)
	}
	n.syncing = false
	n.syncFrom = 0
	// Replay stashed messages against the updated chains.
	effs = append(effs, n.replaySyncStash(now)...)
	return effs
}

// --- Reputation refresh (§4.2.5) ----------------------------------------------

// maybeRequestRefresh broadcasts a Ref when this server's penalty exceeds
// the threshold π. Called after each view installation.
func (n *Node) maybeRequestRefresh(now time.Duration) []consensus.Effect {
	if n.cfg.RefreshThreshold <= 0 || n.refreshSent {
		return nil
	}
	if n.store.LatestVcBlock().RP[n.cfg.ID] <= n.cfg.RefreshThreshold {
		return nil
	}
	n.refreshSent = true
	ref := &types.Ref{From: n.cfg.ID, V: n.View()}
	ref.Sig = n.sign(ref.SigningBytes())
	// Count our own Ref toward the quorum.
	effs := n.acceptRef(n.cfg.ID, ref.Sig, ref.V)
	effs = append(effs, consensus.Broadcast{Msg: ref})
	return effs
}

// newRefCollector builds the rs_QC collector for view v.
func newRefCollector(n *Node, v types.View) *quorum.Collector {
	return quorum.NewCollector(types.QCRefresh, v, 0, types.Digest{}, n.quorumSize())
}

// onRef collects refresh requests. A server whose own rp exceeded π and
// that observes 2f+1 Refs assembles rs_QC and resets itself.
func (n *Node) onRef(now time.Duration, m *types.Ref) []consensus.Effect {
	if m.V != n.View() {
		return nil
	}
	if !n.cfg.Registry.VerifyServer(m.From, m.SigningBytes(), m.Sig) {
		return nil
	}
	return n.acceptRef(m.From, m.Sig, m.V)
}

func (n *Node) acceptRef(from types.ServerID, sig []byte, v types.View) []consensus.Effect {
	if n.cfg.RefreshThreshold <= 0 {
		return nil
	}
	if n.refColl == nil {
		n.refColl = newRefCollector(n, v)
	}
	n.refColl.Add(n.cfg.Registry, from, sig)
	// 2f+1 Refs collected and we requested a refresh ourselves: reset.
	// (The quorum may complete before or after our own Ref — both orders
	// must finish, hence the explicit count check rather than relying on
	// the collector's once-only threshold trigger.)
	if !n.refreshSent || n.refreshDone || n.refColl.Count() < n.quorumSize() {
		return nil
	}
	n.refreshDone = true
	qc := n.refColl.QC()
	n.store.UpdateReputation(n.cfg.ID, 1, 1)
	rdone := &types.Rdone{From: n.cfg.ID, V: v, RsQC: qc, RP: 1, CI: 1}
	rdone.Sig = n.sign(rdone.SigningBytes())
	return []consensus.Effect{
		n.trace(consensus.TraceRefresh, v, 1),
		consensus.Broadcast{Msg: rdone},
	}
}

// onRdone applies a completed refresh to the sender's reputation entries in
// the current vcBlock.
func (n *Node) onRdone(now time.Duration, m *types.Rdone) []consensus.Effect {
	if n.cfg.RefreshThreshold <= 0 || m.V != n.View() {
		return nil
	}
	if !n.cfg.Registry.VerifyServer(m.From, m.SigningBytes(), m.Sig) {
		return nil
	}
	if m.RsQC.Kind != types.QCRefresh || m.RsQC.View != m.V {
		return nil
	}
	if err := n.cfg.Registry.VerifyQC(&m.RsQC, n.quorumSize()); err != nil {
		return nil
	}
	if m.RP != 1 || m.CI != 1 {
		return nil // refresh resets to the initial values, nothing else
	}
	n.store.UpdateReputation(m.From, m.RP, m.CI)
	return []consensus.Effect{n.trace(consensus.TraceRefresh, m.V, int64(m.From))}
}
