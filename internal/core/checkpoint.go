package core

import (
	"time"

	"prestigebft/internal/consensus"
	"prestigebft/internal/quorum"
	"prestigebft/internal/types"
)

// --- Certified checkpoints and log compaction (DESIGN.md §10) ----------------
//
// Every Config.CheckpointInterval committed sequence numbers, a replica
// captures its ledger state — application state, reputation inputs, and the
// chain anchor — into a CheckpointHeader, broadcasts a signed CkptVote over
// the header's state hash, and collects matching votes. 2f+1 identical
// hashes assemble ckpt_QC; the resulting certificate becomes the new log
// base: the ledger prunes every block below it (ledger.Store.Certify), and
// replicas stuck below the base are served the certified snapshot instead of
// replayed history (sync.go). Checkpoints are pure hygiene on top of the
// replication protocol: they produce no ordering decisions, so a replica
// that misses a round simply keeps more log until the next one closes.

// ckptRound is one open checkpoint vote collection.
type ckptRound struct {
	header types.CheckpointHeader
	state  []byte // encoded application state captured at the boundary
	coll   *quorum.Collector
	vote   *types.CkptVote // our own vote, for warm-reboot re-broadcast
}

// ckptBasis is a boundary capture awaiting the vc chain: the reputation
// digest needs the vcBlock of the anchor's view, which a sync-fed replica
// may not hold yet.
type ckptBasis struct {
	header types.CheckpointHeader
	state  []byte
}

// maybeCheckpoint votes for a checkpoint when the committed height sits
// exactly on an interval boundary. It must run after every single-block
// append (each commit path calls it) because the application state is
// captured live — one block later the boundary state is gone.
func (n *Node) maybeCheckpoint() []consensus.Effect {
	ival := types.SeqNum(n.cfg.CheckpointInterval)
	if ival <= 0 {
		return nil
	}
	h := n.store.TxHeight()
	if h == 0 || h%ival != 0 || h <= n.ckptVoted || h <= n.store.LogBase() {
		return nil
	}
	header, state, ok := n.store.CheckpointBasis()
	if !ok {
		return nil // state machine cannot snapshot; checkpointing is inert
	}
	n.ckptVoted = h
	rd, ok := n.store.RepDigestUpTo(header.View)
	if !ok {
		// Our vc chain trails the block's view (sync-fed commit): keep the
		// captured state and finish the header once the vcBlock arrives.
		n.ckptDeferred = &ckptBasis{header: header, state: state}
		return nil
	}
	header.RepDigest = rd
	return n.openCkptRound(header, state)
}

// retryDeferredCheckpoint completes a deferred boundary capture after the vc
// chain advanced (view installation or vc sync).
func (n *Node) retryDeferredCheckpoint() []consensus.Effect {
	if n.ckptDeferred == nil {
		return nil
	}
	rd, ok := n.store.RepDigestUpTo(n.ckptDeferred.header.View)
	if !ok {
		return nil
	}
	b := n.ckptDeferred
	n.ckptDeferred = nil
	if b.header.Seq <= n.store.LogBase() {
		return nil // a later certificate already moved the base past it
	}
	b.header.RepDigest = rd
	return n.openCkptRound(b.header, b.state)
}

// openCkptRound starts collecting votes for a completed header: sign and
// broadcast our vote, then replay any stashed early votes from peers that
// crossed the boundary before us.
func (n *Node) openCkptRound(header types.CheckpointHeader, state []byte) []consensus.Effect {
	coll := quorum.NewCollector(types.QCCheckpoint, 0, header.Seq, header.StateHash(), n.quorumSize())
	vote := &types.CkptVote{From: n.cfg.ID, Seq: header.Seq, StateHash: header.StateHash()}
	vote.Sig = n.sign(vote.SigningBytes())
	round := &ckptRound{header: header, state: state, coll: coll, vote: vote}
	n.ckptRounds[header.Seq] = round
	n.voteOwn(coll)
	effs := []consensus.Effect{consensus.Broadcast{Msg: vote}}
	stash := n.ckptStash[header.Seq]
	delete(n.ckptStash, header.Seq)
	for _, v := range stash {
		effs = append(effs, n.addCkptVote(round, v)...)
	}
	return effs
}

// onCkptVote routes a peer's checkpoint vote: into the open round for its
// seq, or into the bounded early-vote stash when this replica has not
// reached the boundary yet (routine under pipelining — peers commit the
// boundary block a round trip apart).
func (n *Node) onCkptVote(now time.Duration, m *types.CkptVote) []consensus.Effect {
	if n.cfg.CheckpointInterval <= 0 || m.From == n.cfg.ID {
		return nil
	}
	if m.Seq == 0 || m.Seq%types.SeqNum(n.cfg.CheckpointInterval) != 0 {
		return nil // not an interval boundary: no round can ever open for it
	}
	if m.Seq <= n.store.LogBase() {
		return nil // the base already moved past this round
	}
	if round, ok := n.ckptRounds[m.Seq]; ok {
		return n.addCkptVote(round, m)
	}
	// Early vote. Verify before stashing so the stash can't be flooded with
	// garbage, and cap it at one vote per server.
	horizon := n.store.TxHeight() + types.SeqNum(4*n.cfg.CheckpointInterval)
	if m.Seq > horizon {
		return nil
	}
	for _, v := range n.ckptStash[m.Seq] {
		if v.From == m.From {
			return nil
		}
	}
	if !n.cfg.Registry.VerifyServer(m.From, m.SigningBytes(), m.Sig) {
		return nil
	}
	n.ckptStash[m.Seq] = append(n.ckptStash[m.Seq], m)
	return nil
}

// addCkptVote folds one vote into an open round; the 2f+1st matching vote
// assembles the certificate and compacts the log.
func (n *Node) addCkptVote(round *ckptRound, m *types.CkptVote) []consensus.Effect {
	if m.StateHash != round.vote.StateHash {
		return nil // divergent hash; Add would reject the signature anyway
	}
	if !round.coll.Add(n.cfg.Registry, m.From, m.Sig) {
		return nil
	}
	cert := types.CheckpointCert{Header: round.header, QC: round.coll.QC()}
	return n.applyCheckpoint(cert, round.state)
}

// applyCheckpoint installs an assembled certificate: the ledger prunes below
// the checkpoint and the node drops bookkeeping for the compacted prefix.
func (n *Node) applyCheckpoint(cert types.CheckpointCert, state []byte) []consensus.Effect {
	if err := n.store.Certify(cert, state); err != nil {
		return nil
	}
	n.pruneBelowBase()
	return []consensus.Effect{n.trace(consensus.TraceCheckpoint, n.View(), int64(cert.Header.Seq))}
}

// pruneBelowBase drops the checkpoint bookkeeping that refers to the
// compacted prefix: closed or obsolete rounds, stashed votes and a deferred
// basis. Duplicate detection needs nothing here: the ledger's client table
// is certified state and survives compaction.
func (n *Node) pruneBelowBase() {
	base := n.store.LogBase()
	for seq := range n.ckptRounds {
		if seq <= base {
			delete(n.ckptRounds, seq)
		}
	}
	for seq := range n.ckptStash {
		if seq <= base {
			delete(n.ckptStash, seq)
		}
	}
	if n.ckptDeferred != nil && n.ckptDeferred.header.Seq <= base {
		n.ckptDeferred = nil
	}
	if n.ckptVoted < base {
		n.ckptVoted = base
	}
}

// afterSnapshotInstall resets bookkeeping after the ledger jumped to a
// certified snapshot: everything this replica knew below the new base is
// obsolete (prepared slots, ordering votes, stashed proposals, checkpoint
// rounds), and the checkpoint subsystem restarts from the installed
// certificate — exactly the recovery semantics of a replica rebooting from
// its latest checkpoint.
func (n *Node) afterSnapshotInstall() {
	base := n.store.LogBase()
	for seq := range n.prepared {
		if seq <= base {
			delete(n.prepared, seq)
		}
	}
	for seq := range n.ordVoted {
		if seq <= base {
			delete(n.ordVoted, seq)
		}
	}
	for seq := range n.ordStash {
		if seq <= base {
			delete(n.ordStash, seq)
		}
	}
	n.pruneBelowBase()
}

// sortedCkptRounds returns the open rounds' seqs in ascending order, for
// deterministic effect streams.
func (n *Node) sortedCkptRounds() []types.SeqNum {
	return types.SortedKeys(n.ckptRounds)
}
