package hotstuff

import (
	"time"

	"prestigebft/internal/consensus"
	"prestigebft/internal/quorum"
	"prestigebft/internal/types"
)

// --- Client intake ------------------------------------------------------------

func (r *Replica) onProp(now time.Duration, m *types.Prop) []consensus.Effect {
	if m.Tx.Digest() != m.D {
		return nil
	}
	if !r.cfg.Registry.VerifyClient(m.Tx.Client, m.SigningBytes(), m.Sig) {
		return nil
	}
	if seq, ok := r.committedTx[m.D]; ok {
		return []consensus.Effect{r.notifyClient(m.Tx.Client, seq, m.D)}
	}
	if r.active && r.isLeader() {
		return r.enqueue(now, m)
	}
	r.propSeen[m.D] = m
	return nil
}

func (r *Replica) onCompt(now time.Duration, m *types.Compt) []consensus.Effect {
	prop := &m.Prop
	d := prop.Tx.Digest()
	if d != prop.D || !r.cfg.Registry.VerifyClient(prop.Tx.Client, prop.SigningBytes(), prop.Sig) {
		return nil
	}
	if seq, ok := r.committedTx[d]; ok {
		return []consensus.Effect{r.notifyClient(prop.Tx.Client, seq, d)}
	}
	if r.active && r.isLeader() {
		return r.enqueue(now, prop)
	}
	var effs []consensus.Effect
	if !r.comptSeen[d] {
		r.comptSeen[d] = true
		effs = append(effs, consensus.Send{To: r.leader(), Msg: m})
		effs = append(effs, consensus.SetTimer{
			Kind: TimerCompt, Key: uint64(r.view), Delay: r.cfg.ViewTimeout,
		})
	}
	return effs
}

func (r *Replica) enqueue(now time.Duration, m *types.Prop) []consensus.Effect {
	if r.pendingByDigest[m.D] {
		return nil
	}
	r.pendingByDigest[m.D] = true
	r.pending = append(r.pending, m.Tx)
	effs := r.maybePropose(now, false)
	if !r.batchArmed && (len(r.pending) > 0 || r.inflight != nil) {
		r.batchArmed = true
		effs = append(effs, consensus.SetTimer{Kind: TimerBatch, Key: 0, Delay: r.cfg.BatchTimeout})
	}
	return effs
}

// maybePropose starts the Prepare phase for the next decision: the block a
// quorum may be locked on at the next seq if the leader learned of one,
// otherwise the next batch.
func (r *Replica) maybePropose(now time.Duration, flush bool) []consensus.Effect {
	if !r.active || !r.isLeader() || r.inflight != nil {
		return nil
	}
	if blk := r.highLocked; blk != nil && blk.Header.N == r.store.TxHeight()+1 &&
		blk.Header.PrevHash == r.store.LatestTxBlock().Hash() {
		// Its requests leave the queue as a cut batch's would.
		in := make(map[types.Digest]bool, len(blk.Txs))
		for i := range blk.Txs {
			in[blk.Txs[i].Digest()] = true
		}
		kept := r.pending[:0]
		for i := range r.pending {
			if !in[r.pending[i].Digest()] {
				kept = append(kept, r.pending[i])
			}
		}
		r.pending = kept
		return r.propose(&types.TxBlock{Header: blk.Header, Txs: blk.Txs}, r.highLock)
	}
	if len(r.pending) == 0 || (!flush && len(r.pending) < r.cfg.BatchSize) {
		return nil
	}
	batch := r.pending
	if len(batch) > r.cfg.BatchSize {
		batch = batch[:r.cfg.BatchSize]
		r.pending = append([]types.Transaction(nil), r.pending[r.cfg.BatchSize:]...)
	} else {
		r.pending = nil
	}
	prev := r.store.LatestTxBlock()
	blk := &types.TxBlock{
		Header: types.TxBlockHeader{
			V: r.view, N: prev.Header.N + 1, PrevHash: prev.Hash(), BatchLen: uint32(len(batch)),
		},
		Txs: batch,
	}
	return r.propose(blk, types.QC{})
}

// propose opens the Prepare phase for blk; justify is blk's PreCommit
// certificate when blk is re-proposed from an earlier view. Every
// certificate over blk carries blk's own view, so however many leaders
// drive it, its commit certificate — and so its hash — is the same.
func (r *Replica) propose(blk *types.TxBlock, justify types.QC) []consensus.Effect {
	digest := blk.ContentDigest()
	inst := &instance{
		block:  blk,
		digest: digest,
		phase:  PhasePrepare,
		coll:   quorum.NewCollector(PhasePrepare.qcKind(), blk.Header.V, blk.Header.N, digest, types.QuorumSize(r.cfg.N)),
	}
	inst.coll.Add(r.cfg.Registry, r.cfg.ID, r.cfg.Keys.Sign(inst.coll.Statement()))
	r.inflight = inst
	r.prepared[blk.Header.N] = blk
	prep := &Prepare{From: r.cfg.ID, V: r.view, N: blk.Header.N, Prev: blk.Header.PrevHash, Txs: blk.Txs, Justify: justify}
	prep.Sig = r.cfg.Keys.Sign(prep.SigningBytes())
	return []consensus.Effect{consensus.Broadcast{Msg: prep}}
}

// --- Follower phase handling ----------------------------------------------------

func (r *Replica) onPrepare(now time.Duration, m *Prepare) []consensus.Effect {
	if m.V < r.view || m.From != LeaderOf(m.V, r.cfg.N) {
		return nil
	}
	if !r.cfg.Registry.VerifyServer(m.From, m.SigningBytes(), m.Sig) {
		return nil
	}
	var effs []consensus.Effect
	if m.V > r.view {
		// The cluster moved on without us; adopt the higher view.
		// (Blocks still commit only through QCs.)
		r.view = m.V
		r.inflight = nil
		effs = r.armTimers()
	}
	height := r.store.TxHeight()
	if m.N <= height {
		return effs
	}
	if m.N > height+1 {
		req := &types.SyncReq{From: r.cfg.ID, Kind: types.SyncTx, Start: uint64(height), End: uint64(m.N - 1)}
		return append(effs, consensus.Send{To: m.From, Msg: req})
	}
	if m.Prev != r.store.LatestTxBlock().Hash() {
		return effs
	}
	blk := m.Block()
	digest := blk.ContentDigest()
	if !m.Justify.IsZero() && (m.Justify.Kind != PhasePreCommit.qcKind() || m.Justify.Seq != m.N ||
		m.Justify.Digest != digest || r.cfg.Registry.VerifyQC(&m.Justify, types.QuorumSize(r.cfg.N)) != nil) {
		return effs
	}
	// Safety: locked on another block at this seq, vote only when a later
	// view's PreCommit certificate justifies the proposal.
	if r.lockedQC.Seq == m.N && r.lockedQC.Digest != digest && m.Justify.View <= r.lockedQC.View {
		return effs
	}
	key := phaseKey{m.V, m.N, PhasePrepare}
	if r.votedPhase[key] {
		return effs
	}
	r.votedPhase[key] = true
	r.prepared[m.N] = blk
	// A valid proposal is progress: reset the pacemaker.
	effs = append(effs, consensus.SetTimer{Kind: TimerView, Key: uint64(r.view), Delay: r.cfg.ViewTimeout})
	return append(effs, r.vote(PhasePrepare, blk.Header.V, m.N, digest)...)
}

// onPhaseAnnounce handles PreCommit (carrying PrepareQC) and Commit
// (carrying PreCommitQC) announcements.
func (r *Replica) onPhaseAnnounce(now time.Duration, m *PhaseAnnounce) []consensus.Effect {
	if m.V != r.view || m.From != r.leader() {
		return nil
	}
	blk, ok := r.prepared[m.N]
	if !ok {
		return nil
	}
	digest := blk.ContentDigest()
	if m.QC.Digest != digest {
		return nil
	}
	var wantQC types.QCKind
	switch m.Phase {
	case PhasePreCommit:
		wantQC = PhasePrepare.qcKind()
	case PhaseCommit:
		wantQC = PhasePreCommit.qcKind()
	default:
		return nil
	}
	if m.QC.Kind != wantQC || m.QC.View != blk.Header.V || m.QC.Seq != m.N {
		return nil
	}
	if err := r.cfg.Registry.VerifyQC(&m.QC, types.QuorumSize(r.cfg.N)); err != nil {
		return nil
	}
	if !r.cfg.Registry.VerifyServer(m.From, m.SigningBytes(), m.Sig) {
		return nil
	}
	key := phaseKey{m.V, m.N, m.Phase}
	if r.votedPhase[key] {
		return nil
	}
	r.votedPhase[key] = true
	switch m.Phase {
	case PhasePreCommit:
		blk.OrderingQC = m.QC // PrepareQC rides in the block
	case PhaseCommit:
		r.lockedQC = m.QC // lock on the PreCommit certificate
	}
	return r.vote(m.Phase, blk.Header.V, m.N, digest)
}

// vote signs a phase vote for the block at seq n, proposed in view v.
func (r *Replica) vote(phase Phase, v types.View, n types.SeqNum, d types.Digest) []consensus.Effect {
	vt := &Vote{From: r.cfg.ID, Phase: phase, V: v, N: n, D: d}
	vt.Sig = r.cfg.Keys.Sign(vt.SigningBytes())
	return []consensus.Effect{consensus.Send{To: r.leader(), Msg: vt}}
}

// --- Leader vote collection -----------------------------------------------------

func (r *Replica) onVote(now time.Duration, m *Vote) []consensus.Effect {
	inst := r.inflight
	if inst == nil || m.V != inst.block.Header.V || m.N != inst.block.Header.N || m.D != inst.digest || m.Phase != inst.phase {
		return nil
	}
	if !inst.coll.Add(r.cfg.Registry, m.From, m.Sig) {
		return nil
	}
	qc := inst.coll.QC()
	switch inst.phase {
	case PhasePrepare:
		inst.block.OrderingQC = qc
		inst.phase = PhasePreCommit
		inst.coll = quorum.NewCollector(PhasePreCommit.qcKind(), m.V, m.N, inst.digest, types.QuorumSize(r.cfg.N))
		inst.coll.Add(r.cfg.Registry, r.cfg.ID, r.cfg.Keys.Sign(inst.coll.Statement()))
		ann := &PhaseAnnounce{From: r.cfg.ID, Phase: PhasePreCommit, V: r.view, N: m.N, QC: qc}
		ann.Sig = r.cfg.Keys.Sign(ann.SigningBytes())
		return []consensus.Effect{consensus.Broadcast{Msg: ann}}
	case PhasePreCommit:
		r.lockedQC = qc
		inst.phase = PhaseCommit
		inst.coll = quorum.NewCollector(PhaseCommit.qcKind(), m.V, m.N, inst.digest, types.QuorumSize(r.cfg.N))
		inst.coll.Add(r.cfg.Registry, r.cfg.ID, r.cfg.Keys.Sign(inst.coll.Statement()))
		ann := &PhaseAnnounce{From: r.cfg.ID, Phase: PhaseCommit, V: r.view, N: m.N, QC: qc}
		ann.Sig = r.cfg.Keys.Sign(ann.SigningBytes())
		return []consensus.Effect{consensus.Broadcast{Msg: ann}}
	case PhaseCommit:
		inst.block.CommitQC = qc
		r.inflight = nil
		if err := r.store.AppendTxBlock(r.cfg.Registry, inst.block); err != nil {
			return nil
		}
		committed := r.store.LatestTxBlock()
		var effs []consensus.Effect
		effs = append(effs, r.recordCommit(committed)...)
		dec := &Decide{From: r.cfg.ID, Block: *committed}
		dec.Sig = r.cfg.Keys.Sign(dec.SigningBytes())
		effs = append(effs, consensus.Broadcast{Msg: dec})
		effs = append(effs, consensus.Commit{Block: committed})
		// Progress resets the leader's own pacemaker too.
		effs = append(effs, consensus.SetTimer{Kind: TimerView, Key: uint64(r.view), Delay: r.cfg.ViewTimeout})
		effs = append(effs, r.maybePropose(now, false)...)
		return effs
	}
	return nil
}

// --- Decide and commit ----------------------------------------------------------

func (r *Replica) onDecide(now time.Duration, m *Decide) []consensus.Effect {
	blk := &m.Block
	height := r.store.TxHeight()
	if blk.Header.N <= height {
		return nil
	}
	if !r.cfg.Registry.VerifyServer(m.From, m.SigningBytes(), m.Sig) {
		return nil
	}
	if blk.Header.N > height+1 {
		req := &types.SyncReq{From: r.cfg.ID, Kind: types.SyncTx, Start: uint64(height), End: uint64(blk.Header.N - 1)}
		return []consensus.Effect{consensus.Send{To: m.From, Msg: req}}
	}
	if err := r.store.AppendTxBlock(r.cfg.Registry, blk); err != nil {
		return nil
	}
	committed := r.store.LatestTxBlock()
	effs := r.recordCommit(committed)
	effs = append(effs, consensus.Commit{Block: committed})
	// Progress resets the pacemaker.
	effs = append(effs, consensus.SetTimer{Kind: TimerView, Key: uint64(r.view), Delay: r.cfg.ViewTimeout})
	return effs
}

func (r *Replica) recordCommit(blk *types.TxBlock) []consensus.Effect {
	var effs []consensus.Effect
	for i := range blk.Txs {
		tx := &blk.Txs[i]
		d := tx.Digest()
		r.committedTx[d] = blk.Header.N
		delete(r.pendingByDigest, d)
		delete(r.propSeen, d)
		if r.comptSeen[d] {
			delete(r.comptSeen, d)
			effs = append(effs, consensus.CancelTimer{Kind: TimerCompt, Key: uint64(r.view)})
		}
		effs = append(effs, r.notifyClient(tx.Client, blk.Header.N, d))
	}
	for k := range r.votedPhase {
		if k.n == blk.Header.N {
			delete(r.votedPhase, k)
		}
	}
	delete(r.prepared, blk.Header.N)
	return effs
}

func (r *Replica) notifyClient(client types.ClientID, seq types.SeqNum, d types.Digest) consensus.Effect {
	notif := &types.Notif{From: r.cfg.ID, V: r.view, N: seq, TxD: d, Status: true}
	notif.Sig = r.cfg.Keys.Sign(notif.SigningBytes())
	return consensus.SendClient{To: client, Msg: notif}
}

// --- Sync -----------------------------------------------------------------------

func (r *Replica) onSyncReq(m *types.SyncReq) []consensus.Effect {
	if m.Kind != types.SyncTx {
		return nil
	}
	resp := &types.SyncResp{From: r.cfg.ID, Kind: types.SyncTx,
		TxBlocks: r.store.TxRange(types.SeqNum(m.Start+1), types.SeqNum(m.End))}
	if len(resp.TxBlocks) == 0 {
		return nil
	}
	return []consensus.Effect{consensus.Send{To: m.From, Msg: resp}}
}

func (r *Replica) onSyncResp(now time.Duration, m *types.SyncResp) []consensus.Effect {
	var effs []consensus.Effect
	for i := range m.TxBlocks {
		blk := m.TxBlocks[i]
		if blk.Header.N <= r.store.TxHeight() {
			continue
		}
		if err := r.store.AppendTxBlock(r.cfg.Registry, &blk); err != nil {
			break
		}
		committed := r.store.LatestTxBlock()
		effs = append(effs, r.recordCommit(committed)...)
		effs = append(effs, consensus.Commit{Block: committed})
	}
	return effs
}
