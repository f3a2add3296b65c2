package hotstuff

import (
	"time"

	"prestigebft/internal/consensus"
	"prestigebft/internal/ledger"
	"prestigebft/internal/quorum"
	"prestigebft/internal/types"
)

// --- Client intake ------------------------------------------------------------

func (r *Replica) onProp(now time.Duration, m *types.Prop) []consensus.Effect {
	if !r.cfg.Registry.VerifyProp(m) {
		return nil
	}
	if last, covered := r.store.Covered(m.Tx.Client, m.Tx.Timestamp); covered {
		return []consensus.Effect{r.renotify(m.Tx.Client, last)}
	}
	if r.active && r.isLeader() {
		return r.enqueue(now, m)
	}
	r.propSeen[m.D] = m
	return nil
}

func (r *Replica) onCompt(now time.Duration, m *types.Compt) []consensus.Effect {
	prop := &m.Prop
	if !r.cfg.Registry.VerifyProp(prop) {
		return nil
	}
	d := prop.D
	if last, covered := r.store.Covered(prop.Tx.Client, prop.Tx.Timestamp); covered {
		return []consensus.Effect{r.renotify(prop.Tx.Client, last)}
	}
	if r.active && r.isLeader() {
		return r.enqueue(now, prop)
	}
	var effs []consensus.Effect
	if r.comptSeen[d] != r.view {
		r.comptSeen[d] = r.view
		effs = append(effs, consensus.Send{To: r.leader(), Msg: m})
		effs = append(effs, consensus.SetTimer{
			Kind: TimerCompt, Key: uint64(r.view), Delay: r.cfg.ViewTimeout,
		})
	}
	return effs
}

func (r *Replica) enqueue(now time.Duration, m *types.Prop) []consensus.Effect {
	if !r.queue.Push(m) {
		return nil
	}
	return append(r.maybePropose(now, false), consensus.ArmBatchTimer(&r.queue, TimerBatch)...)
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
		r.queue.Hold(blk.Txs)
		return r.propose(&types.TxBlock{Header: blk.Header, Txs: blk.Txs}, nil, r.highLock)
	}
	if r.queue.Len() == 0 || (!flush && r.queue.Len() < r.cfg.BatchSize) {
		return nil
	}
	txs, sigs := r.queue.Cut(r.cfg.BatchSize)
	prev := r.store.LatestTxBlock()
	blk := &types.TxBlock{
		Header: types.TxBlockHeader{
			V: r.view, N: prev.Header.N + 1, PrevHash: prev.Hash(), BatchLen: uint32(len(txs)),
		},
		Txs: txs,
	}
	return r.propose(blk, sigs, types.QC{})
}

// propose opens the Prepare phase for blk; justify is blk's PreCommit
// certificate when blk is re-proposed from an earlier view, clientSigs its
// clients' signatures otherwise. Every certificate over blk carries blk's
// own view, so however many leaders drive it, its commit certificate — and
// so its hash — is the same.
func (r *Replica) propose(blk *types.TxBlock, clientSigs [][]byte, justify types.QC) []consensus.Effect {
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
	prep := &Prepare{From: r.cfg.ID, V: r.view, N: blk.Header.N, Prev: blk.Header.PrevHash, Txs: blk.Txs, ClientSigs: clientSigs, Justify: justify}
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
		r.queue.Reset()
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
	// A fresh proposal carries its clients' signatures; a re-proposal, the
	// certificate of a quorum that checked them.
	if m.Justify.IsZero() && !r.cfg.Registry.VerifyRequests(m.Txs, m.ClientSigs) ||
		!m.Justify.IsZero() && (m.Justify.Kind != PhasePreCommit.qcKind() || m.Justify.Seq != m.N ||
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
		effs = append(effs, r.recordCommit()...)
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
	effs := r.recordCommit()
	effs = append(effs, consensus.Commit{Block: committed})
	// Progress resets the pacemaker.
	effs = append(effs, consensus.SetTimer{Kind: TimerView, Key: uint64(r.view), Delay: r.cfg.ViewTimeout})
	return effs
}

// recordCommit notifies the client of every transaction in the block just
// appended, under one signature over the block (types.BlockNotifs, with no
// leader hint).
func (r *Replica) recordCommit() []consensus.Effect {
	blk, digests := r.store.LatestTxBlock(), r.store.LatestTxDigests()
	notifs := types.BlockNotifs(r.cfg.ID, 0, r.view, blk.Header.N, digests, blk.Status, r.cfg.Keys.Sign)
	var effs []consensus.Effect
	for i, d := range digests {
		r.queue.Release(d)
		delete(r.propSeen, d)
		if v, ok := r.comptSeen[d]; ok {
			delete(r.comptSeen, d)
			effs = append(effs, consensus.CancelTimer{Kind: TimerCompt, Key: uint64(v)})
		}
		effs = append(effs, consensus.SendClient{To: blk.Txs[i].Client, Msg: &notifs[i]})
	}
	for k := range r.votedPhase {
		if k.n == blk.Header.N {
			delete(r.votedPhase, k)
		}
	}
	delete(r.prepared, blk.Header.N)
	return effs
}

// renotify answers a request the client table covers with the client's
// last request, as the one-leaf block.
func (r *Replica) renotify(client types.ClientID, last ledger.LastRequest) consensus.Effect {
	notif := types.BlockNotifs(r.cfg.ID, 0, r.view, last.Seq, []types.Digest{last.Digest}, []bool{last.Status}, r.cfg.Keys.Sign)
	return consensus.SendClient{To: client, Msg: &notif[0]}
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
		effs = append(effs, r.recordCommit()...)
		effs = append(effs, consensus.Commit{Block: committed})
	}
	return effs
}
