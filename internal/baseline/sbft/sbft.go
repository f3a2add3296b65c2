// Package sbft implements a baseline in the style of SBFT (Gueta et al.,
// DSN'19, "sb" in the paper's figures): a linear PBFT descendant that routes
// votes through a collector and uses a dual execution path —
//
//   - fast path: the leader broadcasts a PrePrepare and waits for signature
//     shares from *all* n replicas; one full round commits the batch;
//   - slow path: if the full quorum does not arrive before the fast-path
//     timer, the leader falls back to the classic two-phase commit with
//     2f+1 shares per phase.
//
// Leadership follows the same passive rotation schedule as PBFT/HotStuff.
// The paper measured SBFT's peak at 4,872 TPS — an order of magnitude below
// HotStuff — reflecting its heavyweight threshold cryptography; experiments
// reproduce that by running sbft clusters under a calibrated
// high-cost CPU model (see DESIGN.md §4).
package sbft

import (
	"encoding/binary"
	"math/rand"
	"time"

	"prestigebft/internal/consensus"
	"prestigebft/internal/crypto"
	"prestigebft/internal/ledger"
	"prestigebft/internal/quorum"
	"prestigebft/internal/types"
)

// Timer kinds.
const (
	// TimerView is the pacemaker timeout.
	TimerView consensus.TimerKind = iota + 1
	// TimerBatch flushes a partial batch.
	TimerBatch
	// TimerFast bounds the fast path before falling back to two phases.
	TimerFast
	// TimerPolicy fires the rotation policy.
	TimerPolicy
)

// fastTimeout bounds the fast path.
const fastTimeout = 50 * time.Millisecond

// Config parameterizes a replica.
type Config struct {
	ID       types.ServerID
	N        int
	Keys     *crypto.KeyPair
	Registry *crypto.Registry

	BatchSize   int
	ViewTimeout time.Duration
	// ViewPolicy rotates leadership on a timing policy.
	ViewPolicy time.Duration

	StateMachine ledger.StateMachine
	RNG          *rand.Rand
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.BatchSize == 0 {
		out.BatchSize = 100
	}
	if out.ViewTimeout == 0 {
		out.ViewTimeout = time.Second
	}
	if out.RNG == nil {
		out.RNG = rand.New(rand.NewSource(int64(out.ID)))
	}
	return out
}

// PrePrepare is the leader's batch proposal.
type PrePrepare struct {
	From types.ServerID
	V    types.View
	N    types.SeqNum
	Prev types.Digest
	Txs  []types.Transaction
	// ClientSigs[i] is the client signature of Txs[i] (see types.Ord).
	ClientSigs [][]byte
	// BlockV, when set, re-proposes a block first proposed in that earlier
	// view (see maybePropose); the block keeps its view, so every commit of
	// it has one hash. Zero: the block is new in V.
	BlockV types.View
	Sig    []byte
}

// ProtocolMessage implements types.Message.
func (*PrePrepare) ProtocolMessage() {}

// Block returns the proposed block, without certificates.
func (m *PrePrepare) Block() *types.TxBlock {
	v := m.V
	if m.BlockV != 0 {
		v = m.BlockV
	}
	return &types.TxBlock{Header: types.TxBlockHeader{V: v, N: m.N, PrevHash: m.Prev, BatchLen: uint32(len(m.Txs))}, Txs: m.Txs}
}

// SigningBytes implements types.Signed.
func (m *PrePrepare) SigningBytes() []byte {
	return types.QCStatementBytes(types.QCGeneric, m.V, m.N, m.Block().ContentDigest())
}

// Signature implements types.Signed.
func (m *PrePrepare) Signature() []byte { return m.Sig }

// Share is a replica's signature share sent to the collector (the leader).
type Share struct {
	From  types.ServerID
	Stage uint8 // 1 = sign share (fast/prepare), 2 = commit share (slow path)
	V     types.View
	N     types.SeqNum
	D     types.Digest
	Sig   []byte
}

// ProtocolMessage implements types.Message.
func (*Share) ProtocolMessage() {}

// SigningBytes implements types.Signed.
func (m *Share) SigningBytes() []byte {
	kind := types.QCOrdering
	if m.Stage == 2 {
		kind = types.QCCommit
	}
	return types.QCStatementBytes(kind, m.V, m.N, m.D)
}

// Signature implements types.Signed.
func (m *Share) Signature() []byte { return m.Sig }

// Proof broadcasts an assembled certificate: a FullPrepareProof (stage 1,
// slow path continuation) or FullCommitProof (final; carries the block).
type Proof struct {
	From  types.ServerID
	Stage uint8 // 1 = prepare proof, 2 = commit proof
	Block types.TxBlock
	Sig   []byte
}

// ProtocolMessage implements types.Message.
func (*Proof) ProtocolMessage() {}

// SigningBytes implements types.Signed.
func (m *Proof) SigningBytes() []byte {
	d := m.Block.ContentDigest()
	buf := make([]byte, 0, 10+32)
	buf = append(buf, "sb.proof"...)
	buf = append(buf, m.Stage)
	buf = binary.BigEndian.AppendUint64(buf, uint64(m.Block.Header.N))
	buf = append(buf, d[:]...)
	return buf
}

// Signature implements types.Signed.
func (m *Proof) Signature() []byte { return m.Sig }

// NewView tells the next scheduled leader to take over.
type NewView struct {
	From types.ServerID
	V    types.View
	Sig  []byte
}

// ProtocolMessage implements types.Message.
func (*NewView) ProtocolMessage() {}

// SigningBytes implements types.Signed.
func (m *NewView) SigningBytes() []byte {
	return types.QCStatementBytes(types.QCGeneric, m.V, 0, types.Digest{})
}

// Signature implements types.Signed.
func (m *NewView) Signature() []byte { return m.Sig }

// instance is the leader's in-flight decision.
type instance struct {
	block    *types.TxBlock
	digest   types.Digest
	stage    uint8 // 1 = collecting sign shares, 2 = collecting commit shares
	coll     *quorum.Collector
	fastOpen bool
}

// Replica is one SBFT server.
type Replica struct {
	cfg   Config
	store *ledger.Store
	view  types.View

	queue    types.ProposalQueue
	inflight *instance

	// prepared holds the proposal this replica sent a sign share for, by
	// seq, until that seq commits.
	prepared map[types.SeqNum]*PrePrepare
	// propSeen holds every uncommitted client request this replica has
	// seen, so whichever server the rotation makes leader proposes them.
	propSeen map[types.Digest]*types.Prop
}

// New creates an SBFT replica.
func New(cfg Config) *Replica {
	c := cfg.withDefaults()
	return &Replica{
		cfg:      c,
		store:    ledger.NewStore(c.N, leaderOf(1, c.N), c.StateMachine),
		view:     1,
		prepared: make(map[types.SeqNum]*PrePrepare),
		propSeen: make(map[types.Digest]*types.Prop),
	}
}

func leaderOf(v types.View, n int) types.ServerID {
	return types.ServerID((uint64(v)-1)%uint64(n) + 1)
}

// ID implements consensus.Replica.
func (r *Replica) ID() types.ServerID { return r.cfg.ID }

// View returns the current view.
func (r *Replica) View() types.View { return r.view }

// Store exposes the ledger.
func (r *Replica) Store() *ledger.Store { return r.store }

func (r *Replica) leader() types.ServerID { return leaderOf(r.view, r.cfg.N) }
func (r *Replica) isLeader() bool         { return r.leader() == r.cfg.ID }

// Init implements consensus.Replica.
func (r *Replica) Init(now time.Duration) []consensus.Effect {
	return r.armTimers()
}

func (r *Replica) armTimers() []consensus.Effect {
	effs := []consensus.Effect{
		consensus.SetTimer{Kind: TimerView, Key: uint64(r.view), Delay: r.cfg.ViewTimeout},
	}
	if r.cfg.ViewPolicy > 0 {
		effs = append(effs, consensus.SetTimer{Kind: TimerPolicy, Key: uint64(r.view), Delay: r.cfg.ViewPolicy})
	}
	return effs
}

// OnMessage implements consensus.Replica.
func (r *Replica) OnMessage(now time.Duration, from consensus.Origin, msg types.Message) []consensus.Effect {
	// SBFT speaks its own message set plus the client-facing subset of the
	// core vocabulary.
	//lint:dispatch local prestigebft/internal/types=Prop,Compt
	switch m := msg.(type) {
	case *types.Prop:
		return r.onProp(now, m)
	case *types.Compt:
		return r.onProp(now, &m.Prop)
	case *PrePrepare:
		return r.onPrePrepare(now, m)
	case *Share:
		return r.onShare(now, m)
	case *Proof:
		return r.onProof(now, m)
	case *NewView:
		if m.V > r.view && r.cfg.Registry.VerifyServer(m.From, m.SigningBytes(), m.Sig) {
			return r.enterView(now, m.V)
		}
	}
	return nil
}

// enterView moves to view v. The in-flight decision and the proposal queue
// are abandoned; a replica the rotation makes leader queues every
// uncommitted request it has seen, in digest order.
func (r *Replica) enterView(now time.Duration, v types.View) []consensus.Effect {
	r.view = v
	r.inflight = nil
	r.queue.Reset()
	effs := r.armTimers()
	if !r.isLeader() {
		return effs
	}
	for _, d := range types.SortedDigestKeys(r.propSeen) {
		r.queue.Push(r.propSeen[d])
	}
	effs = append(effs, consensus.ArmBatchTimer(&r.queue, TimerBatch)...)
	return append(effs, r.maybePropose(now, false)...)
}

// OnTimer implements consensus.Replica.
func (r *Replica) OnTimer(now time.Duration, kind consensus.TimerKind, key uint64) []consensus.Effect {
	switch kind {
	case TimerView, TimerPolicy:
		if types.View(key) != r.view {
			return nil
		}
		nv := &NewView{From: r.cfg.ID, V: r.view + 1}
		nv.Sig = r.cfg.Keys.Sign(nv.SigningBytes())
		return append([]consensus.Effect{consensus.Broadcast{Msg: nv}}, r.enterView(now, nv.V)...)
	case TimerBatch:
		r.queue.TimerFired()
		return append(r.maybePropose(now, true), consensus.ArmBatchTimer(&r.queue, TimerBatch)...)
	case TimerFast:
		return r.onFastTimeout(now, types.SeqNum(key))
	}
	return nil
}

// OnPuzzleSolved implements consensus.Replica (unused).
func (r *Replica) OnPuzzleSolved(time.Duration, uint64, []byte, types.Digest) []consensus.Effect {
	return nil
}

func (r *Replica) onProp(now time.Duration, m *types.Prop) []consensus.Effect {
	if !r.cfg.Registry.VerifyProp(m) {
		return nil
	}
	if last, covered := r.store.Covered(m.Tx.Client, m.Tx.Timestamp); covered {
		notif := types.BlockNotifs(r.cfg.ID, 0, r.view, last.Seq, []types.Digest{last.Digest}, []bool{last.Status}, r.cfg.Keys.Sign)
		return []consensus.Effect{consensus.SendClient{To: m.Tx.Client, Msg: &notif[0]}}
	}
	r.propSeen[m.D] = m
	if !r.isLeader() || !r.queue.Push(m) {
		return nil
	}
	return append(r.maybePropose(now, false), consensus.ArmBatchTimer(&r.queue, TimerBatch)...)
}

// maybePropose proposes the next block. A block this replica shared at the
// next seq in an earlier view comes first, as it was: its leader may have
// committed it on the fast path — every replica shared it — and crashed
// before its Proof went out, so a new block there would fork the chain.
func (r *Replica) maybePropose(now time.Duration, flush bool) []consensus.Effect {
	if !r.isLeader() || r.inflight != nil {
		return nil
	}
	prev := r.store.LatestTxBlock()
	if pp, ok := r.prepared[prev.Header.N+1]; ok && pp.Prev == prev.Hash() {
		r.queue.Hold(pp.Txs)
		return r.propose(pp.Block(), pp.ClientSigs)
	}
	if r.queue.Len() == 0 || !flush && r.queue.Len() < r.cfg.BatchSize {
		return nil
	}
	txs, sigs := r.queue.Cut(r.cfg.BatchSize)
	return r.propose(&types.TxBlock{
		Header: types.TxBlockHeader{V: r.view, N: prev.Header.N + 1, PrevHash: prev.Hash(), BatchLen: uint32(len(txs))},
		Txs:    txs,
	}, sigs)
}

// propose broadcasts blk's PrePrepare in the current view and collects sign
// shares over blk's own view.
func (r *Replica) propose(blk *types.TxBlock, clientSigs [][]byte) []consensus.Effect {
	digest := blk.ContentDigest()
	inst := &instance{
		block:    blk,
		digest:   digest,
		stage:    1,
		fastOpen: true,
		// The fast path waits for shares from all n replicas.
		coll: quorum.NewCollector(types.QCOrdering, blk.Header.V, blk.Header.N, digest, r.cfg.N),
	}
	inst.coll.Add(r.cfg.Registry, r.cfg.ID, r.cfg.Keys.Sign(inst.coll.Statement()))
	r.inflight = inst
	pp := &PrePrepare{From: r.cfg.ID, V: r.view, N: blk.Header.N, Prev: blk.Header.PrevHash, Txs: blk.Txs, ClientSigs: clientSigs}
	if blk.Header.V != r.view {
		pp.BlockV = blk.Header.V
	}
	pp.Sig = r.cfg.Keys.Sign(pp.SigningBytes())
	return []consensus.Effect{
		consensus.Broadcast{Msg: pp},
		consensus.SetTimer{Kind: TimerFast, Key: uint64(blk.Header.N), Delay: fastTimeout},
	}
}

func (r *Replica) onPrePrepare(now time.Duration, m *PrePrepare) []consensus.Effect {
	if m.V != r.view || m.From != r.leader() || m.BlockV >= m.V {
		return nil
	}
	if !r.cfg.Registry.VerifyServer(m.From, m.SigningBytes(), m.Sig) {
		return nil
	}
	height := r.store.TxHeight()
	// A leader cannot order a request that no client signed.
	if m.N != height+1 || m.Prev != r.store.LatestTxBlock().Hash() || !r.cfg.Registry.VerifyRequests(m.Txs, m.ClientSigs) {
		return nil
	}
	blk := m.Block()
	r.prepared[m.N] = m
	sh := &Share{From: r.cfg.ID, Stage: 1, V: blk.Header.V, N: m.N, D: blk.ContentDigest()}
	sh.Sig = r.cfg.Keys.Sign(sh.SigningBytes())
	return []consensus.Effect{
		// A valid proposal is progress: reset the pacemaker.
		consensus.SetTimer{Kind: TimerView, Key: uint64(r.view), Delay: r.cfg.ViewTimeout},
		consensus.Send{To: m.From, Msg: sh},
	}
}

// onFastTimeout falls back to the two-phase slow path: re-target the stage-1
// collector at 2f+1.
func (r *Replica) onFastTimeout(now time.Duration, n types.SeqNum) []consensus.Effect {
	inst := r.inflight
	if inst == nil || inst.block.Header.N != n || inst.stage != 1 || !inst.fastOpen {
		return nil
	}
	inst.fastOpen = false
	if inst.coll.Count() >= types.QuorumSize(r.cfg.N) {
		// Enough shares for the slow path already: emit the prepare proof
		// and collect commit shares.
		return r.advanceSlowPath(inst)
	}
	return nil
}

func (r *Replica) onShare(now time.Duration, m *Share) []consensus.Effect {
	inst := r.inflight
	if inst == nil || m.V != inst.block.Header.V || m.N != inst.block.Header.N || m.D != inst.digest || m.Stage != inst.stage {
		return nil
	}
	full := inst.coll.Add(r.cfg.Registry, m.From, m.Sig)
	if inst.stage == 1 {
		if full && inst.fastOpen {
			// Fast path: all n signed in one round; commit immediately.
			inst.block.OrderingQC = inst.coll.QC()
			commitColl := quorum.NewCollector(types.QCCommit, m.V, m.N, inst.digest, types.QuorumSize(r.cfg.N))
			commitColl.Add(r.cfg.Registry, r.cfg.ID, r.cfg.Keys.Sign(commitColl.Statement()))
			inst.block.CommitQC = commitColl.QC() // leader's attestation rides along
			return r.finalize(now, inst, true)
		}
		if !inst.fastOpen && inst.coll.Count() >= types.QuorumSize(r.cfg.N) {
			return r.advanceSlowPath(inst)
		}
		return nil
	}
	// Stage 2 (slow path commit shares).
	if !full {
		return nil
	}
	inst.block.CommitQC = inst.coll.QC()
	return r.finalize(now, inst, false)
}

// advanceSlowPath broadcasts the prepare proof and starts collecting commit
// shares.
func (r *Replica) advanceSlowPath(inst *instance) []consensus.Effect {
	inst.block.OrderingQC = inst.coll.QC()
	inst.stage = 2
	inst.coll = quorum.NewCollector(types.QCCommit, inst.block.Header.V, inst.block.Header.N, inst.digest, types.QuorumSize(r.cfg.N))
	inst.coll.Add(r.cfg.Registry, r.cfg.ID, r.cfg.Keys.Sign(inst.coll.Statement()))
	pf := &Proof{From: r.cfg.ID, Stage: 1, Block: *inst.block}
	pf.Sig = r.cfg.Keys.Sign(pf.SigningBytes())
	return []consensus.Effect{consensus.Broadcast{Msg: pf}}
}

// finalize commits at the leader and broadcasts the commit proof.
func (r *Replica) finalize(now time.Duration, inst *instance, fast bool) []consensus.Effect {
	r.inflight = nil
	// The collector validated every share as it arrived; the fast path's
	// commit attestation is thinner than the ledger's two-QC rule, so
	// append with linkage-only checks.
	if err := r.store.AppendTxBlockUnchecked(r.cfg.Registry, inst.block); err != nil {
		return nil
	}
	committed := r.store.LatestTxBlock()
	var effs []consensus.Effect
	effs = append(effs, consensus.CancelTimer{Kind: TimerFast, Key: uint64(committed.Header.N)})
	// Progress resets the leader's own pacemaker.
	effs = append(effs, consensus.SetTimer{Kind: TimerView, Key: uint64(r.view), Delay: r.cfg.ViewTimeout})
	effs = append(effs, r.recordCommit()...)
	pf := &Proof{From: r.cfg.ID, Stage: 2, Block: *committed}
	pf.Sig = r.cfg.Keys.Sign(pf.SigningBytes())
	effs = append(effs, consensus.Broadcast{Msg: pf})
	effs = append(effs, consensus.Commit{Block: committed})
	effs = append(effs, r.maybePropose(now, false)...)
	return effs
}

func (r *Replica) onProof(now time.Duration, m *Proof) []consensus.Effect {
	blk := &m.Block
	if !r.cfg.Registry.VerifyServer(m.From, m.SigningBytes(), m.Sig) {
		return nil
	}
	switch m.Stage {
	case 1:
		// Slow-path continuation: verify the prepare proof, send a commit
		// share.
		prep, ok := r.prepared[blk.Header.N]
		if !ok || m.From != r.leader() {
			return nil
		}
		pb := prep.Block()
		d := pb.ContentDigest()
		if blk.OrderingQC.Digest != d {
			return nil
		}
		if err := r.cfg.Registry.VerifyQC(&blk.OrderingQC, types.QuorumSize(r.cfg.N)); err != nil {
			return nil
		}
		sh := &Share{From: r.cfg.ID, Stage: 2, V: pb.Header.V, N: blk.Header.N, D: d}
		sh.Sig = r.cfg.Keys.Sign(sh.SigningBytes())
		return []consensus.Effect{consensus.Send{To: m.From, Msg: sh}}
	case 2:
		height := r.store.TxHeight()
		if blk.Header.N != height+1 {
			return nil
		}
		// The fast path produces a commit certificate attested only by the
		// collector (leader); replicas accept it when the ordering QC
		// covers all n replicas (every correct server already signed).
		fastPath := blk.OrderingQC.Len() >= r.cfg.N
		if !fastPath {
			if err := r.store.ValidateTxBlockQCs(r.cfg.Registry, blk); err != nil {
				return nil
			}
		} else if err := r.cfg.Registry.VerifyQC(&blk.OrderingQC, r.cfg.N); err != nil {
			return nil
		}
		// Certificates checked above; the append checks chain linkage only.
		if err := r.store.AppendTxBlockUnchecked(r.cfg.Registry, blk); err != nil {
			return nil
		}
		committed := r.store.LatestTxBlock()
		effs := r.recordCommit()
		effs = append(effs, consensus.Commit{Block: committed})
		effs = append(effs, consensus.SetTimer{Kind: TimerView, Key: uint64(r.view), Delay: r.cfg.ViewTimeout})
		return effs
	}
	return nil
}

// recordCommit notifies the client of every transaction in the block just
// appended, under one signature over the block (types.BlockNotifs, with no
// leader hint).
func (r *Replica) recordCommit() []consensus.Effect {
	blk, digests := r.store.LatestTxBlock(), r.store.LatestTxDigests()
	notifs := types.BlockNotifs(r.cfg.ID, 0, r.view, blk.Header.N, digests, blk.Status, r.cfg.Keys.Sign)
	effs := make([]consensus.Effect, 0, len(digests))
	for i, d := range digests {
		r.queue.Release(d)
		delete(r.propSeen, d)
		effs = append(effs, consensus.SendClient{To: blk.Txs[i].Client, Msg: &notifs[i]})
	}
	delete(r.prepared, blk.Header.N)
	return effs
}
