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

// batchTimeout flushes a partial batch (the same 2 ms as PrestigeBFT's).
const batchTimeout = 2 * time.Millisecond

// Config parameterizes a replica.
type Config struct {
	ID       types.ServerID
	N        int
	Keys     *crypto.KeyPair
	Registry *crypto.Registry

	BatchSize   int
	ViewTimeout time.Duration
	// FastTimeout bounds the fast path. Default 50 ms.
	FastTimeout time.Duration
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
	if out.FastTimeout == 0 {
		out.FastTimeout = 50 * time.Millisecond
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
	Sig  []byte
}

// Type implements types.Message.
func (m *PrePrepare) Type() string { return "sb.PrePrepare" }

// WireSize implements types.Message.
func (m *PrePrepare) WireSize() int {
	size := 16 + 2 + 8 + 8 + 32 + 64
	for i := range m.Txs {
		size += 16 + len(m.Txs[i].Data)
	}
	return size
}

// SigningBytes implements types.Signed.
func (m *PrePrepare) SigningBytes() []byte {
	b := &types.TxBlock{Header: types.TxBlockHeader{V: m.V, N: m.N, PrevHash: m.Prev, BatchLen: uint32(len(m.Txs))}, Txs: m.Txs}
	d := b.ContentDigest()
	return types.QCStatementBytes(types.QCGeneric, m.V, m.N, d)
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

// Type implements types.Message.
func (m *Share) Type() string { return "sb.Share" }

// WireSize implements types.Message.
func (m *Share) WireSize() int { return 16 + 2 + 1 + 8 + 8 + 32 + 64 }

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

// Type implements types.Message.
func (m *Proof) Type() string { return "sb.Proof" }

// WireSize implements types.Message.
func (m *Proof) WireSize() int {
	b := types.TxBlockMsg{Block: m.Block}
	return b.WireSize() + 1
}

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

// Type implements types.Message.
func (m *NewView) Type() string { return "sb.NewView" }

// WireSize implements types.Message.
func (m *NewView) WireSize() int { return 16 + 2 + 8 + 64 }

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

	pending         []types.Transaction
	pendingByDigest map[types.Digest]bool
	batchArmed      bool
	inflight        *instance

	prepared    map[types.SeqNum]*types.TxBlock
	committedTx map[types.Digest]types.SeqNum
	// propSeen holds every uncommitted client request this replica has
	// seen, so whichever server the rotation makes leader proposes them.
	propSeen map[types.Digest]*types.Prop
}

// New creates an SBFT replica.
func New(cfg Config) *Replica {
	c := cfg.withDefaults()
	return &Replica{
		cfg:             c,
		store:           ledger.NewStore(c.N, leaderOf(1, c.N), c.StateMachine),
		view:            1,
		pendingByDigest: make(map[types.Digest]bool),
		prepared:        make(map[types.SeqNum]*types.TxBlock),
		committedTx:     make(map[types.Digest]types.SeqNum),
		propSeen:        make(map[types.Digest]*types.Prop),
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
	r.pending = nil
	r.pendingByDigest = make(map[types.Digest]bool)
	effs := r.armTimers()
	if !r.isLeader() {
		return effs
	}
	for _, d := range types.SortedDigestKeys(r.propSeen) {
		r.pendingByDigest[d] = true
		r.pending = append(r.pending, r.propSeen[d].Tx)
	}
	if !r.batchArmed && len(r.pending) > 0 {
		r.batchArmed = true
		effs = append(effs, consensus.SetTimer{Kind: TimerBatch, Key: 0, Delay: batchTimeout})
	}
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
		r.batchArmed = false
		effs := r.maybePropose(now, true)
		if len(r.pending) > 0 || r.inflight != nil {
			r.batchArmed = true
			effs = append(effs, consensus.SetTimer{Kind: TimerBatch, Key: 0, Delay: batchTimeout})
		}
		return effs
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
	if m.Tx.Digest() != m.D || !r.cfg.Registry.VerifyClient(m.Tx.Client, m.SigningBytes(), m.Sig) {
		return nil
	}
	if seq, ok := r.committedTx[m.D]; ok {
		return []consensus.Effect{r.notifyClient(m.Tx.Client, seq, m.D)}
	}
	r.propSeen[m.D] = m
	if !r.isLeader() || r.pendingByDigest[m.D] {
		return nil
	}
	r.pendingByDigest[m.D] = true
	r.pending = append(r.pending, m.Tx)
	effs := r.maybePropose(now, false)
	if !r.batchArmed && (len(r.pending) > 0 || r.inflight != nil) {
		r.batchArmed = true
		effs = append(effs, consensus.SetTimer{Kind: TimerBatch, Key: 0, Delay: batchTimeout})
	}
	return effs
}

func (r *Replica) maybePropose(now time.Duration, flush bool) []consensus.Effect {
	if !r.isLeader() || r.inflight != nil || len(r.pending) == 0 {
		return nil
	}
	if !flush && len(r.pending) < r.cfg.BatchSize {
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
		Header: types.TxBlockHeader{V: r.view, N: prev.Header.N + 1, PrevHash: prev.Hash(), BatchLen: uint32(len(batch))},
		Txs:    batch,
	}
	digest := blk.ContentDigest()
	inst := &instance{
		block:    blk,
		digest:   digest,
		stage:    1,
		fastOpen: true,
		// The fast path waits for shares from all n replicas.
		coll: quorum.NewCollector(types.QCOrdering, r.view, blk.Header.N, digest, r.cfg.N),
	}
	inst.coll.Add(r.cfg.Registry, r.cfg.ID, r.cfg.Keys.Sign(inst.coll.Statement()))
	r.inflight = inst
	pp := &PrePrepare{From: r.cfg.ID, V: r.view, N: blk.Header.N, Prev: blk.Header.PrevHash, Txs: batch}
	pp.Sig = r.cfg.Keys.Sign(pp.SigningBytes())
	return []consensus.Effect{
		consensus.Broadcast{Msg: pp},
		consensus.SetTimer{Kind: TimerFast, Key: uint64(blk.Header.N), Delay: r.cfg.FastTimeout},
	}
}

func (r *Replica) onPrePrepare(now time.Duration, m *PrePrepare) []consensus.Effect {
	if m.V != r.view || m.From != r.leader() {
		return nil
	}
	if !r.cfg.Registry.VerifyServer(m.From, m.SigningBytes(), m.Sig) {
		return nil
	}
	height := r.store.TxHeight()
	if m.N != height+1 || m.Prev != r.store.LatestTxBlock().Hash() {
		return nil
	}
	blk := &types.TxBlock{
		Header: types.TxBlockHeader{V: m.V, N: m.N, PrevHash: m.Prev, BatchLen: uint32(len(m.Txs))},
		Txs:    m.Txs,
	}
	r.prepared[m.N] = blk
	sh := &Share{From: r.cfg.ID, Stage: 1, V: m.V, N: m.N, D: blk.ContentDigest()}
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
	if inst == nil || m.V != r.view || m.N != inst.block.Header.N || m.D != inst.digest || m.Stage != inst.stage {
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
	effs = append(effs, r.recordCommit(committed)...)
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
		if !ok || blk.Header.V != r.view || m.From != r.leader() {
			return nil
		}
		d := prep.ContentDigest()
		if blk.OrderingQC.Digest != d {
			return nil
		}
		if err := r.cfg.Registry.VerifyQC(&blk.OrderingQC, types.QuorumSize(r.cfg.N)); err != nil {
			return nil
		}
		sh := &Share{From: r.cfg.ID, Stage: 2, V: r.view, N: blk.Header.N, D: d}
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
		if err := r.appendLoose(blk); err != nil {
			return nil
		}
		committed := r.store.LatestTxBlock()
		effs := r.recordCommit(committed)
		effs = append(effs, consensus.Commit{Block: committed})
		effs = append(effs, consensus.SetTimer{Kind: TimerView, Key: uint64(r.view), Delay: r.cfg.ViewTimeout})
		return effs
	}
	return nil
}

// appendLoose appends a block whose certificates were validated by the
// caller (the fast path's commit attestation is thinner than the ledger's
// standard two-QC rule).
func (r *Replica) appendLoose(blk *types.TxBlock) error {
	reg := r.cfg.Registry
	// Reuse the ledger by relaxing: both paths carry a full ordering QC;
	// the ledger validates linkage, and we bypass its commit-QC threshold
	// check by validating above.
	return r.store.AppendTxBlockUnchecked(reg, blk)
}

func (r *Replica) recordCommit(blk *types.TxBlock) []consensus.Effect {
	var effs []consensus.Effect
	for i := range blk.Txs {
		tx := &blk.Txs[i]
		d := tx.Digest()
		r.committedTx[d] = blk.Header.N
		delete(r.pendingByDigest, d)
		delete(r.propSeen, d)
		effs = append(effs, r.notifyClient(tx.Client, blk.Header.N, d))
	}
	delete(r.prepared, blk.Header.N)
	return effs
}

func (r *Replica) notifyClient(client types.ClientID, seq types.SeqNum, d types.Digest) consensus.Effect {
	notif := &types.Notif{From: r.cfg.ID, V: r.view, N: seq, TxD: d, Status: true}
	notif.Sig = r.cfg.Keys.Sign(notif.SigningBytes())
	return consensus.SendClient{To: client, Msg: notif}
}
