// Package hotstuff implements the basic (non-chained) HotStuff protocol as
// the paper's primary baseline ("hs"): three voting phases per decision
// (Prepare → PreCommit → Commit → Decide) with linear message complexity via
// a vote collector at the leader, and a *passive* view-change protocol
// inherited from PBFT — leadership rotates on a predefined schedule,
// leader(v) = v mod n, advanced by timeouts or by a timing policy.
//
// The baseline shares every substrate with PrestigeBFT (types, crypto,
// quorum, ledger, clients, simulator), which keeps the comparison
// apples-to-apples: the figures measure protocol structure — the third
// phase HotStuff needs for optimistic responsiveness under passive view
// changes (§1 of the paper), and the stalls caused by rotating onto faulty
// or slow leaders.
package hotstuff

import (
	"math/rand"
	"time"

	"prestigebft/internal/consensus"
	"prestigebft/internal/crypto"
	"prestigebft/internal/ledger"
	"prestigebft/internal/quorum"
	"prestigebft/internal/types"
)

// Phase identifies a HotStuff voting phase.
type Phase uint8

const (
	// PhasePrepare is the proposal phase.
	PhasePrepare Phase = iota + 1
	// PhasePreCommit locks the proposal.
	PhasePreCommit
	// PhaseCommit commits the proposal.
	PhaseCommit
)

func (p Phase) String() string {
	switch p {
	case PhasePrepare:
		return "prepare"
	case PhasePreCommit:
		return "pre-commit"
	case PhaseCommit:
		return "commit"
	}
	return "unknown"
}

// qcKind maps phases onto certificate kinds. Prepare and Commit QCs are
// stored in the block (reusing the ledger's validation); the PreCommit QC
// is the transient lock.
func (p Phase) qcKind() types.QCKind {
	switch p {
	case PhasePrepare:
		return types.QCOrdering
	case PhaseCommit:
		return types.QCCommit
	}
	return types.QCGeneric
}

// Timer kinds.
const (
	// TimerView is the pacemaker timeout (the paper sets HotStuff's
	// initial timeout to 1 s in §6.2).
	TimerView consensus.TimerKind = iota + 1
	// TimerBatch flushes a partial batch at the leader.
	TimerBatch
	// TimerPolicy fires the r10/r30 rotation policy.
	TimerPolicy
	// TimerCompt guards a client complaint.
	TimerCompt
)

// Config parameterizes a replica.
type Config struct {
	ID       types.ServerID
	N        int
	Keys     *crypto.KeyPair
	Registry *crypto.Registry

	BatchSize int
	// ViewTimeout is the pacemaker timeout. Default 1 s.
	ViewTimeout time.Duration
	// ViewPolicy rotates leadership every ViewPolicy (r10/r30). Zero
	// disables policy rotation.
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

// LeaderOf returns the passive schedule's leader for a view: L = V mod n
// (Figure 1 of the paper).
func LeaderOf(v types.View, n int) types.ServerID {
	return types.ServerID((uint64(v)-1)%uint64(n) + 1)
}

// instance tracks the leader's in-flight decision.
type instance struct {
	block  *types.TxBlock
	digest types.Digest
	phase  Phase
	coll   *quorum.Collector
}

// Replica is one HotStuff server.
type Replica struct {
	cfg   Config
	store *ledger.Store

	view     types.View
	newViews map[types.View]*quorum.Collector
	active   bool // this replica is the current view's leader and may propose

	queue    types.ProposalQueue
	inflight *instance

	prepared   map[types.SeqNum]*types.TxBlock // accepted (or, at the leader, own) proposals
	votedPhase map[phaseKey]bool
	// lockedQC is the PreCommit certificate this replica locked on. While it
	// is above the committed height the replica votes for no other block at
	// its seq unless a later view's certificate justifies one.
	lockedQC types.QC
	// highLock and highLocked are the latest lock this replica learned
	// as a scheduled leader (its own or one carried by a NewView): the block
	// it must re-propose before anything new at that seq.
	highLock   types.QC
	highLocked *types.TxBlock

	propSeen map[types.Digest]*types.Prop
	// comptSeen maps each complained, uncommitted transaction to the view
	// whose complaint timer it armed; a complaint in a later view arms that
	// view's timer.
	comptSeen map[types.Digest]types.View
}

type phaseKey struct {
	v     types.View
	n     types.SeqNum
	phase Phase
}

// New creates a HotStuff replica.
func New(cfg Config) *Replica {
	c := cfg.withDefaults()
	return &Replica{
		cfg:        c,
		store:      ledger.NewStore(c.N, LeaderOf(1, c.N), c.StateMachine),
		view:       1,
		newViews:   make(map[types.View]*quorum.Collector),
		prepared:   make(map[types.SeqNum]*types.TxBlock),
		votedPhase: make(map[phaseKey]bool),
		propSeen:   make(map[types.Digest]*types.Prop),
		comptSeen:  make(map[types.Digest]types.View),
	}
}

// ID implements consensus.Replica.
func (r *Replica) ID() types.ServerID { return r.cfg.ID }

// View returns the replica's current view.
func (r *Replica) View() types.View { return r.view }

// Store exposes the ledger.
func (r *Replica) Store() *ledger.Store { return r.store }

// Pending returns the size of the leader's proposal backlog (for tests and
// metrics).
func (r *Replica) Pending() int { return r.queue.Len() }

// Active reports whether this replica is the current view's acting leader.
func (r *Replica) Active() bool { return r.active }

// Inflight reports whether a decision is in progress at this leader.
func (r *Replica) Inflight() bool { return r.inflight != nil }

// leader returns the scheduled leader of the current view.
func (r *Replica) leader() types.ServerID { return LeaderOf(r.view, r.cfg.N) }

// isLeader reports whether this replica leads the current view.
func (r *Replica) isLeader() bool { return r.leader() == r.cfg.ID }

// Init implements consensus.Replica. The view-1 leader is active
// immediately; everyone arms the pacemaker.
func (r *Replica) Init(now time.Duration) []consensus.Effect {
	if r.isLeader() {
		r.active = true
	}
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
	// HotStuff speaks its own message set plus the client-facing and sync
	// subset of the core vocabulary (see the harness contract).
	//lint:dispatch local prestigebft/internal/types=Prop,Compt,SyncReq,SyncResp
	switch m := msg.(type) {
	case *types.Prop:
		return r.onProp(now, m)
	case *types.Compt:
		return r.onCompt(now, m)
	case *Prepare:
		return r.onPrepare(now, m)
	case *Vote:
		return r.onVote(now, m)
	case *PhaseAnnounce:
		return r.onPhaseAnnounce(now, m)
	case *Decide:
		return r.onDecide(now, m)
	case *NewView:
		return r.onNewView(now, m)
	case *types.SyncReq:
		return r.onSyncReq(m)
	case *types.SyncResp:
		return r.onSyncResp(now, m)
	}
	return nil
}

// OnTimer implements consensus.Replica.
func (r *Replica) OnTimer(now time.Duration, kind consensus.TimerKind, key uint64) []consensus.Effect {
	switch kind {
	case TimerView:
		if types.View(key) != r.view {
			return nil
		}
		return r.advanceView(now, r.view+1)
	case TimerPolicy:
		if types.View(key) != r.view {
			return nil
		}
		return r.advanceView(now, r.view+1)
	case TimerBatch:
		r.queue.TimerFired()
		return append(r.maybePropose(now, true), consensus.ArmBatchTimer(&r.queue, TimerBatch)...)
	case TimerCompt:
		// A complained transaction failed to commit: pacemaker timeout. A
		// timer armed in an earlier view is stale: that view has already
		// changed, and the leader it would depose is not the one the
		// client complained about.
		if types.View(key) != r.view {
			return nil
		}
		return r.advanceView(now, r.view+1)
	}
	return nil
}

// OnPuzzleSolved implements consensus.Replica (HotStuff performs no
// reputation computation).
func (r *Replica) OnPuzzleSolved(time.Duration, uint64, []byte, types.Digest) []consensus.Effect {
	return nil
}

// advanceView is the passive view change: move to the scheduled next leader
// and tell it (NewView). This is blind — if the next scheduled server is
// crashed or slow, the system stalls for ViewTimeout before moving on
// (the weakness PrestigeBFT's active protocol removes).
func (r *Replica) advanceView(now time.Duration, v types.View) []consensus.Effect {
	if v <= r.view {
		return nil
	}
	r.view = v
	r.active = false
	r.inflight = nil
	r.queue.Reset()
	var effs []consensus.Effect
	effs = append(effs, consensus.Trace{Event: consensus.TraceViewChangeStart, View: v, Server: r.cfg.ID})
	nv := &NewView{From: r.cfg.ID, V: v, N: r.store.TxHeight()}
	nv.Lock, nv.Locked = r.liveLock()
	nv.Sig = r.cfg.Keys.Sign(nv.SigningBytes())
	if r.leader() == r.cfg.ID {
		effs = append(effs, r.onNewView(now, nv)...)
	} else {
		effs = append(effs, consensus.Send{To: r.leader(), Msg: nv})
	}
	effs = append(effs, r.armTimers()...)
	return effs
}

// onNewView collects 2f+1 view-change endorsements at the scheduled leader;
// the leader then starts proposing.
func (r *Replica) onNewView(now time.Duration, m *NewView) []consensus.Effect {
	if m.V < r.view || LeaderOf(m.V, r.cfg.N) != r.cfg.ID {
		return nil
	}
	coll, ok := r.newViews[m.V]
	if !ok {
		coll = quorum.NewCollector(types.QCGeneric, m.V, 0, types.Digest{}, types.QuorumSize(r.cfg.N))
		r.newViews[m.V] = coll
		if m.From != r.cfg.ID {
			// Count our own endorsement.
			own := &NewView{From: r.cfg.ID, V: m.V, N: r.store.TxHeight()}
			coll.Add(r.cfg.Registry, r.cfg.ID, r.cfg.Keys.Sign(own.SigningBytes()))
			r.learnLock(r.liveLock())
		}
	}
	if m.Locked != nil && r.cfg.Registry.VerifyServer(m.From, m.SigningBytes(), m.Sig) {
		r.learnLock(m.Lock, m.Locked)
	}
	if !coll.Add(r.cfg.Registry, m.From, m.Sig) {
		return nil
	}
	delete(r.newViews, m.V)
	var effs []consensus.Effect
	if m.V > r.view {
		r.view = m.V
		r.queue.Reset()
		effs = append(effs, r.armTimers()...)
	}
	r.active = true
	effs = append(effs, consensus.Trace{Event: consensus.TraceElected, View: r.view, Server: r.cfg.ID})
	// Proposals observed while a follower become this leader's backlog.
	// Sorted order: the queue feeds batch contents, which must not depend
	// on map iteration.
	for _, d := range types.SortedDigestKeys(r.propSeen) {
		tx := r.propSeen[d].Tx
		if _, covered := r.store.Covered(tx.Client, tx.Timestamp); !covered {
			r.queue.Push(r.propSeen[d])
		}
	}
	effs = append(effs, consensus.ArmBatchTimer(&r.queue, TimerBatch)...)
	effs = append(effs, r.maybePropose(now, true)...)
	return effs
}

// liveLock returns this replica's lock with its block while the lock is
// above the committed height, or zeros.
func (r *Replica) liveLock() (types.QC, *types.TxBlock) {
	if r.lockedQC.Seq <= r.store.TxHeight() {
		return types.QC{}, nil
	}
	blk, ok := r.prepared[r.lockedQC.Seq]
	if !ok || blk.ContentDigest() != r.lockedQC.Digest {
		return types.QC{}, nil
	}
	return r.lockedQC, blk
}

// learnLock keeps the latest valid lock a scheduled leader hears of, by
// (view, seq): blocks are proposed in non-decreasing views.
func (r *Replica) learnLock(qc types.QC, blk *types.TxBlock) {
	if blk == nil || (r.highLocked != nil && (qc.View < r.highLock.View ||
		qc.View == r.highLock.View && qc.Seq <= r.highLock.Seq)) {
		return
	}
	if qc.Kind != PhasePreCommit.qcKind() || qc.View != blk.Header.V || qc.Seq != blk.Header.N || qc.Digest != blk.ContentDigest() {
		return
	}
	if r.cfg.Registry.VerifyQC(&qc, types.QuorumSize(r.cfg.N)) != nil {
		return
	}
	r.highLock, r.highLocked = qc, &types.TxBlock{Header: blk.Header, Txs: blk.Txs}
}
