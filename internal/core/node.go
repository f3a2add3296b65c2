// Package core implements the PrestigeBFT consensus node: the active
// view-change protocol with reputation mechanisms (§4.2 of the paper) and
// the two-phase replication protocol (§4.3).
//
// A Node is a pure event-driven state machine satisfying consensus.Replica:
// it consumes messages, timer expirations and finished proof-of-work
// computations, and emits effects. It embeds a ledger (txBlock and vcBlock
// chains plus the application state machine) and consults the reputation
// engine — never writing reputation state outside view-change consensus,
// matching the paper's "consultant" design (§3).
package core

import (
	"fmt"
	"math/rand"
	"time"

	"prestigebft/internal/consensus"
	"prestigebft/internal/crypto"
	"prestigebft/internal/ledger"
	"prestigebft/internal/quorum"
	"prestigebft/internal/reputation"
	"prestigebft/internal/types"
)

// State is a server's role in the current view (Figure 5).
type State uint8

const (
	// Follower is the initial state; followers replicate and vote.
	Follower State = iota
	// Redeemer performs reputation-determined computation to campaign.
	Redeemer
	// Candidate runs a leader election.
	Candidate
	// Leader conducts replication consensus.
	Leader
)

func (s State) String() string {
	switch s {
	case Follower:
		return "follower"
	case Redeemer:
		return "redeemer"
	case Candidate:
		return "candidate"
	case Leader:
		return "leader"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// Timer kinds used by the node.
const (
	// TimerCompt waits for a complained transaction to commit
	// (Algo. 2 lines 3-5). Key: first 8 bytes of the tx digest.
	TimerCompt consensus.TimerKind = iota + 1
	// TimerConfVC bounds the wait for f+1 ReVC replies. Key: view.
	TimerConfVC
	// TimerElection bounds a candidate's election (Algo. 2 line 45).
	// Key: the view campaigned for.
	TimerElection
	// TimerPolicy fires the policy-defined view change (§4.2.1). Key: view.
	TimerPolicy
	// TimerBatch flushes a partially filled batch at the leader.
	TimerBatch
	// TimerInstance bounds one in-flight replication instance at the leader.
	// Key: the instance's sequence number. On expiry the leader retransmits
	// the instance's current phase message (Ord, plus Cmt once ordering_QC
	// exists) so a window stalled by message loss can drain without waiting
	// for a view change. Armed per sequence number because the replication
	// window keeps up to PipelineDepth instances in flight concurrently.
	TimerInstance
	// TimerSync bounds one SyncUp round trip. Key: the sync token. A lost
	// SyncReq or SyncResp would otherwise wedge the node in the syncing
	// state forever (stashing every message, including election votes).
	TimerSync
	// TimerVcConfirm bounds an elected-but-unconfirmed leader's wait for
	// 2f+1 VcYes. Key: the view campaigned for. On expiry the leader
	// re-broadcasts its pending vcBlock — the only retry path for a drop of
	// either the block or an ack, without which the election standoff in
	// onVcConfirmTimeout's comment wedges the cluster permanently.
	TimerVcConfirm
)

// Fixed protocol parameters.
const (
	// initialLeader leads view 1.
	initialLeader types.ServerID = 1
	// syncTimeout bounds one SyncUp round trip; on expiry the node leaves
	// the syncing state and replays its stash (typically re-triggering the
	// sync).
	syncTimeout = 500 * time.Millisecond
	// confVCTimeout bounds the wait for f+1 ReVC replies.
	confVCTimeout = 300 * time.Millisecond
)

// Config parameterizes a node. Zero values select the defaults documented
// on each field.
type Config struct {
	ID       types.ServerID
	N        int // cluster size (n = 3f+1)
	Keys     *crypto.KeyPair
	Registry *crypto.Registry

	// Engine is the reputation engine; nil selects reputation.New().
	Engine *reputation.Engine

	// StateMachine receives committed transactions; nil selects AcceptAll.
	StateMachine ledger.StateMachine

	// BatchSize is the paper's β: transactions per txBlock. Default 100.
	BatchSize int

	// PipelineDepth is the replication window W: the maximum number of
	// consensus instances the leader keeps in flight at consecutive
	// sequence numbers. 1 reproduces the original stop-and-wait behavior
	// (one batch per round trip); larger values pipeline the Ordering and
	// Commit phases of successive blocks. Commits are always applied in
	// sequence order regardless of the quorum completion order. Default 8.
	PipelineDepth int
	// InstanceTimeout is the per-instance retransmission period: an
	// in-flight instance older than this has its phase messages
	// re-broadcast (vote collection is idempotent). Default
	// types.RetransmitPeriod (250ms) — far above a healthy commit round
	// trip, so it only fires under loss.
	InstanceTimeout time.Duration

	// CheckpointInterval enables certified checkpoints: every
	// CheckpointInterval committed sequence numbers the replica hashes its
	// ledger state (application state + reputation inputs + chain anchor),
	// broadcasts a signed CkptVote, and — at 2f+1 matching hashes —
	// assembles a checkpoint certificate that becomes the new log base:
	// everything below it is pruned, and peers stuck below the base catch
	// up via the certified snapshot instead of block replay (DESIGN.md
	// §10). Zero disables checkpointing (the full log is retained forever).
	// Requires a state machine implementing ledger.Snapshotter; with any
	// other state machine the interval is inert.
	CheckpointInterval int

	// TimeoutMin/TimeoutMax bound the follower's randomized timeout
	// (§4.2.1: "a timer with a random timeout... sufficiently greater than
	// Δ"; §6 uses [800, 1200 ms]). The same range drives the complaint
	// wait, the policy-trigger jitter, and the candidate election timer.
	// The randomization width TimeoutMax−TimeoutMin is Fig. 8's ε.
	TimeoutMin time.Duration
	TimeoutMax time.Duration

	// ViewPolicy rotates leadership every ViewPolicy of view lifetime
	// (the paper's r10/r30 timing policy). Zero disables policy rotation.
	ViewPolicy time.Duration

	// RefreshThreshold is π (§4.2.5): servers whose rp exceeds it seek a
	// refresh. Zero disables refreshing.
	RefreshThreshold int64

	// PuzzleBitsPerRP maps a reputation penalty to the proof-of-work
	// difficulty in leading zero bits: difficulty = rp · PuzzleBitsPerRP.
	// The paper's prose says rp zero *bytes* (8 bits), but its worked
	// example (hr = "0000966sv0d3..." for rp = 4) and all measured costs in
	// §6.2 (<20 ms below rp 5, ~10³ s near the 14th attack, hours beyond
	// rp 8) correspond to 4 bits per unit at commodity hash rates, so the
	// default (selected by 0) is 4. A negative value disables the prefix
	// requirement: the simulator enforces difficulty through its virtual
	// solve-time model instead, while C5 verification still recomputes the
	// hash (DESIGN.md §4). The runtime decides how the solve is performed;
	// the node uses this only to verify campaign computations (C5).
	PuzzleBitsPerRP int

	// RNG drives timeout randomization. Must be non-nil for deterministic
	// simulation; nil falls back to a fixed-seed source.
	RNG *rand.Rand

	// CampaignGate, if non-nil, is consulted when a view change has been
	// confirmed and this server is about to campaign; returning false
	// abandons the campaign and the server stays a follower. The fault
	// injector uses it to implement attacker strategy S2 (§6.2: faulty
	// servers "launch attacks only when they can get compensated").
	// Correct servers leave it nil.
	CampaignGate func(reputation.Result) bool
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Engine == nil {
		out.Engine = reputation.New()
	}
	if out.BatchSize == 0 {
		out.BatchSize = 100
	}
	if out.PipelineDepth == 0 {
		out.PipelineDepth = 8
	}
	if out.PipelineDepth < 1 {
		out.PipelineDepth = 1
	}
	if out.InstanceTimeout == 0 {
		out.InstanceTimeout = types.RetransmitPeriod
	}
	if out.TimeoutMin == 0 {
		out.TimeoutMin = 800 * time.Millisecond
	}
	if out.TimeoutMax == 0 {
		out.TimeoutMax = 1200 * time.Millisecond
	}
	if out.PuzzleBitsPerRP == 0 {
		out.PuzzleBitsPerRP = 4
	}
	if out.RNG == nil {
		out.RNG = rand.New(rand.NewSource(int64(out.ID)))
	}
	return out
}

// replInstance is one in-flight replication consensus instance at the leader.
// Up to Config.PipelineDepth instances at consecutive sequence numbers are
// tracked simultaneously in Node.inflight; an instance whose commit_QC
// completes before its predecessor's "parks" (block.CommitQC set, still in
// the window) until the chain below it is applied.
type replInstance struct {
	block      *types.TxBlock
	clientSigs [][]byte // the Ord's; nil for adopted instances
	digest     types.Digest
	ordColl    *quorum.Collector // nil for adopted instances (ordering pre-certified)
	cmtColl    *quorum.Collector
	started    time.Duration
	// adopted marks an instance re-proposed from view-change evidence: its
	// block already carries an ordering_QC from an earlier view and runs
	// only the commit phase (via Adopt messages).
	adopted bool
}

// committed reports whether the instance has assembled its commit_QC and is
// parked awaiting in-order application.
func (i *replInstance) committed() bool { return !i.block.CommitQC.IsZero() }

// pendingProposal is a proposal stashed by a follower between Ord and commit.
// predHash caches the block's PredictedHash so successors in the replication
// window can verify their PrevHash chaining in O(1).
type pendingProposal struct {
	block      types.TxBlock
	clientSigs [][]byte // the Ord's, verified; nil for adopted blocks
	digest     types.Digest
	predHash   types.Digest
}

// Node is a PrestigeBFT server.
type Node struct {
	cfg   Config
	store *ledger.Store

	state State

	// viewEnteredAt records when the current view was installed, for
	// policy-trigger validation.
	viewEnteredAt time.Duration

	// leaderConfirmed reports whether this node, as leader, has collected
	// 2f+1 vcYes and may run replication (§4.2.4).
	leaderConfirmed bool

	// --- Replication state (leader) ---
	queue types.ProposalQueue // verified proposals, and the digests in flight
	// inflight is the replication window: every in-flight instance keyed by
	// sequence number. By construction the keys are contiguous — the low
	// watermark is TxHeight()+1 and the high watermark TxHeight()+len —
	// because instances are admitted at consecutive sequence numbers and
	// leave the window only through the in-order apply loop (bottom first)
	// or a view change (all at once).
	inflight map[types.SeqNum]*replInstance

	// --- Replication state (follower) ---
	prepared map[types.SeqNum]*pendingProposal // Ord accepted, awaiting Cmt/commit
	ordVoted map[types.SeqNum]types.View       // "n has not been used" check
	// ordStash buffers proposals that arrived ahead of their predecessor
	// (the pipelined window makes this routine when a message is lost or
	// reordered): once the predecessor prepares or commits, the stashed
	// proposal is replayed instead of waiting for the leader's
	// retransmission cycle. Bounded by ordStashLimit.
	ordStash map[types.SeqNum]*types.Ord

	// --- Complaint / view-change trigger state ---
	// compts holds the complained transactions not yet committed: onCompt
	// adds one only if uncommitted, recordCommit removes it on commit.
	compts      map[types.Digest]*complaint
	inspecting  *quorum.Collector // my ConfVC awaiting f+1 ReVC
	inspectView types.View
	policyFired bool // my policy timer fired in this view

	// replStopped marks that this server confirmed a view change out of
	// the current view (sent or collected ReVC, or validated a campaign's
	// conf_QC) and therefore stopped contributing replication votes in it.
	// With f+1 confirmers out of the quorum, the old leader can no longer
	// assemble 2f+1 replies, so log heights freeze and the candidate
	// verification criteria C3/C4 evaluate against stable chains. Committed
	// blocks (TxBlockMsg) still apply — they are certified results, not new
	// progress.
	replStopped bool
	// led marks that this server has led a view. Only such a server can be
	// named by a client's leader hint, so only it forwards client
	// proposals (forwardProp).
	led bool

	// --- Redeemer/candidate state ---
	vPrime      types.View
	campRP      int64
	campCI      int64
	confQC      types.QC
	puzzleToken uint64
	voteColl    *quorum.Collector
	campMsg     *types.CampVC
	// voteLocks accumulates the certified in-flight blocks (locked slots)
	// attached to election votes, keeping the highest-view ordering_QC per
	// sequence number. On election it is merged with this server's own
	// locked slots into the adoption plan for the previous leader's window.
	voteLocks map[types.SeqNum]*types.TxBlock

	// --- Leader VC state ---
	vcYesColl      *quorum.Collector
	pendingVcBlock *types.VcBlock

	// --- Voting state (C1) ---
	lastVotedView types.View
	lastVotedFor  types.ServerID

	// --- Refresh state (§4.2.5) ---
	refColl     *quorum.Collector
	refreshSent bool
	refreshDone bool

	// --- Sync state ---
	syncing   bool
	syncFrom  types.ServerID
	syncToken uint64
	syncStash []stashedMsg

	// --- Checkpoint state (DESIGN.md §10) ---
	// ckptVoted is the highest interval boundary this replica has voted for
	// (or deferred); ckptRounds the open vote collectors by seq;
	// ckptStash verified votes that arrived before this replica committed
	// their boundary; ckptDeferred a boundary basis awaiting the vc chain
	// (the reputation-input digest needs the vcBlock of the anchor's view).
	ckptVoted    types.SeqNum
	ckptRounds   map[types.SeqNum]*ckptRound
	ckptStash    map[types.SeqNum][]*types.CkptVote
	ckptDeferred *ckptBasis

	tokenSeq uint64
}

// complaint is one complained, uncommitted transaction.
type complaint struct {
	prop    *types.Prop // the client's signed proposal; names the client
	expired bool        // own timer expired without commit in this view
}

type stashedMsg struct {
	from consensus.Origin
	msg  types.Message
}

// New creates a node. The ledger is seeded with the genesis blocks.
func New(cfg Config) *Node {
	c := cfg.withDefaults()
	return &Node{
		cfg:        c,
		store:      ledger.NewStore(c.N, initialLeader, c.StateMachine),
		inflight:   make(map[types.SeqNum]*replInstance),
		prepared:   make(map[types.SeqNum]*pendingProposal),
		ordStash:   make(map[types.SeqNum]*types.Ord),
		ordVoted:   make(map[types.SeqNum]types.View),
		compts:     make(map[types.Digest]*complaint),
		ckptRounds: make(map[types.SeqNum]*ckptRound),
		ckptStash:  make(map[types.SeqNum][]*types.CkptVote),
	}
}

// ID implements consensus.Replica.
func (n *Node) ID() types.ServerID { return n.cfg.ID }

// State returns the node's current role.
func (n *Node) State() State { return n.state }

// View returns the node's current view.
func (n *Node) View() types.View { return n.store.CurrentView() }

// CurrentLeader returns the leader of the node's current view.
func (n *Node) CurrentLeader() types.ServerID { return n.store.CurrentLeader() }

// Store exposes the node's ledger for inspection by tests, metrics, and
// applications.
func (n *Node) Store() *ledger.Store { return n.store }

// ReputationPenalty returns the node's view of server id's current rp.
func (n *Node) ReputationPenalty(id types.ServerID) int64 {
	return n.store.LatestVcBlock().RP[id]
}

// WindowStats exposes the leader's replication-window occupancy for tests
// and metrics: queued transactions, in-flight instances (of which parked =
// commit_QC assembled but a predecessor still open), and whether the
// partial-batch flush timer is armed.
func (n *Node) WindowStats() (pending, inflight, parked int, armed bool) {
	//lint:allow maporder counting a pure predicate into an int; order cannot escape
	for _, inst := range n.inflight {
		if inst.committed() {
			parked++
		}
	}
	return n.queue.Len(), len(n.inflight), parked, n.queue.TimerArmed()
}

// Init implements consensus.Replica. The initial leader of view 1 is
// considered confirmed by construction (genesis).
//
// Init also serves warm reboots: a crash-recovered process re-hosts its
// persisted node in a fresh runtime, and every timer (and any in-flight
// puzzle computation) died with the old one. The node re-derives them from
// its retained state — the leader's batch and window retransmission
// timers, sync and complaint timers, a redeemer's computation, a
// candidate's election timer. On a cold boot all of this state is empty,
// so the rehydration block is a no-op and (crucially for reproducible
// simulation) draws nothing from the RNG.
func (n *Node) Init(now time.Duration) []consensus.Effect {
	n.viewEnteredAt = now
	var effs []consensus.Effect
	if n.store.CurrentLeader() == n.cfg.ID && n.state == Follower && n.View() == 1 {
		n.state = Leader
		n.leaderConfirmed = true
		n.led = true
	}
	effs = append(effs, n.armPolicyTimer()...)

	// --- Warm-reboot rehydration (no-op on a cold boot) ---
	if n.state == Leader {
		if n.queue.TimerArmed() {
			effs = append(effs, consensus.SetTimer{Kind: TimerBatch, Key: 0, Delay: consensus.BatchTimeout})
		}
		// Window keys are contiguous from the low watermark, so this
		// iteration is deterministic without sorting.
		for seq := n.store.TxHeight() + 1; n.inflight[seq] != nil; seq++ {
			effs = append(effs, consensus.SetTimer{Kind: TimerInstance, Key: uint64(seq), Delay: n.cfg.InstanceTimeout})
		}
	}
	if n.syncing {
		effs = append(effs, consensus.SetTimer{Kind: TimerSync, Key: n.syncToken, Delay: syncTimeout})
	}
	// Open checkpoint rounds lost their in-flight votes with the old
	// process: re-broadcast our own (stored) vote so peers that missed it
	// can still close the certificate. Ascending seq order, RNG-silent.
	for _, seq := range n.sortedCkptRounds() {
		effs = append(effs, consensus.Broadcast{Msg: n.ckptRounds[seq].vote})
	}
	// An interrupted inspection lost its ConfVC timer; drop it and let the
	// re-armed complaint timers below trigger a fresh one if still needed.
	n.inspecting = nil
	for _, d := range types.SortedDigestKeys(n.compts) {
		effs = append(effs, consensus.SetTimer{
			Kind:  TimerCompt,
			Key:   timerKeyFromDigest(d),
			Delay: n.randTimeout(),
		})
	}
	switch n.state {
	case Redeemer:
		// The computation goroutine died with the old runtime: restart it
		// under a fresh token (the seed re-derives from chain state).
		n.tokenSeq++
		n.puzzleToken = n.tokenSeq
		seed := crypto.PuzzleSeed(n.store.LatestTxBlock().Hash(), n.vPrime)
		effs = append(effs, consensus.StartPuzzle{Token: n.puzzleToken, Seed: seed, RP: n.campRP})
	case Candidate:
		effs = append(effs, consensus.SetTimer{Kind: TimerElection, Key: uint64(n.vPrime), Delay: n.randTimeout()})
	}
	return effs
}

// armPolicyTimer arms the policy view-change timer for the current view,
// randomized within [ViewPolicy+TimeoutMin, ViewPolicy+TimeoutMax] so that
// servers do not campaign simultaneously (split-vote avoidance, §4.2.3).
func (n *Node) armPolicyTimer() []consensus.Effect {
	if n.cfg.ViewPolicy == 0 {
		return nil
	}
	n.policyFired = false
	jitter := n.randTimeout()
	return []consensus.Effect{consensus.SetTimer{
		Kind:  TimerPolicy,
		Key:   uint64(n.View()),
		Delay: n.cfg.ViewPolicy + jitter,
	}}
}

// randTimeout draws a randomized timeout in [TimeoutMin, TimeoutMax].
func (n *Node) randTimeout() time.Duration {
	min, max := n.cfg.TimeoutMin, n.cfg.TimeoutMax
	if max <= min {
		return min
	}
	return min + time.Duration(n.cfg.RNG.Int63n(int64(max-min)))
}

// sign signs canonical bytes with the node's key.
func (n *Node) sign(b []byte) []byte { return n.cfg.Keys.Sign(b) }

// voteOwn seeds a collector with this node's own vote. The signature is
// fresh from the node's own key, so it is recorded without the ed25519
// verify a received vote gets.
func (n *Node) voteOwn(c *quorum.Collector) {
	c.AddOwn(n.cfg.ID, n.sign(c.Statement()))
}

// quorumSize returns 2f+1.
func (n *Node) quorumSize() int { return types.QuorumSize(n.cfg.N) }

// confirmSize returns f+1.
func (n *Node) confirmSize() int { return types.ConfirmSize(n.cfg.N) }

// OnMessage implements consensus.Replica.
func (n *Node) OnMessage(now time.Duration, from consensus.Origin, msg types.Message) []consensus.Effect {
	if n.syncing {
		// While syncing, only sync responses are processed; everything else
		// is stashed and replayed once the chains catch up.
		switch m := msg.(type) {
		case *types.SyncResp, *types.SyncReq:
		case *types.Prop:
			// A proposal is never stashed: replayed after the sync it could
			// reach the leader once its transaction has committed and left
			// the dedup window, and be ordered twice. It is passed on now.
			return n.forwardProp(from, m)
		default:
			if len(n.syncStash) < 4096 {
				n.syncStash = append(n.syncStash, stashedMsg{from, msg})
			}
			return nil
		}
	}
	// The core replica speaks the full PrestigeBFT wire vocabulary; the
	// msgswitch lint holds this switch exhaustive over every exported
	// types.Message implementer, so a new message cannot silently drop.
	//lint:dispatch prestigebft/internal/types
	switch m := msg.(type) {
	// Client-facing.
	case *types.Prop:
		return n.onProp(now, from, m)
	case *types.Compt:
		return n.onCompt(now, from, m)
	case *types.Notif:
		return nil // client-bound commit notification; a replica never receives one

	// View change.
	case *types.ConfVC:
		return n.onConfVC(now, m)
	case *types.ReVC:
		return n.onReVC(now, m)
	case *types.CampVC:
		return n.onCampVC(now, m)
	case *types.VoteCP:
		return n.onVoteCP(now, m)
	case *types.VcBlockMsg:
		return n.onVcBlock(now, m)
	case *types.VcYes:
		return n.onVcYes(now, m)

	// Refresh.
	case *types.Ref:
		return n.onRef(now, m)
	case *types.Rdone:
		return n.onRdone(now, m)

	// Replication.
	case *types.Ord:
		return n.onOrd(now, m)
	case *types.OrdReply:
		return n.onOrdReply(now, m)
	case *types.Cmt:
		return n.onCmt(now, m)
	case *types.Adopt:
		return n.onAdopt(now, m)
	case *types.CmtReply:
		return n.onCmtReply(now, m)
	case *types.TxBlockMsg:
		return n.onTxBlock(now, m)

	// Checkpoints.
	case *types.CkptVote:
		return n.onCkptVote(now, m)

	// Sync.
	case *types.SyncReq:
		return n.onSyncReq(now, m)
	case *types.SyncResp:
		return n.onSyncResp(now, m)
	}
	return nil
}

// OnTimer implements consensus.Replica.
func (n *Node) OnTimer(now time.Duration, kind consensus.TimerKind, key uint64) []consensus.Effect {
	switch kind {
	case TimerCompt:
		return n.onComptTimeout(now, key)
	case TimerConfVC:
		return n.onConfVCTimeout(now, key)
	case TimerElection:
		return n.onElectionTimeout(now, key)
	case TimerPolicy:
		return n.onPolicyTimer(now, key)
	case TimerBatch:
		return n.onBatchTimer(now)
	case TimerInstance:
		return n.onInstanceTimer(now, types.SeqNum(key))
	case TimerSync:
		return n.onSyncTimeout(now, key)
	case TimerVcConfirm:
		return n.onVcConfirmTimeout(now, key)
	}
	return nil
}

// trace emits a protocol trace effect.
func (n *Node) trace(ev consensus.TraceEvent, v types.View, val int64) consensus.Effect {
	return consensus.Trace{Event: ev, View: v, Server: n.cfg.ID, Value: val}
}
