// Package consensus defines the runtime-agnostic contract between a
// consensus replica (PrestigeBFT or a baseline) and its runtime (the
// discrete-event simulator or the live TCP runtime).
//
// A replica is a pure event-driven state machine: it consumes inputs —
// messages, timer expirations, finished proof-of-work computations — and
// returns a list of effects for the runtime to execute. Replicas contain no
// goroutines, no clocks, and no I/O, which makes every protocol path
// deterministic and unit-testable.
package consensus

import (
	"time"

	"prestigebft/internal/types"
)

// Origin identifies the sender of a delivered message.
type Origin struct {
	Client   bool
	ServerID types.ServerID
	ClientID types.ClientID
}

// FromServer builds a server origin.
func FromServer(id types.ServerID) Origin { return Origin{ServerID: id} }

// FromClient builds a client origin.
func FromClient(id types.ClientID) Origin { return Origin{Client: true, ClientID: id} }

// TimerKind enumerates replica timers. Kinds are protocol-specific small
// integers; Key disambiguates instances (e.g. per-transaction complaint
// timers, or — for a pipelined replication window — one timer per in-flight
// sequence number, so concurrent instances time out independently).
type TimerKind uint8

// Effect is an action the runtime must execute on the replica's behalf.
type Effect interface{ isEffect() }

// Send transmits one message to one server.
type Send struct {
	To  types.ServerID
	Msg types.Message
}

// Broadcast transmits one message to every other server.
type Broadcast struct {
	Msg types.Message
}

// SendClient transmits one message to a client.
type SendClient struct {
	To  types.ClientID
	Msg types.Message
}

// SetTimer (re)arms the timer identified by (Kind, Key) to fire after Delay.
type SetTimer struct {
	Kind  TimerKind
	Key   uint64
	Delay time.Duration
}

// BatchTimeout is how long a leader's partial batch waits before it is
// proposed anyway; every protocol flushes after the same 2 ms.
const BatchTimeout = 2 * time.Millisecond

// ArmBatchTimer arms a leader's partial-batch flush timer, the timer of the
// given kind and key 0, by its queue's rule (types.ProposalQueue.ArmTimer).
func ArmBatchTimer(q *types.ProposalQueue, kind TimerKind) []Effect {
	if !q.ArmTimer() {
		return nil
	}
	return []Effect{SetTimer{Kind: kind, Delay: BatchTimeout}}
}

// CancelTimer disarms the timer identified by (Kind, Key).
type CancelTimer struct {
	Kind TimerKind
	Key  uint64
}

// StartPuzzle asks the runtime to solve the reputation-determined
// proof-of-work puzzle (Algo. 2 lines 36-39). The runtime reports completion
// through Replica.OnPuzzleSolved with the same token. RP determines the
// difficulty; the runtime maps it to zero-bits via its configuration.
type StartPuzzle struct {
	Token uint64
	Seed  []byte
	RP    int64
}

// AbortPuzzle cancels an in-flight puzzle computation (the redeemer
// discovered a higher view and transitions back to follower).
type AbortPuzzle struct {
	Token uint64
}

// Commit reports a committed txBlock to the application layer. The runtime
// uses it for metrics; state-machine application happens inside the replica's
// ledger.
type Commit struct {
	Block *types.TxBlock
}

// Trace reports a protocol event for metrics and debugging. Runtimes may
// ignore it; the experiment harness aggregates traces into figures
// (view changes, elections, split votes, reputation changes).
type Trace struct {
	Event  TraceEvent
	View   types.View
	Server types.ServerID
	Value  int64
}

// TraceEvent enumerates observable protocol events.
type TraceEvent uint8

const (
	// TraceViewChangeStart marks a server confirming a view change
	// (conf_QC assembled, transitioning to redeemer).
	TraceViewChangeStart TraceEvent = iota + 1
	// TraceCandidate marks a redeemer finishing its computation.
	TraceCandidate
	// TraceElected marks a candidate winning an election.
	TraceElected
	// TraceViewInstalled marks adoption of a new vcBlock.
	TraceViewInstalled
	// TraceSplitVote marks a candidate timing out without a winner.
	TraceSplitVote
	// TraceRPChange reports a server's new reputation penalty (Value).
	TraceRPChange
	// TraceRefresh marks a completed reputation refresh.
	TraceRefresh
	// TraceSyncUp marks a stale server syncing its logs.
	TraceSyncUp
	// TraceCheckpoint marks a checkpoint certificate assembled and the log
	// compacted to its seq (Value).
	TraceCheckpoint
	// TraceSnapshotInstall marks a stale server installing a certified
	// snapshot at seq (Value) instead of replaying compacted history.
	TraceSnapshotInstall
	// TraceSnapshotReject marks a snapshot at seq (Value) that failed
	// verification or restore — a replica stuck below every peer's log
	// base that keeps rejecting snapshots can never catch up, so
	// observers must be able to see the rejections.
	TraceSnapshotReject
)

func (e TraceEvent) String() string {
	switch e {
	case TraceViewChangeStart:
		return "view-change-start"
	case TraceCandidate:
		return "candidate"
	case TraceElected:
		return "elected"
	case TraceViewInstalled:
		return "view-installed"
	case TraceSplitVote:
		return "split-vote"
	case TraceRPChange:
		return "rp-change"
	case TraceRefresh:
		return "refresh"
	case TraceSyncUp:
		return "sync-up"
	case TraceCheckpoint:
		return "checkpoint"
	case TraceSnapshotInstall:
		return "snapshot-install"
	case TraceSnapshotReject:
		return "snapshot-reject"
	}
	return "unknown"
}

func (Send) isEffect()        {}
func (Broadcast) isEffect()   {}
func (SendClient) isEffect()  {}
func (SetTimer) isEffect()    {}
func (CancelTimer) isEffect() {}
func (StartPuzzle) isEffect() {}
func (AbortPuzzle) isEffect() {}
func (Commit) isEffect()      {}
func (Trace) isEffect()       {}

// Replica is the contract every consensus implementation satisfies.
type Replica interface {
	// ID returns the replica's server identity.
	ID() types.ServerID
	// Init produces the replica's initial effects (arming timers, leader
	// kick-off). now is the current runtime time.
	Init(now time.Duration) []Effect
	// OnMessage processes one delivered message.
	OnMessage(now time.Duration, from Origin, msg types.Message) []Effect
	// OnTimer processes a timer expiration. Runtimes guarantee a timer
	// fires at most once per SetTimer and never after CancelTimer.
	OnTimer(now time.Duration, kind TimerKind, key uint64) []Effect
	// OnPuzzleSolved reports a finished proof-of-work computation.
	OnPuzzleSolved(now time.Duration, token uint64, nonce []byte, hr types.Digest) []Effect
}

// Faultable is the optional contract a replica answers so that the
// protocol-agnostic fault injector (internal/faults) can misbehave on its
// behalf. The injector knows no protocol: each protocol answers for its own
// messages and its own notion of leadership.
type Faultable interface {
	Replica
	// Leading reports whether the replica holds leadership right now — the
	// window in which a repeated-view-change (F4) attacker misbehaves.
	Leading() bool
	// Replication reports whether msg is replication traffic (client
	// requests, proposals, votes, commits, client notifications) rather
	// than view-change, sync or checkpoint traffic, in either direction.
	Replication(msg types.Message) bool
	// Forge returns a copy of msg with its authentication destroyed, the
	// erroneous replies of attack F3. It never mutates msg; a message the
	// protocol does not sign comes back unchanged.
	Forge(msg types.Message) types.Message
}

// MessageCostHint lets the simulator charge CPU time per message without
// protocol knowledge: it returns the number of signature verifications and
// per-transaction units a replica performs when handling msg.
func MessageCostHint(msg types.Message) (nSigs, nTx int) {
	switch m := msg.(type) {
	case *types.Prop:
		// Client requests are authenticated with MAC-class checks (as in
		// PBFT-descended systems); the per-transaction unit covers it.
		return 0, 1
	case *types.Compt:
		return 0, 1
	case *types.Ord:
		// Leader sig; the per-transaction unit covers each client
		// signature the batch carries, checked as a Prop's is.
		return 1, len(m.Txs)
	case *types.VoteCP:
		// Sender sig, plus one ordering_QC aggregate and per-tx digesting
		// for every locked slot attached as view-change evidence.
		nTx := 0
		for i := range m.Locked {
			nTx += len(m.Locked[i].Txs)
		}
		return 1 + len(m.Locked), nTx
	case *types.OrdReply, *types.CmtReply, *types.ReVC, *types.VcYes, *types.Ref, *types.Notif, *types.CkptVote:
		return 1, 0
	case *types.Cmt:
		return 2, 0 // sender sig + ordering_QC aggregate
	case *types.Adopt:
		return 2, len(m.Block.Txs) // sender sig + ordering_QC aggregate
	case *types.TxBlockMsg:
		return 3, len(m.Block.Txs) // sender + both QCs
	case *types.CampVC:
		return 3, 0 // sender + conf_QC + puzzle hash & rp recalculation
	case *types.VcBlockMsg:
		return 3, 0
	case *types.Rdone:
		return 2, 0
	case *types.SyncReq:
		return 0, 0
	case *types.SyncResp:
		n := 2 * len(m.VcBlocks)
		for i := range m.TxBlocks {
			n += 2
			_ = i
		}
		if m.Snapshot != nil {
			// ckpt_QC + the anchor's two QCs, plus state rehashing.
			n += 3
		}
		return n, 0
	}
	return 1, 0
}
