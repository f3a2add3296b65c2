package types

import (
	"encoding/binary"
)

// Message is implemented by every protocol message exchanged between
// servers and clients; its Go type names it. ProtocolMessage is a no-op
// marker (the proto.Message idiom) that keeps arbitrary values out of the
// interface and lets the msgswitch analyzer and the codec's exhaustiveness
// test find the message set. A message's size is its encoding's length
// (transport/codec): the live wire and the simulator's byte model alike.
type Message interface {
	ProtocolMessage()
}

// Signed is implemented by messages that carry a signature over their
// canonical SigningBytes.
type Signed interface {
	Message
	SigningBytes() []byte
	Signature() []byte
}

// --- Client-facing messages ------------------------------------------------

// Prop is a client proposal ⟨Prop, t, d, c, σc, tx⟩ (§4.3). Clients
// broadcast it to all servers.
type Prop struct {
	Tx  Transaction
	D   Digest // digest of the transaction
	Sig []byte // client signature over (t, d, c)
}

func (*Prop) ProtocolMessage() {}

// SigningBytes covers the timestamp, digest, and client ID, matching the
// paper's σc that signs t, d, and c.
func (m *Prop) SigningBytes() []byte { return PropStatement(&m.Tx, m.D) }
func (m *Prop) Signature() []byte    { return m.Sig }

// PropStatement is what a client signs for its transaction with digest d:
// the timestamp, the digest and the client ID (the paper's σc over t, d
// and c).
func PropStatement(tx *Transaction, d Digest) []byte {
	buf := make([]byte, 0, 8+32+4)
	buf = binary.BigEndian.AppendUint64(buf, uint64(tx.Timestamp))
	buf = append(buf, d[:]...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(tx.Client))
	return buf
}

// Notif notifies a client that its transaction committed. A client considers
// its transaction committed upon receiving f+1 matching Notifs.
//
// Leader is the sender's current leader, a hint telling the client where to
// send its next proposal; 0 means no hint (the baselines send none). It is
// signed with the rest, so a replica answers for the hint it gives.
//
// The signature does not cover the transaction alone: it covers the root of
// a Merkle tree over the (TxD, Status) pairs of the whole block N, and
// (Index, Path) prove this transaction's pair is leaf Index of that tree
// (notifproof.go). Every protocol builds its Notifs with BlockNotifs, so a
// replica signs once per block, and every Notif it sends for the block
// carries the same Sig. A Notif about one transaction by itself is the
// one-leaf tree: Index 0, no Path.
type Notif struct {
	From   ServerID
	Leader ServerID // the sender's current leader; 0 = no hint
	V      View
	N      SeqNum   // sequence number of the committing txBlock
	TxD    Digest   // digest of the client's transaction
	Status bool     // per-transaction consensus result
	Index  uint32   // position of (TxD, Status) among the block's leaves
	Path   []Digest // sibling hashes from the leaf up to the root
	Sig    []byte   // over NotifStatement(From, Leader, V, N, root)
}

func (*Notif) ProtocolMessage() {}

// SigningBytes recomputes the root from (TxD, Status, Index, Path), so one
// signature check proves both that From signed the block's root and that
// this transaction and status are under it. A malformed proof (see
// NotifRoot) yields nil, the empty statement, which no replica ever signs.
func (m *Notif) SigningBytes() []byte {
	root, ok := NotifRoot(NotifLeaf(m.TxD, m.Status), m.Index, m.Path)
	if !ok {
		return nil
	}
	return NotifStatement(m.From, m.Leader, m.V, m.N, root)
}
func (m *Notif) Signature() []byte { return m.Sig }

// Compt is a client complaint (§4.2.1): the client rebroadcasts its proposal
// suspecting a leader failure.
type Compt struct {
	Prop Prop
	Sig  []byte // client signature over the complaint
}

func (*Compt) ProtocolMessage()       {}
func (m *Compt) SigningBytes() []byte { return append([]byte("compt"), m.Prop.SigningBytes()...) }
func (m *Compt) Signature() []byte    { return m.Sig }

// --- View-change messages (§4.2) -------------------------------------------

// ConfReason distinguishes failure-detection view changes (client complaint)
// from policy-defined view changes (e.g. a timing policy, §4.2.1).
type ConfReason uint8

const (
	// ReasonComplaint marks a view change triggered by an unserved client
	// complaint.
	ReasonComplaint ConfReason = iota + 1
	// ReasonPolicy marks a view change triggered by a policy (timing or
	// throughput threshold).
	ReasonPolicy
)

// ConfVC starts an inspection of the current leader: the sender suspects the
// leader failed to commit the complained transaction (or a policy fired) and
// asks the other servers to confirm.
type ConfVC struct {
	From   ServerID
	V      View
	Reason ConfReason
	TxD    Digest // digest of the complained transaction (ReasonComplaint)
	Client ClientID
	Sig    []byte
}

func (*ConfVC) ProtocolMessage() {}
func (m *ConfVC) SigningBytes() []byte {
	buf := make([]byte, 0, 2+8+1+32+4)
	buf = binary.BigEndian.AppendUint16(buf, uint16(m.From))
	buf = binary.BigEndian.AppendUint64(buf, uint64(m.V))
	buf = append(buf, byte(m.Reason))
	buf = append(buf, m.TxD[:]...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(m.Client))
	return buf
}
func (m *ConfVC) Signature() []byte { return m.Sig }

// ReVC replies to a ConfVC: the sender confirms it observed the same
// complaint (or the same policy trigger) in view V. f+1 ReVCs form conf_QC.
type ReVC struct {
	From ServerID
	To   ServerID // the inspecting server this reply supports
	V    View
	Sig  []byte
}

func (*ReVC) ProtocolMessage() {}
func (m *ReVC) SigningBytes() []byte {
	return QCStatementBytes(QCConf, m.V, SeqNum(m.To), Digest{})
}
func (m *ReVC) Signature() []byte { return m.Sig }

// CampVC is a candidate's campaign message (Algo. 2 line 43):
// ⟨conf_QC, V, V', rp, nc, hr, ci, txBlock, σ⟩.
type CampVC struct {
	From   ServerID
	ConfQC QC
	V      View   // the view the campaigner departed from
	VPrime View   // the view campaigned for
	RP     int64  // claimed reputation penalty for V'
	CI     int64  // claimed compensation index for V'
	Nonce  []byte // PoW nonce
	HR     Digest // PoW hash result
	TxN    SeqNum // candidate's latest txBlock sequence number
	TxHash Digest // candidate's latest txBlock hash (the PoW seed block)
	VcN    View   // candidate's latest vcBlock view (for SyncUp decisions)
	Sig    []byte
}

func (*CampVC) ProtocolMessage() {}
func (m *CampVC) SigningBytes() []byte {
	buf := make([]byte, 0, 128)
	buf = binary.BigEndian.AppendUint16(buf, uint16(m.From))
	buf = binary.BigEndian.AppendUint64(buf, uint64(m.V))
	buf = binary.BigEndian.AppendUint64(buf, uint64(m.VPrime))
	buf = binary.BigEndian.AppendUint64(buf, uint64(m.RP))
	buf = binary.BigEndian.AppendUint64(buf, uint64(m.CI))
	buf = append(buf, m.Nonce...)
	buf = append(buf, m.HR[:]...)
	buf = binary.BigEndian.AppendUint64(buf, uint64(m.TxN))
	buf = append(buf, m.TxHash[:]...)
	return buf
}
func (m *CampVC) Signature() []byte { return m.Sig }

// VoteCP is a follower's vote for a candidate in view VPrime.
//
// Locked carries the voter's certified-but-uncommitted replication window:
// every prepared block above the voter's committed tip for which it has seen
// a valid ordering_QC (the leader's Cmt). Any block that reached a commit_QC
// anywhere was, by quorum intersection, locked at a correct server among any
// 2f+1 voters, so the union of Locked across the winning vote set is
// guaranteed to contain every potentially committed block — the evidence the
// new leader adopts (re-proposes byte-identically) to preserve the
// committed-prefix invariant across view changes. The entries are
// self-certifying through their ordering_QCs and therefore excluded from the
// vote signature.
type VoteCP struct {
	From   ServerID
	Cand   ServerID
	VPrime View
	Locked []TxBlock
	Sig    []byte
}

func (*VoteCP) ProtocolMessage() {}
func (m *VoteCP) SigningBytes() []byte {
	return QCStatementBytes(QCVote, m.VPrime, SeqNum(m.Cand), Digest{})
}
func (m *VoteCP) Signature() []byte { return m.Sig }

// VcBlockMsg broadcasts the new leader's vcBlock (Algo. 2 line 51).
type VcBlockMsg struct {
	From  ServerID
	Block VcBlock
	Sig   []byte
}

func (*VcBlockMsg) ProtocolMessage() {}
func (m *VcBlockMsg) SigningBytes() []byte {
	d := m.Block.Hash()
	return append([]byte("vcblock"), d[:]...)
}
func (m *VcBlockMsg) Signature() []byte { return m.Sig }

// VcYes acknowledges a valid vcBlock. 2f+1 vcYes messages complete VC
// consensus (§4.2.4).
type VcYes struct {
	From      ServerID
	V         View
	BlockHash Digest
	Sig       []byte
}

func (*VcYes) ProtocolMessage() {}
func (m *VcYes) SigningBytes() []byte {
	return QCStatementBytes(QCGeneric, m.V, 0, m.BlockHash)
}
func (m *VcYes) Signature() []byte { return m.Sig }

// --- Refresh messages (§4.2.5) ---------------------------------------------

// Ref requests a reputation refresh: the sender's rp exceeded the threshold π.
type Ref struct {
	From ServerID
	V    View
	Sig  []byte
}

func (*Ref) ProtocolMessage() {}
func (m *Ref) SigningBytes() []byte {
	return QCStatementBytes(QCRefresh, m.V, 0, Digest{})
}
func (m *Ref) Signature() []byte { return m.Sig }

// Rdone announces a completed refresh backed by rs_QC; receivers reset the
// sender's rp and ci in the current vcBlock.
type Rdone struct {
	From ServerID
	V    View
	RsQC QC
	RP   int64
	CI   int64
	Sig  []byte
}

func (*Rdone) ProtocolMessage() {}
func (m *Rdone) SigningBytes() []byte {
	buf := make([]byte, 0, 2+8+16)
	buf = binary.BigEndian.AppendUint16(buf, uint16(m.From))
	buf = binary.BigEndian.AppendUint64(buf, uint64(m.V))
	buf = binary.BigEndian.AppendUint64(buf, uint64(m.RP))
	buf = binary.BigEndian.AppendUint64(buf, uint64(m.CI))
	return buf
}
func (m *Rdone) Signature() []byte { return m.Sig }

// --- Replication messages (§4.3) -------------------------------------------

// Ord starts phase 1 of a replication instance: the leader assigns sequence
// number N to a batch of proposals. ClientSigs[i] is the σc of Txs[i]'s
// Prop, so a follower checks that every client signed its transaction
// before it votes: a leader cannot order a request no client made. The
// signatures authenticate themselves, so the leader's Sig does not cover
// them, and the block keeps only the transactions.
type Ord struct {
	From       ServerID
	V          View
	N          SeqNum
	Prev       Digest // previous txBlock hash, chaining the log
	Txs        []Transaction
	ClientSigs [][]byte
	Sig        []byte
}

func (*Ord) ProtocolMessage() {}
func (m *Ord) SigningBytes() []byte {
	b := &TxBlock{Header: TxBlockHeader{V: m.V, N: m.N, PrevHash: m.Prev, BatchLen: uint32(len(m.Txs))}, Txs: m.Txs}
	d := b.ContentDigest()
	return QCStatementBytes(QCOrdering, m.V, m.N, d)
}
func (m *Ord) Signature() []byte { return m.Sig }

// OrdReply is a follower's phase-1 vote, signed over the ordering statement.
type OrdReply struct {
	From ServerID
	V    View
	N    SeqNum
	D    Digest // ContentDigest of the proposed block
	Sig  []byte
}

func (*OrdReply) ProtocolMessage() {}
func (m *OrdReply) SigningBytes() []byte {
	return QCStatementBytes(QCOrdering, m.V, m.N, m.D)
}
func (m *OrdReply) Signature() []byte { return m.Sig }

// Cmt starts phase 2: the leader broadcasts the assembled ordering_QC.
type Cmt struct {
	From       ServerID
	V          View
	N          SeqNum
	OrderingQC QC
	Sig        []byte
}

func (*Cmt) ProtocolMessage() {}
func (m *Cmt) SigningBytes() []byte {
	return QCStatementBytes(QCCommit, m.V, m.N, m.OrderingQC.Digest)
}
func (m *Cmt) Signature() []byte { return m.Sig }

// CmtReply is a follower's phase-2 vote.
type CmtReply struct {
	From ServerID
	V    View
	N    SeqNum
	D    Digest
	Sig  []byte
}

func (*CmtReply) ProtocolMessage() {}
func (m *CmtReply) SigningBytes() []byte {
	return QCStatementBytes(QCCommit, m.V, m.N, m.D)
}
func (m *CmtReply) Signature() []byte { return m.Sig }

// Adopt re-proposes a block from an earlier view that already carries its
// ordering_QC: the new leader's adoption of the previous leader's in-flight
// replication window. Because the ordering certificate already proves 2f+1
// servers agreed on the block's position and content, receivers skip the
// Ordering phase and answer directly with a CmtReply over the original
// commit statement — adoption is a single round trip, and the block commits
// byte-identical to what the old leader would have committed (commit_QC
// canonical form excludes signers).
type Adopt struct {
	From  ServerID
	V     View    // the adopting leader's (current) view
	Block TxBlock // original header and txs, with OrderingQC; CommitQC unset
	Sig   []byte
}

func (*Adopt) ProtocolMessage() {}
func (m *Adopt) SigningBytes() []byte {
	d := m.Block.ContentDigest()
	buf := make([]byte, 0, 5+2+8+32)
	buf = append(buf, []byte("adopt")...)
	buf = binary.BigEndian.AppendUint16(buf, uint16(m.From))
	buf = binary.BigEndian.AppendUint64(buf, uint64(m.V))
	buf = append(buf, d[:]...)
	return buf
}
func (m *Adopt) Signature() []byte { return m.Sig }

// TxBlockMsg broadcasts the finished txBlock with its commit_QC so followers
// can commit and notify clients.
type TxBlockMsg struct {
	From  ServerID
	Block TxBlock
	Sig   []byte
}

func (*TxBlockMsg) ProtocolMessage() {}
func (m *TxBlockMsg) SigningBytes() []byte {
	d := m.Block.Hash()
	return append([]byte("txblock"), d[:]...)
}
func (m *TxBlockMsg) Signature() []byte { return m.Sig }

// --- Certified checkpoints ---------------------------------------------------

// CkptVote is one replica's signed checkpoint vote, broadcast when its
// committed height crosses a Config.CheckpointInterval boundary. 2f+1 votes
// over the same (Seq, StateHash) assemble ckpt_QC; the resulting certificate
// authorizes pruning the log below Seq (DESIGN.md §10). The vote carries the
// voter's StateHash so receivers can verify the signature immediately, but a
// vote only ever counts toward a collector built over the receiver's own
// locally computed state hash — a divergent hash simply never certifies.
type CkptVote struct {
	From      ServerID
	Seq       SeqNum
	StateHash Digest
	Sig       []byte
}

func (*CkptVote) ProtocolMessage() {}
func (m *CkptVote) SigningBytes() []byte {
	return QCStatementBytes(QCCheckpoint, 0, m.Seq, m.StateHash)
}
func (m *CkptVote) Signature() []byte { return m.Sig }

// --- Log synchronization (SyncUp, §4.2.3) -----------------------------------

// SyncKind selects which chain a SyncReq targets.
type SyncKind uint8

const (
	// SyncTx requests txBlocks.
	SyncTx SyncKind = iota + 1
	// SyncVc requests vcBlocks.
	SyncVc
)

// SyncReq asks a peer for missing blocks in [Start, End].
type SyncReq struct {
	From  ServerID
	Kind  SyncKind
	Start uint64
	End   uint64
}

func (*SyncReq) ProtocolMessage() {}

// SyncResp returns the requested blocks. Blocks are self-certifying through
// their QCs, so the response itself is unsigned.
//
// When the requester's gap starts below the responder's log base (the
// history was compacted away), Snapshot carries the certified checkpoint
// state instead of the pruned blocks, and TxBlocks holds only the retained
// tail above the base: the requester installs the snapshot, then replays the
// tail — O(CheckpointInterval) instead of O(history).
type SyncResp struct {
	From     ServerID
	Kind     SyncKind
	TxBlocks []TxBlock
	VcBlocks []VcBlock
	Snapshot *SnapshotPackage
}

func (*SyncResp) ProtocolMessage() {}
