// Package types defines the identifiers, blocks, quorum certificates, and
// protocol messages shared by the PrestigeBFT core and the baseline
// implementations (HotStuff, SBFT, Prosecutor).
//
// All structures are plain values so they can be passed through the in-process
// discrete-event simulator without serialization and through the TCP
// transport, which encodes every message kind with transport/codec.
// Signable structures expose SigningBytes, a canonical binary encoding that
// is independent of the wire format.
package types

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"slices"
	"sort"
	"time"
)

// ServerID identifies a consensus server (replica). Servers are numbered
// 1..n; 0 is reserved as "no server".
type ServerID uint16

// NoServer is the zero ServerID, meaning "no server".
const NoServer ServerID = 0

// ClientID identifies a client. Clients are numbered 1..c; 0 is reserved.
type ClientID uint32

// View is a monotonically increasing system configuration number. Each view
// has at most one leader (Property P1 of the paper).
type View uint64

// SeqNum is a txBlock sequence number (the paper's "n"). The genesis txBlock
// has sequence number 0 and carries no transactions.
type SeqNum uint64

// Digest is a SHA-256 hash.
type Digest [32]byte

// String renders the first 8 hex characters of the digest, which is enough
// for logs and error messages.
func (d Digest) String() string { return hex.EncodeToString(d[:4]) }

// IsZero reports whether the digest is all zeroes.
func (d Digest) IsZero() bool { return d == Digest{} }

// HashBytes returns the SHA-256 digest of b.
func HashBytes(b []byte) Digest { return sha256.Sum256(b) }

// SortedDigestKeys returns m's keys in ascending byte order. Protocol code
// must use it (or an equivalent fixed order) whenever iterating a
// digest-keyed map produces effects — Go's randomized map order would
// otherwise leak into transaction ordering and RNG consumption, breaking
// reproducible simulation.
func SortedDigestKeys[V any](m map[Digest]V) []Digest {
	ds := make([]Digest, 0, len(m))
	for d := range m {
		ds = append(ds, d)
	}
	sort.Slice(ds, func(i, j int) bool { return bytes.Compare(ds[i][:], ds[j][:]) < 0 })
	return ds
}

// SortedKeys returns m's keys in ascending order, for the ordered identity
// key types (ServerID, ClientID, View, SeqNum, ...). Same contract as
// SortedDigestKeys: deterministic packages iterate identity-keyed maps
// through it whenever loop effects could leak iteration order.
func SortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	ks := make([]K, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	return ks
}

// Transaction is an opaque client request payload plus its provenance.
// The consensus layer treats Data as opaque; applications interpret it
// through a state machine.
type Transaction struct {
	Timestamp int64    // client-assigned unique timestamp (the paper's t)
	Client    ClientID // proposing client (the paper's c)
	Data      []byte   // the request payload (the paper's tx)
}

// Digest returns the canonical digest of the transaction (the paper's d).
func (t *Transaction) Digest() Digest {
	// One allocation: every replica digests every transaction it applies.
	buf := make([]byte, 0, 12+len(t.Data))
	buf = binary.BigEndian.AppendUint64(buf, uint64(t.Timestamp))
	buf = binary.BigEndian.AppendUint32(buf, uint32(t.Client))
	buf = append(buf, t.Data...)
	return HashBytes(buf)
}

// QCKind distinguishes the five quorum certificate flavours used by
// PrestigeBFT (Figure 3 and §4.2.5 of the paper).
type QCKind uint8

const (
	// QCConf confirms a view change (conf_QC, threshold f+1).
	QCConf QCKind = iota + 1
	// QCVote confirms leadership legitimacy (vc_QC, threshold 2f+1).
	QCVote
	// QCOrdering confirms the ordering action (ordering_QC, threshold 2f+1).
	QCOrdering
	// QCCommit confirms the commit action (commit_QC, threshold 2f+1).
	QCCommit
	// QCRefresh authorizes a reputation refresh (rs_QC, threshold 2f+1).
	QCRefresh
	// QCCheckpoint certifies a state checkpoint (ckpt_QC, threshold 2f+1).
	QCCheckpoint
	// QCGeneric is used by baseline protocols for their phase certificates.
	QCGeneric
)

func (k QCKind) String() string {
	switch k {
	case QCConf:
		return "conf_QC"
	case QCVote:
		return "vc_QC"
	case QCOrdering:
		return "ordering_QC"
	case QCCommit:
		return "commit_QC"
	case QCRefresh:
		return "rs_QC"
	case QCCheckpoint:
		return "ckpt_QC"
	case QCGeneric:
		return "generic_QC"
	}
	return fmt.Sprintf("QCKind(%d)", uint8(k))
}

// QC is a quorum certificate: proof that a threshold of servers signed the
// same statement. The paper compresses QCs with (t,n) threshold signatures;
// this implementation keeps the individual ed25519 signatures together with
// a signer list (see DESIGN.md §4 for the substitution rationale). Message
// size accounting in the simulator uses the O(1) compressed size so that
// bandwidth behaviour matches the paper.
type QC struct {
	Kind    QCKind
	View    View
	Seq     SeqNum // meaningful for ordering/commit QCs; 0 otherwise
	Digest  Digest // digest of the certified statement
	Signers []ServerID
	Sigs    [][]byte
}

// StatementBytes returns the canonical bytes every signer of this QC signed.
func QCStatementBytes(kind QCKind, view View, seq SeqNum, digest Digest) []byte {
	buf := make([]byte, 0, 1+8+8+32)
	buf = append(buf, byte(kind))
	buf = binary.BigEndian.AppendUint64(buf, uint64(view))
	buf = binary.BigEndian.AppendUint64(buf, uint64(seq))
	buf = append(buf, digest[:]...)
	return buf
}

// StatementBytes returns the canonical bytes signed by each signer of qc.
func (qc *QC) StatementBytes() []byte {
	return QCStatementBytes(qc.Kind, qc.View, qc.Seq, qc.Digest)
}

// Len returns the number of signers in the certificate.
func (qc *QC) Len() int { return len(qc.Signers) }

// IsZero reports whether the QC is unset.
func (qc *QC) IsZero() bool { return qc.Kind == 0 && len(qc.Signers) == 0 }

// Size is the modeled on-the-wire size of the certificate in bytes, counted
// into the WireSize of each message that carries it. Threshold signatures
// are O(1): one 64-byte aggregate plus metadata.
func (qc *QC) Size() int {
	if qc.IsZero() {
		return 0
	}
	return 64 + 1 + 8 + 8 + 32
}

// hashInto feeds the QC's canonical form into h.
func (qc *QC) appendCanonical(buf []byte) []byte {
	buf = append(buf, byte(qc.Kind))
	buf = binary.BigEndian.AppendUint64(buf, uint64(qc.View))
	buf = binary.BigEndian.AppendUint64(buf, uint64(qc.Seq))
	buf = append(buf, qc.Digest[:]...)
	// Signer identity matters for auditability but two QCs certifying the
	// same statement are interchangeable, so signers are excluded from
	// block hashes. (Two leaders assembling QCs from different vote subsets
	// must still produce identical block hashes.)
	return buf
}

// --- txBlock (Figure 3, right) -------------------------------------------

// TxBlockHeader carries the block agreement fragment of a txBlock.
type TxBlockHeader struct {
	V        View   // view number the block was committed in
	N        SeqNum // block index (sequence number)
	PrevHash Digest // address of the previous txBlock
	BatchLen uint32 // number of transactions (len(Txs)); part of the header for cheap sync decisions
}

// TxBlock is the deterministic consensus result of one replication instance
// (the paper's transaction block). Status[i] records the per-transaction
// consensus result; in this implementation a transaction that reaches the
// commit_QC is true, and transactions rejected by the application-defined
// admission rule are false (they are still ordered, matching the paper's
// "users can define the criteria for useful txBlocks"). A transaction the
// ledger's client table already covers is not applied again; its status is
// its client's recorded one when it is that client's last request, and false
// otherwise.
type TxBlock struct {
	Header     TxBlockHeader
	Txs        []Transaction
	Status     []bool
	OrderingQC QC
	CommitQC   QC
}

// ContentDigest hashes the proposal content (header identity + transactions)
// that ordering votes certify. It excludes the QCs, which are produced after
// the votes.
func (b *TxBlock) ContentDigest() Digest {
	h := sha256.New()
	var hdr [8 * 3]byte
	binary.BigEndian.PutUint64(hdr[0:], uint64(b.Header.V))
	binary.BigEndian.PutUint64(hdr[8:], uint64(b.Header.N))
	binary.BigEndian.PutUint64(hdr[16:], uint64(b.Header.BatchLen))
	h.Write(hdr[:])
	h.Write(b.Header.PrevHash[:])
	for i := range b.Txs {
		d := b.Txs[i].Digest()
		h.Write(d[:])
	}
	var out Digest
	h.Sum(out[:0])
	return out
}

// Hash returns the block address: the content digest chained with the
// commit certificate digest.
func (b *TxBlock) Hash() Digest {
	h := sha256.New()
	cd := b.ContentDigest()
	h.Write(cd[:])
	h.Write(b.CommitQC.appendCanonical(nil))
	var out Digest
	h.Sum(out[:0])
	return out
}

// PredictedHash returns the address the block will have once it commits in
// its proposal view. The commit_QC's canonical form excludes signers, so the
// final Hash is fully determined by (view, seq, content digest) — which lets
// a pipelining leader chain block N+1 onto block N before N's certificate
// exists, and lets followers verify that chaining on prepared-but-uncommitted
// predecessors. For a block that already carries its commit_QC this equals
// Hash().
func (b *TxBlock) PredictedHash() Digest {
	if !b.CommitQC.IsZero() {
		return b.Hash()
	}
	cp := *b
	cp.CommitQC = QC{Kind: QCCommit, View: b.Header.V, Seq: b.Header.N, Digest: b.ContentDigest()}
	return cp.Hash()
}

// --- Certified checkpoints (log compaction and snapshot catch-up) ----------

// CheckpointHeader identifies one state checkpoint: the ledger state every
// correct replica deterministically reaches after committing the chain
// prefix through Seq. It binds the three inputs a recovered replica needs to
// continue from the checkpoint — the chain anchor (BlockHash), the client
// table and application state (AppDigest), and the reputation inputs (RepDigest, the
// address of the latest vcBlock at or below the anchor's view, which
// transitively commits to every rp/ci fragment the prestige engine reads;
// see ledger.Store.RepDigestUpTo for why this converges under §4.2.5
// refreshes) — so 2f+1 matching StateHash votes certify all of them at once.
type CheckpointHeader struct {
	Seq       SeqNum // checkpointed sequence number
	View      View   // Header.V of the txBlock at Seq
	BlockHash Digest // address of the txBlock at Seq (the chain anchor)
	AppDigest Digest // hash of the certified state (client table ‖ app state) after applying 1..Seq
	RepDigest Digest // hash of the latest vcBlock with V ≤ View
}

// StateHash returns the canonical digest checkpoint votes sign (inside the
// QCCheckpoint statement) and the certificate carries.
func (h *CheckpointHeader) StateHash() Digest {
	buf := make([]byte, 0, 8+8+32*3)
	buf = binary.BigEndian.AppendUint64(buf, uint64(h.Seq))
	buf = binary.BigEndian.AppendUint64(buf, uint64(h.View))
	buf = append(buf, h.BlockHash[:]...)
	buf = append(buf, h.AppDigest[:]...)
	buf = append(buf, h.RepDigest[:]...)
	return HashBytes(buf)
}

// CheckpointCert is a certified checkpoint: the header plus ckpt_QC — 2f+1
// signatures over (QCCheckpoint, Seq, StateHash). Once assembled, the
// certificate becomes the new log base: every block strictly below Seq can
// be pruned, because any replica stuck below the base can be served the
// certified snapshot instead of replayed history (DESIGN.md §10).
type CheckpointCert struct {
	Header CheckpointHeader
	QC     QC
}

// IsZero reports whether the certificate is unset.
func (c *CheckpointCert) IsZero() bool { return c.QC.IsZero() }

// SnapshotPackage is the state-transfer payload of the snapshot sync path:
// the certified checkpoint, the full anchor block at the checkpoint seq
// (self-certifying through its own QCs; the retained tail chains from its
// address), and the certified state (the ledger's client table followed by
// the encoded application state) whose hash the certificate covers.
type SnapshotPackage struct {
	Cert     CheckpointCert
	Anchor   TxBlock
	AppState []byte
}

// --- vcBlock (Figure 3, left) --------------------------------------------

// VcBlock is the deterministic consensus result of one view change. It
// records the new leader, the certificates that legitimize the change, and
// the reputation fragment: the reputation penalty (rp) and compensation
// index (ci) of every server as of this view.
type VcBlock struct {
	V        View               // view number
	LeaderID ServerID           // elected leader
	PrevHash Digest             // address of the previous vcBlock
	ConfQC   QC                 // confirms leader failure / policy trigger (threshold f+1)
	VcQC     QC                 // confirms leadership legitimacy (threshold 2f+1)
	RP       map[ServerID]int64 // reputation penalty per server
	CI       map[ServerID]int64 // compensation index per server
}

// CloneReputation deep-copies the reputation fragment (rp and ci maps) so a
// new vcBlock can inherit the old view's fragment and mutate only the
// elected leader's entries (§4.2.4).
func (b *VcBlock) CloneReputation() (rp, ci map[ServerID]int64) {
	rp = make(map[ServerID]int64, len(b.RP))
	ci = make(map[ServerID]int64, len(b.CI))
	for id, v := range b.RP {
		rp[id] = v
	}
	for id, v := range b.CI {
		ci[id] = v
	}
	return rp, ci
}

// Hash returns the canonical block address. Map iteration order is
// normalized by sorting server IDs.
func (b *VcBlock) Hash() Digest {
	h := sha256.New()
	var hdr [8]byte
	binary.BigEndian.PutUint64(hdr[:], uint64(b.V))
	h.Write(hdr[:])
	var sid [2]byte
	binary.BigEndian.PutUint16(sid[:], uint16(b.LeaderID))
	h.Write(sid[:])
	h.Write(b.PrevHash[:])
	h.Write(b.ConfQC.appendCanonical(nil))
	h.Write(b.VcQC.appendCanonical(nil))
	ids := make([]ServerID, 0, len(b.RP))
	for id := range b.RP {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		var rec [2 + 8 + 8]byte
		binary.BigEndian.PutUint16(rec[0:], uint16(id))
		binary.BigEndian.PutUint64(rec[2:], uint64(b.RP[id]))
		binary.BigEndian.PutUint64(rec[10:], uint64(b.CI[id]))
		h.Write(rec[:])
	}
	var out Digest
	h.Sum(out[:0])
	return out
}

// ReputationEqualExcept reports whether the reputation fragments of b and
// other are identical except possibly at server id. Non-leader servers use
// this to validate that a new vcBlock only changed the elected leader's
// rp and ci (§4.2.4: "If the only change is the leader's rp and ci, servers
// adopt newVcBlock").
func (b *VcBlock) ReputationEqualExcept(other *VcBlock, id ServerID) bool {
	if len(b.RP) != len(other.RP) || len(b.CI) != len(other.CI) {
		return false
	}
	for sid, v := range b.RP {
		ov, ok := other.RP[sid]
		if !ok || (sid != id && ov != v) {
			return false
		}
	}
	for sid, v := range b.CI {
		ov, ok := other.CI[sid]
		if !ok || (sid != id && ov != v) {
			return false
		}
	}
	return true
}

// GenesisVcBlock builds the initial vcBlock for view 1 with every server's
// rp and ci set to the initial values (the paper initializes rp(1)=1, ci=1)
// and server initialLeader as the first leader.
func GenesisVcBlock(n int, initialLeader ServerID, initialRP, initialCI int64) *VcBlock {
	rp := make(map[ServerID]int64, n)
	ci := make(map[ServerID]int64, n)
	for i := 1; i <= n; i++ {
		rp[ServerID(i)] = initialRP
		ci[ServerID(i)] = initialCI
	}
	return &VcBlock{V: 1, LeaderID: initialLeader, RP: rp, CI: ci}
}

// GenesisTxBlock builds the empty txBlock at sequence number 0 that anchors
// the transaction chain.
func GenesisTxBlock() *TxBlock {
	return &TxBlock{Header: TxBlockHeader{V: 1, N: 0}}
}

// RetransmitPeriod is a replica's default per-instance retransmission
// period: an in-flight consensus instance older than this re-broadcasts its
// phase messages. A client's complaint wait never drops below two of them,
// the loss of one Ord and one Cmt, so the protocol's own loss recovery gets
// its chance before a client suspects the leader.
const RetransmitPeriod = 250 * time.Millisecond

// Quorum arithmetic --------------------------------------------------------

// FaultBound returns f = floor((n-1)/3), the maximum number of Byzantine
// servers tolerated among n.
func FaultBound(n int) int { return (n - 1) / 3 }

// QuorumSize returns 2f+1 for n servers.
func QuorumSize(n int) int { return 2*FaultBound(n) + 1 }

// ConfirmSize returns f+1 for n servers (the conf_QC threshold).
func ConfirmSize(n int) int { return FaultBound(n) + 1 }
