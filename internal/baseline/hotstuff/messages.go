package hotstuff

import (
	"encoding/binary"

	"prestigebft/internal/types"
)

// Prepare is the leader's proposal for one decision.
type Prepare struct {
	From types.ServerID
	V    types.View
	N    types.SeqNum
	Prev types.Digest
	Txs  []types.Transaction
	// ClientSigs[i] signs Txs[i] (see types.Ord); none under a Justify.
	ClientSigs [][]byte
	// Justify, when set, re-proposes a block a quorum locked on in an
	// earlier view: it is that block's PreCommit certificate, and the block
	// keeps the certificate's view, so every commit of it has one hash.
	Justify types.QC
	Sig     []byte
}

// ProtocolMessage implements types.Message.
func (*Prepare) ProtocolMessage() {}

// Block returns the proposed block, without certificates.
func (m *Prepare) Block() *types.TxBlock {
	v := m.V
	if !m.Justify.IsZero() {
		v = m.Justify.View
	}
	return &types.TxBlock{Header: types.TxBlockHeader{V: v, N: m.N, PrevHash: m.Prev, BatchLen: uint32(len(m.Txs))}, Txs: m.Txs}
}

// SigningBytes implements types.Signed.
func (m *Prepare) SigningBytes() []byte {
	return types.QCStatementBytes(types.QCGeneric, m.V, m.N, m.Block().ContentDigest())
}

// Signature implements types.Signed.
func (m *Prepare) Signature() []byte { return m.Sig }

// Vote is a replica's phase vote, sent to the leader.
type Vote struct {
	From  types.ServerID
	Phase Phase
	V     types.View
	N     types.SeqNum
	D     types.Digest
	Sig   []byte
}

// ProtocolMessage implements types.Message.
func (*Vote) ProtocolMessage() {}

// SigningBytes implements types.Signed.
func (m *Vote) SigningBytes() []byte {
	return types.QCStatementBytes(m.Phase.qcKind(), m.V, m.N, m.D)
}

// Signature implements types.Signed.
func (m *Vote) Signature() []byte { return m.Sig }

// PhaseAnnounce carries the QC that opens the PreCommit or Commit phase.
type PhaseAnnounce struct {
	From  types.ServerID
	Phase Phase // the phase being opened (PreCommit or Commit)
	V     types.View
	N     types.SeqNum
	QC    types.QC // certificate of the previous phase
	Sig   []byte
}

// ProtocolMessage implements types.Message.
func (*PhaseAnnounce) ProtocolMessage() {}

// SigningBytes implements types.Signed.
func (m *PhaseAnnounce) SigningBytes() []byte {
	buf := make([]byte, 0, 2+1+8+8+32)
	buf = binary.BigEndian.AppendUint16(buf, uint16(m.From))
	buf = append(buf, byte(m.Phase))
	buf = binary.BigEndian.AppendUint64(buf, uint64(m.V))
	buf = binary.BigEndian.AppendUint64(buf, uint64(m.N))
	buf = append(buf, m.QC.Digest[:]...)
	return buf
}

// Signature implements types.Signed.
func (m *PhaseAnnounce) Signature() []byte { return m.Sig }

// Decide carries the committed block with its commit certificate.
type Decide struct {
	From  types.ServerID
	Block types.TxBlock
	Sig   []byte
}

// ProtocolMessage implements types.Message.
func (*Decide) ProtocolMessage() {}

// SigningBytes implements types.Signed.
func (m *Decide) SigningBytes() []byte {
	d := m.Block.Hash()
	return append([]byte("hs.decide"), d[:]...)
}

// Signature implements types.Signed.
func (m *Decide) Signature() []byte { return m.Sig }

// NewView tells the next scheduled leader to take over.
type NewView struct {
	From types.ServerID
	V    types.View
	N    types.SeqNum // sender's log height, for sync decisions
	// Lock is the sender's PreCommit certificate for a block above its
	// committed height, and Locked that block; zero and nil when the sender
	// holds no such lock. Both are self-certifying, so the signature does
	// not cover them.
	Lock   types.QC
	Locked *types.TxBlock
	Sig    []byte
}

// ProtocolMessage implements types.Message.
func (*NewView) ProtocolMessage() {}

// SigningBytes implements types.Signed.
func (m *NewView) SigningBytes() []byte {
	return types.QCStatementBytes(types.QCGeneric, m.V, 0, types.Digest{})
}

// Signature implements types.Signed.
func (m *NewView) Signature() []byte { return m.Sig }
