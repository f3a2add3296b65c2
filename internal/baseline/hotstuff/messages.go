package hotstuff

import (
	"encoding/binary"

	"prestigebft/internal/types"
)

const (
	sigSize    = 64
	headerSize = 16
)

// Prepare is the leader's proposal for one decision.
type Prepare struct {
	From types.ServerID
	V    types.View
	N    types.SeqNum
	Prev types.Digest
	Txs  []types.Transaction
	// Justify, when set, re-proposes a block a quorum locked on in an
	// earlier view: it is that block's PreCommit certificate, and the block
	// keeps the certificate's view, so every commit of it has one hash.
	Justify types.QC
	Sig     []byte
}

// Type implements types.Message.
func (m *Prepare) Type() string { return "hs.Prepare" }

// WireSize implements types.Message.
func (m *Prepare) WireSize() int {
	size := headerSize + 2 + 8 + 8 + 32 + sigSize
	for i := range m.Txs {
		size += 16 + len(m.Txs[i].Data)
	}
	if !m.Justify.IsZero() {
		size += m.Justify.WireSize()
	}
	return size
}

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

// Type implements types.Message.
func (m *Vote) Type() string { return "hs.Vote" }

// WireSize implements types.Message.
func (m *Vote) WireSize() int { return headerSize + 2 + 1 + 8 + 8 + 32 + sigSize }

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

// Type implements types.Message.
func (m *PhaseAnnounce) Type() string { return "hs." + m.Phase.String() }

// WireSize implements types.Message.
func (m *PhaseAnnounce) WireSize() int {
	return headerSize + 2 + 1 + 8 + 8 + m.QC.WireSize() + sigSize
}

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

// Type implements types.Message.
func (m *Decide) Type() string { return "hs.Decide" }

// WireSize implements types.Message.
func (m *Decide) WireSize() int {
	b := types.TxBlockMsg{Block: m.Block}
	return b.WireSize()
}

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

// Type implements types.Message.
func (m *NewView) Type() string { return "hs.NewView" }

// WireSize implements types.Message.
func (m *NewView) WireSize() int {
	size := headerSize + 2 + 8 + 8 + sigSize
	if m.Locked != nil {
		size += m.Lock.WireSize() + (&types.TxBlockMsg{Block: *m.Locked}).WireSize()
	}
	return size
}

// SigningBytes implements types.Signed.
func (m *NewView) SigningBytes() []byte {
	return types.QCStatementBytes(types.QCGeneric, m.V, 0, types.Digest{})
}

// Signature implements types.Signed.
func (m *NewView) Signature() []byte { return m.Sig }
