// Package codec is the hand-rolled binary wire codec for every protocol
// message: the one format the live transport speaks, and the one byte model
// the simulator charges (DESIGN.md §4, §14). It encodes the 20 PrestigeBFT
// kinds and the 9 sim-only kinds of the HotStuff and SBFT baselines.
//
// Encoding rules:
//   - integers (views, sequence numbers, lengths, counts, timestamps) are
//     unsigned varints (encoding/binary Uvarint); signed int64 fields are
//     encoded as their two's-complement uint64 bit pattern, not zigzag —
//     protocol values are non-negative in practice, and the cast round-trips
//     all values either way;
//   - one-byte enums (QC.Kind, ConfVC.Reason) and booleans are one raw byte;
//   - digests are 32 raw bytes, no length prefix; a run of digests
//     (Notif.Path) is a uvarint count followed by the digests, the count
//     capped at types.MaxNotifPathLen;
//   - byte strings are uvarint length followed by the bytes; length 0
//     decodes as nil (the format does not distinguish empty from nil);
//     CampVC.Nonce is additionally capped at MaxNonceLen;
//   - repeated fields are a uvarint count followed by the elements; count 0
//     decodes as nil maps/slices;
//   - optional fields (SyncResp.Snapshot, hotstuff.NewView.Locked) are a
//     presence byte (0/1);
//   - maps (VcBlock.RP/CI) are encoded in ascending key order.
//
// The encoding is canonical: Decode accepts exactly the byte strings Append
// produces. Non-minimal varints, booleans other than 0/1, integers that
// overflow their field, unsorted or duplicate map keys, and trailing bytes
// are all rejected, so every accepted frame re-encodes to itself. Counts are
// checked against the bytes actually remaining (at each element's minimum
// encoded size) before anything is allocated.
//
// Decoding never copies payload bytes: Transaction.Data, signatures, and
// nonces are subslices of the input buffer. Callers own the buffer and must
// not reuse it while the decoded message is alive — the transport allocates
// one buffer per inbound frame, which the decoded message then owns.
//
// Each message is framed as one kind byte followed by its body. Kind numbers
// are the wire protocol; new kinds may be appended but existing numbers
// never change. Messages of one shape share a body writer — proposal
// (Ord, hotstuff.Prepare, sbft.PrePrepare), vote (OrdReply, CmtReply,
// hotstuff.Vote, sbft.Share), certificate (Cmt, hotstuff.PhaseAnnounce) and
// block (TxBlockMsg, hotstuff.Decide, sbft.Proof) — and a baseline kind's
// extra fields sit between its kind byte and that body.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"prestigebft/internal/baseline/hotstuff"
	"prestigebft/internal/baseline/sbft"
	"prestigebft/internal/types"
)

// Message kind tags. Append-only; never renumber.
const (
	kindInvalid byte = iota
	kindProp
	kindNotif
	kindOrd
	kindOrdReply
	kindCmt
	kindCmtReply
	kindAdopt
	kindTxBlockMsg
	kindVoteCP
	kindSyncReq
	kindSyncResp
	kindCkptVote
	kindCompt
	kindConfVC
	kindReVC
	kindCampVC
	kindVcBlockMsg
	kindVcYes
	kindRef
	kindRdone
	// The baselines' sim-only kinds: live clusters run PrestigeBFT alone.
	kindHSPrepare
	kindHSVote
	kindHSPhaseAnnounce
	kindHSDecide
	kindHSNewView
	kindSBPrePrepare
	kindSBShare
	kindSBProof
	kindSBNewView
)

// MaxNonceLen caps CampVC.Nonce on decode. Honest proof-of-work nonces are 8
// bytes; the cap keeps a hostile campaign from carrying a payload.
const MaxNonceLen = 64

// ErrUnknownKind reports a frame whose kind byte this codec version does not
// understand.
var ErrUnknownKind = errors.New("codec: unknown message kind")

var errMalformed = errors.New("codec: truncated, out-of-range or non-canonical field")

// Append encodes msg (kind byte + body) onto buf and returns the extended
// slice. ok is false when msg is not one of the 29 kinds; buf is returned
// unchanged in that case.
func Append(buf []byte, msg types.Message) (out []byte, ok bool) {
	switch m := msg.(type) {
	case *types.Prop:
		buf = append(buf, kindProp)
		buf = appendProp(buf, m)
	case *types.Notif:
		buf = append(buf, kindNotif)
		buf = appendUvarint(buf, uint64(m.From))
		buf = appendUvarint(buf, uint64(m.Leader))
		buf = appendUvarint(buf, uint64(m.V))
		buf = appendUvarint(buf, uint64(m.N))
		buf = append(buf, m.TxD[:]...)
		buf = appendBool(buf, m.Status)
		buf = appendUvarint(buf, uint64(m.Index))
		buf = appendUvarint(buf, uint64(len(m.Path)))
		for i := range m.Path {
			buf = append(buf, m.Path[i][:]...)
		}
		buf = appendBytes(buf, m.Sig)
	case *types.Ord:
		buf = append(buf, kindOrd)
		buf = appendProposal(buf, m.From, m.V, m.N, &m.Prev, m.Txs, m.ClientSigs, m.Sig)
	case *types.OrdReply:
		buf = append(buf, kindOrdReply)
		buf = appendVote(buf, m.From, m.V, m.N, &m.D, m.Sig)
	case *types.Cmt:
		buf = append(buf, kindCmt)
		buf = appendCert(buf, m.From, m.V, m.N, &m.OrderingQC, m.Sig)
	case *types.CmtReply:
		buf = append(buf, kindCmtReply)
		buf = appendVote(buf, m.From, m.V, m.N, &m.D, m.Sig)
	case *types.Adopt:
		buf = append(buf, kindAdopt)
		buf = appendUvarint(buf, uint64(m.From))
		buf = appendUvarint(buf, uint64(m.V))
		buf = appendTxBlock(buf, &m.Block)
		buf = appendBytes(buf, m.Sig)
	case *types.TxBlockMsg:
		buf = append(buf, kindTxBlockMsg)
		buf = appendBlock(buf, m.From, &m.Block, m.Sig)
	case *types.VoteCP:
		buf = append(buf, kindVoteCP)
		buf = appendUvarint(buf, uint64(m.From))
		buf = appendUvarint(buf, uint64(m.Cand))
		buf = appendUvarint(buf, uint64(m.VPrime))
		buf = appendUvarint(buf, uint64(len(m.Locked)))
		for i := range m.Locked {
			buf = appendTxBlock(buf, &m.Locked[i])
		}
		buf = appendBytes(buf, m.Sig)
	case *types.SyncReq:
		buf = append(buf, kindSyncReq)
		buf = appendUvarint(buf, uint64(m.From))
		buf = appendUvarint(buf, uint64(m.Kind))
		buf = appendUvarint(buf, m.Start)
		buf = appendUvarint(buf, m.End)
	case *types.SyncResp:
		buf = append(buf, kindSyncResp)
		buf = appendUvarint(buf, uint64(m.From))
		buf = appendUvarint(buf, uint64(m.Kind))
		buf = appendUvarint(buf, uint64(len(m.TxBlocks)))
		for i := range m.TxBlocks {
			buf = appendTxBlock(buf, &m.TxBlocks[i])
		}
		buf = appendUvarint(buf, uint64(len(m.VcBlocks)))
		for i := range m.VcBlocks {
			buf = appendVcBlock(buf, &m.VcBlocks[i])
		}
		if m.Snapshot == nil {
			buf = append(buf, 0)
		} else {
			buf = append(buf, 1)
			s := m.Snapshot
			buf = appendUvarint(buf, uint64(s.Cert.Header.Seq))
			buf = appendUvarint(buf, uint64(s.Cert.Header.View))
			buf = append(buf, s.Cert.Header.BlockHash[:]...)
			buf = append(buf, s.Cert.Header.AppDigest[:]...)
			buf = append(buf, s.Cert.Header.RepDigest[:]...)
			buf = appendQC(buf, &s.Cert.QC)
			buf = appendTxBlock(buf, &s.Anchor)
			buf = appendBytes(buf, s.AppState)
		}
	case *types.CkptVote:
		buf = append(buf, kindCkptVote)
		buf = appendUvarint(buf, uint64(m.From))
		buf = appendUvarint(buf, uint64(m.Seq))
		buf = append(buf, m.StateHash[:]...)
		buf = appendBytes(buf, m.Sig)
	case *types.Compt:
		buf = append(buf, kindCompt)
		buf = appendProp(buf, &m.Prop)
		buf = appendBytes(buf, m.Sig)
	case *types.ConfVC:
		buf = append(buf, kindConfVC)
		buf = appendUvarint(buf, uint64(m.From))
		buf = appendUvarint(buf, uint64(m.V))
		buf = append(buf, byte(m.Reason))
		buf = append(buf, m.TxD[:]...)
		buf = appendUvarint(buf, uint64(m.Client))
		buf = appendBytes(buf, m.Sig)
	case *types.ReVC:
		buf = append(buf, kindReVC)
		buf = appendUvarint(buf, uint64(m.From))
		buf = appendUvarint(buf, uint64(m.To))
		buf = appendUvarint(buf, uint64(m.V))
		buf = appendBytes(buf, m.Sig)
	case *types.CampVC:
		buf = append(buf, kindCampVC)
		buf = appendUvarint(buf, uint64(m.From))
		buf = appendQC(buf, &m.ConfQC)
		buf = appendUvarint(buf, uint64(m.V))
		buf = appendUvarint(buf, uint64(m.VPrime))
		buf = appendUvarint(buf, uint64(m.RP))
		buf = appendUvarint(buf, uint64(m.CI))
		buf = appendBytes(buf, m.Nonce)
		buf = append(buf, m.HR[:]...)
		buf = appendUvarint(buf, uint64(m.TxN))
		buf = append(buf, m.TxHash[:]...)
		buf = appendUvarint(buf, uint64(m.VcN))
		buf = appendBytes(buf, m.Sig)
	case *types.VcBlockMsg:
		buf = append(buf, kindVcBlockMsg)
		buf = appendUvarint(buf, uint64(m.From))
		buf = appendVcBlock(buf, &m.Block)
		buf = appendBytes(buf, m.Sig)
	case *types.VcYes:
		buf = append(buf, kindVcYes)
		buf = appendUvarint(buf, uint64(m.From))
		buf = appendUvarint(buf, uint64(m.V))
		buf = append(buf, m.BlockHash[:]...)
		buf = appendBytes(buf, m.Sig)
	case *types.Ref:
		buf = append(buf, kindRef)
		buf = appendUvarint(buf, uint64(m.From))
		buf = appendUvarint(buf, uint64(m.V))
		buf = appendBytes(buf, m.Sig)
	case *types.Rdone:
		buf = append(buf, kindRdone)
		buf = appendUvarint(buf, uint64(m.From))
		buf = appendUvarint(buf, uint64(m.V))
		buf = appendQC(buf, &m.RsQC)
		buf = appendUvarint(buf, uint64(m.RP))
		buf = appendUvarint(buf, uint64(m.CI))
		buf = appendBytes(buf, m.Sig)
	case *hotstuff.Prepare:
		buf = append(buf, kindHSPrepare)
		buf = appendQC(buf, &m.Justify)
		buf = appendProposal(buf, m.From, m.V, m.N, &m.Prev, m.Txs, m.ClientSigs, m.Sig)
	case *hotstuff.Vote:
		buf = append(buf, kindHSVote, byte(m.Phase))
		buf = appendVote(buf, m.From, m.V, m.N, &m.D, m.Sig)
	case *hotstuff.PhaseAnnounce:
		buf = append(buf, kindHSPhaseAnnounce, byte(m.Phase))
		buf = appendCert(buf, m.From, m.V, m.N, &m.QC, m.Sig)
	case *hotstuff.Decide:
		buf = append(buf, kindHSDecide)
		buf = appendBlock(buf, m.From, &m.Block, m.Sig)
	case *hotstuff.NewView:
		buf = append(buf, kindHSNewView)
		buf = appendUvarint(buf, uint64(m.From))
		buf = appendUvarint(buf, uint64(m.V))
		buf = appendUvarint(buf, uint64(m.N))
		buf = appendQC(buf, &m.Lock)
		if m.Locked == nil {
			buf = append(buf, 0)
		} else {
			buf = append(buf, 1)
			buf = appendTxBlock(buf, m.Locked)
		}
		buf = appendBytes(buf, m.Sig)
	case *sbft.PrePrepare:
		buf = append(buf, kindSBPrePrepare)
		buf = appendUvarint(buf, uint64(m.BlockV))
		buf = appendProposal(buf, m.From, m.V, m.N, &m.Prev, m.Txs, m.ClientSigs, m.Sig)
	case *sbft.Share:
		buf = append(buf, kindSBShare, m.Stage)
		buf = appendVote(buf, m.From, m.V, m.N, &m.D, m.Sig)
	case *sbft.Proof:
		buf = append(buf, kindSBProof, m.Stage)
		buf = appendBlock(buf, m.From, &m.Block, m.Sig)
	case *sbft.NewView:
		buf = append(buf, kindSBNewView)
		buf = appendUvarint(buf, uint64(m.From))
		buf = appendUvarint(buf, uint64(m.V))
		buf = appendBytes(buf, m.Sig)
	default:
		return buf, false
	}
	return buf, true
}

// Decode parses one encoded message. The returned message aliases data —
// see the package comment on buffer ownership.
func Decode(data []byte) (types.Message, error) {
	if len(data) == 0 {
		return nil, errMalformed
	}
	r := reader{buf: data[1:]}
	var msg types.Message
	switch data[0] {
	case kindProp:
		m := &types.Prop{}
		readProp(&r, m)
		msg = m
	case kindNotif:
		m := &types.Notif{}
		m.From = r.serverID()
		m.Leader = r.serverID()
		m.V = types.View(r.uvarint())
		m.N = types.SeqNum(r.uvarint())
		r.digest(&m.TxD)
		m.Status = r.bool()
		m.Index = r.uint32()
		m.Path = r.digests(types.MaxNotifPathLen)
		m.Sig = r.bytes()
		msg = m
	case kindOrd:
		m := &types.Ord{}
		readProposal(&r, &m.From, &m.V, &m.N, &m.Prev, &m.Txs, &m.ClientSigs, &m.Sig)
		msg = m
	case kindOrdReply:
		m := &types.OrdReply{}
		readVote(&r, &m.From, &m.V, &m.N, &m.D, &m.Sig)
		msg = m
	case kindCmt:
		m := &types.Cmt{}
		readCert(&r, &m.From, &m.V, &m.N, &m.OrderingQC, &m.Sig)
		msg = m
	case kindCmtReply:
		m := &types.CmtReply{}
		readVote(&r, &m.From, &m.V, &m.N, &m.D, &m.Sig)
		msg = m
	case kindAdopt:
		m := &types.Adopt{}
		m.From = r.serverID()
		m.V = types.View(r.uvarint())
		readTxBlock(&r, &m.Block)
		m.Sig = r.bytes()
		msg = m
	case kindTxBlockMsg:
		m := &types.TxBlockMsg{}
		readBlock(&r, &m.From, &m.Block, &m.Sig)
		msg = m
	case kindVoteCP:
		m := &types.VoteCP{}
		m.From = r.serverID()
		m.Cand = r.serverID()
		m.VPrime = types.View(r.uvarint())
		m.Locked = readTxBlocks(&r)
		m.Sig = r.bytes()
		msg = m
	case kindSyncReq:
		m := &types.SyncReq{}
		m.From = r.serverID()
		m.Kind = types.SyncKind(r.uint8())
		m.Start = r.uvarint()
		m.End = r.uvarint()
		msg = m
	case kindSyncResp:
		m := &types.SyncResp{}
		m.From = r.serverID()
		m.Kind = types.SyncKind(r.uint8())
		m.TxBlocks = readTxBlocks(&r)
		if n := r.count(minVcBlock); n > 0 {
			m.VcBlocks = make([]types.VcBlock, n)
			for i := range m.VcBlocks {
				readVcBlock(&r, &m.VcBlocks[i])
			}
		}
		if r.bool() {
			s := &types.SnapshotPackage{}
			s.Cert.Header.Seq = types.SeqNum(r.uvarint())
			s.Cert.Header.View = types.View(r.uvarint())
			r.digest(&s.Cert.Header.BlockHash)
			r.digest(&s.Cert.Header.AppDigest)
			r.digest(&s.Cert.Header.RepDigest)
			readQC(&r, &s.Cert.QC)
			readTxBlock(&r, &s.Anchor)
			s.AppState = r.bytes()
			m.Snapshot = s
		}
		msg = m
	case kindCkptVote:
		m := &types.CkptVote{}
		m.From = r.serverID()
		m.Seq = types.SeqNum(r.uvarint())
		r.digest(&m.StateHash)
		m.Sig = r.bytes()
		msg = m
	case kindCompt:
		m := &types.Compt{}
		readProp(&r, &m.Prop)
		m.Sig = r.bytes()
		msg = m
	case kindConfVC:
		m := &types.ConfVC{}
		m.From = r.serverID()
		m.V = types.View(r.uvarint())
		m.Reason = types.ConfReason(r.byte())
		r.digest(&m.TxD)
		m.Client = types.ClientID(r.uint32())
		m.Sig = r.bytes()
		msg = m
	case kindReVC:
		m := &types.ReVC{}
		m.From = r.serverID()
		m.To = r.serverID()
		m.V = types.View(r.uvarint())
		m.Sig = r.bytes()
		msg = m
	case kindCampVC:
		m := &types.CampVC{}
		m.From = r.serverID()
		readQC(&r, &m.ConfQC)
		m.V = types.View(r.uvarint())
		m.VPrime = types.View(r.uvarint())
		m.RP = int64(r.uvarint())
		m.CI = int64(r.uvarint())
		if m.Nonce = r.bytes(); len(m.Nonce) > MaxNonceLen {
			r.fail()
		}
		r.digest(&m.HR)
		m.TxN = types.SeqNum(r.uvarint())
		r.digest(&m.TxHash)
		m.VcN = types.View(r.uvarint())
		m.Sig = r.bytes()
		msg = m
	case kindVcBlockMsg:
		m := &types.VcBlockMsg{}
		m.From = r.serverID()
		readVcBlock(&r, &m.Block)
		m.Sig = r.bytes()
		msg = m
	case kindVcYes:
		m := &types.VcYes{}
		m.From = r.serverID()
		m.V = types.View(r.uvarint())
		r.digest(&m.BlockHash)
		m.Sig = r.bytes()
		msg = m
	case kindRef:
		m := &types.Ref{}
		m.From = r.serverID()
		m.V = types.View(r.uvarint())
		m.Sig = r.bytes()
		msg = m
	case kindRdone:
		m := &types.Rdone{}
		m.From = r.serverID()
		m.V = types.View(r.uvarint())
		readQC(&r, &m.RsQC)
		m.RP = int64(r.uvarint())
		m.CI = int64(r.uvarint())
		m.Sig = r.bytes()
		msg = m
	case kindHSPrepare:
		m := &hotstuff.Prepare{}
		readQC(&r, &m.Justify)
		readProposal(&r, &m.From, &m.V, &m.N, &m.Prev, &m.Txs, &m.ClientSigs, &m.Sig)
		msg = m
	case kindHSVote:
		m := &hotstuff.Vote{Phase: hotstuff.Phase(r.byte())}
		readVote(&r, &m.From, &m.V, &m.N, &m.D, &m.Sig)
		msg = m
	case kindHSPhaseAnnounce:
		m := &hotstuff.PhaseAnnounce{Phase: hotstuff.Phase(r.byte())}
		readCert(&r, &m.From, &m.V, &m.N, &m.QC, &m.Sig)
		msg = m
	case kindHSDecide:
		m := &hotstuff.Decide{}
		readBlock(&r, &m.From, &m.Block, &m.Sig)
		msg = m
	case kindHSNewView:
		m := &hotstuff.NewView{}
		m.From = r.serverID()
		m.V = types.View(r.uvarint())
		m.N = types.SeqNum(r.uvarint())
		readQC(&r, &m.Lock)
		if r.bool() {
			m.Locked = &types.TxBlock{}
			readTxBlock(&r, m.Locked)
		}
		m.Sig = r.bytes()
		msg = m
	case kindSBPrePrepare:
		m := &sbft.PrePrepare{BlockV: types.View(r.uvarint())}
		readProposal(&r, &m.From, &m.V, &m.N, &m.Prev, &m.Txs, &m.ClientSigs, &m.Sig)
		msg = m
	case kindSBShare:
		m := &sbft.Share{Stage: r.byte()}
		readVote(&r, &m.From, &m.V, &m.N, &m.D, &m.Sig)
		msg = m
	case kindSBProof:
		m := &sbft.Proof{Stage: r.byte()}
		readBlock(&r, &m.From, &m.Block, &m.Sig)
		msg = m
	case kindSBNewView:
		m := &sbft.NewView{}
		m.From = r.serverID()
		m.V = types.View(r.uvarint())
		m.Sig = r.bytes()
		msg = m
	default:
		return nil, fmt.Errorf("%w: %d", ErrUnknownKind, data[0])
	}
	if r.err != nil {
		return nil, r.err
	}
	if len(r.buf) != 0 {
		return nil, fmt.Errorf("codec: %d trailing bytes after %T", len(r.buf), msg)
	}
	return msg, nil
}

// --- primitive writers ------------------------------------------------------

func appendUvarint(buf []byte, v uint64) []byte {
	return binary.AppendUvarint(buf, v)
}

func appendBool(buf []byte, b bool) []byte {
	if b {
		return append(buf, 1)
	}
	return append(buf, 0)
}

func appendBytes(buf, b []byte) []byte {
	buf = appendUvarint(buf, uint64(len(b)))
	return append(buf, b...)
}

func appendProp(buf []byte, m *types.Prop) []byte {
	buf = appendTx(buf, &m.Tx)
	buf = append(buf, m.D[:]...)
	return appendBytes(buf, m.Sig)
}

// appendProposal writes a leader's batch proposal: the body of Ord,
// hotstuff.Prepare and sbft.PrePrepare.
func appendProposal(buf []byte, from types.ServerID, v types.View, n types.SeqNum, prev *types.Digest,
	txs []types.Transaction, clientSigs [][]byte, sig []byte) []byte {
	buf = appendUvarint(buf, uint64(from))
	buf = appendUvarint(buf, uint64(v))
	buf = appendUvarint(buf, uint64(n))
	buf = append(buf, prev[:]...)
	buf = appendUvarint(buf, uint64(len(txs)))
	for i := range txs {
		buf = appendTx(buf, &txs[i])
	}
	buf = appendSigs(buf, clientSigs)
	return appendBytes(buf, sig)
}

// appendVote writes a signed vote on one digest: the body of OrdReply,
// CmtReply, hotstuff.Vote and sbft.Share.
func appendVote(buf []byte, from types.ServerID, v types.View, n types.SeqNum, d *types.Digest, sig []byte) []byte {
	buf = appendUvarint(buf, uint64(from))
	buf = appendUvarint(buf, uint64(v))
	buf = appendUvarint(buf, uint64(n))
	buf = append(buf, d[:]...)
	return appendBytes(buf, sig)
}

// appendCert writes a signed certificate announcement: the body of Cmt and
// hotstuff.PhaseAnnounce.
func appendCert(buf []byte, from types.ServerID, v types.View, n types.SeqNum, qc *types.QC, sig []byte) []byte {
	buf = appendUvarint(buf, uint64(from))
	buf = appendUvarint(buf, uint64(v))
	buf = appendUvarint(buf, uint64(n))
	buf = appendQC(buf, qc)
	return appendBytes(buf, sig)
}

// appendBlock writes a signed, certified block: the body of TxBlockMsg,
// hotstuff.Decide and sbft.Proof.
func appendBlock(buf []byte, from types.ServerID, b *types.TxBlock, sig []byte) []byte {
	buf = appendUvarint(buf, uint64(from))
	buf = appendTxBlock(buf, b)
	return appendBytes(buf, sig)
}

func appendTx(buf []byte, t *types.Transaction) []byte {
	buf = appendUvarint(buf, uint64(t.Timestamp))
	buf = appendUvarint(buf, uint64(t.Client))
	return appendBytes(buf, t.Data)
}

func appendQC(buf []byte, qc *types.QC) []byte {
	buf = append(buf, byte(qc.Kind))
	buf = appendUvarint(buf, uint64(qc.View))
	buf = appendUvarint(buf, uint64(qc.Seq))
	buf = append(buf, qc.Digest[:]...)
	buf = appendUvarint(buf, uint64(len(qc.Signers)))
	for _, id := range qc.Signers {
		buf = appendUvarint(buf, uint64(id))
	}
	return appendSigs(buf, qc.Sigs)
}

func appendSigs(buf []byte, sigs [][]byte) []byte {
	buf = appendUvarint(buf, uint64(len(sigs)))
	for _, sig := range sigs {
		buf = appendBytes(buf, sig)
	}
	return buf
}

func appendTxBlock(buf []byte, b *types.TxBlock) []byte {
	buf = appendUvarint(buf, uint64(b.Header.V))
	buf = appendUvarint(buf, uint64(b.Header.N))
	buf = append(buf, b.Header.PrevHash[:]...)
	buf = appendUvarint(buf, uint64(b.Header.BatchLen))
	buf = appendUvarint(buf, uint64(len(b.Txs)))
	for i := range b.Txs {
		buf = appendTx(buf, &b.Txs[i])
	}
	buf = appendUvarint(buf, uint64(len(b.Status)))
	for _, s := range b.Status {
		buf = appendBool(buf, s)
	}
	buf = appendQC(buf, &b.OrderingQC)
	buf = appendQC(buf, &b.CommitQC)
	return buf
}

func appendVcBlock(buf []byte, b *types.VcBlock) []byte {
	buf = appendUvarint(buf, uint64(b.V))
	buf = appendUvarint(buf, uint64(b.LeaderID))
	buf = append(buf, b.PrevHash[:]...)
	buf = appendQC(buf, &b.ConfQC)
	buf = appendQC(buf, &b.VcQC)
	buf = appendRepMap(buf, b.RP)
	return appendRepMap(buf, b.CI)
}

func appendRepMap(buf []byte, m map[types.ServerID]int64) []byte {
	buf = appendUvarint(buf, uint64(len(m)))
	for _, id := range types.SortedKeys(m) {
		buf = appendUvarint(buf, uint64(id))
		buf = appendUvarint(buf, uint64(m[id]))
	}
	return buf
}

// --- primitive reader -------------------------------------------------------

// reader consumes a buffer with sticky-error semantics: after the first
// failure every read returns zero values and the error survives to the final
// check in Decode.
type reader struct {
	buf []byte
	err error
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = errMalformed
	}
}

// uvarint reads one minimally encoded uvarint: a multi-byte encoding whose
// last byte is zero carries leading zero groups and is refused, so every
// value has exactly one accepted spelling.
func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf)
	if n <= 0 || (n > 1 && r.buf[n-1] == 0) {
		r.fail()
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// bounded reads a uvarint that must fit a narrower field; a wider value is
// refused rather than truncated.
func (r *reader) bounded(max uint64) uint64 {
	v := r.uvarint()
	if v > max {
		r.fail()
		return 0
	}
	return v
}

func (r *reader) uint8() uint8             { return uint8(r.bounded(math.MaxUint8)) }
func (r *reader) uint32() uint32           { return uint32(r.bounded(math.MaxUint32)) }
func (r *reader) serverID() types.ServerID { return types.ServerID(r.bounded(math.MaxUint16)) }

// Minimum encoded sizes of the repeated elements, in bytes: what count
// divides the remaining buffer by.
const (
	minTx      = 3                                // timestamp, client, data length
	minQC      = 1 + 1 + 1 + 32 + 1 + 1           // kind, view, seq, digest, two counts
	minTxBlock = 1 + 1 + 32 + 1 + 1 + 1 + 2*minQC // header, two counts, two QCs
	minVcBlock = 1 + 1 + 32 + 2*minQC + 1 + 1     // view, leader, prev, two QCs, two counts
	minRepPair = 2                                // server ID, value
)

// count reads a repetition count and bounds it against the bytes remaining,
// given that every element encodes to at least minElem bytes, so a hostile
// count cannot force an allocation the frame could not back.
func (r *reader) count(minElem int) int {
	v := r.uvarint()
	if r.err != nil {
		return 0
	}
	if v > uint64(len(r.buf)/minElem) {
		r.fail()
		return 0
	}
	return int(v)
}

// digests reads a counted run of at most max digests.
func (r *reader) digests(max int) []types.Digest {
	n := r.count(32)
	if n > max {
		r.fail()
		return nil
	}
	if n == 0 {
		return nil
	}
	ds := make([]types.Digest, n)
	for i := range ds {
		r.digest(&ds[i])
	}
	return ds
}

func (r *reader) byte() byte {
	if r.err != nil {
		return 0
	}
	if len(r.buf) < 1 {
		r.fail()
		return 0
	}
	b := r.buf[0]
	r.buf = r.buf[1:]
	return b
}

func (r *reader) bool() bool {
	b := r.byte()
	if b > 1 {
		r.fail()
	}
	return b == 1
}

func (r *reader) digest(d *types.Digest) {
	if r.err != nil {
		return
	}
	if len(r.buf) < 32 {
		r.fail()
		return
	}
	copy(d[:], r.buf)
	r.buf = r.buf[32:]
}

// bytes returns a zero-copy subslice of the input; length 0 yields nil.
func (r *reader) bytes() []byte {
	n := r.count(1)
	if r.err != nil || n == 0 {
		return nil
	}
	b := r.buf[:n:n]
	r.buf = r.buf[n:]
	return b
}

func readProp(r *reader, m *types.Prop) {
	readTx(r, &m.Tx)
	r.digest(&m.D)
	m.Sig = r.bytes()
}

func readProposal(r *reader, from *types.ServerID, v *types.View, n *types.SeqNum, prev *types.Digest,
	txs *[]types.Transaction, clientSigs *[][]byte, sig *[]byte) {
	*from = r.serverID()
	*v = types.View(r.uvarint())
	*n = types.SeqNum(r.uvarint())
	r.digest(prev)
	*txs = readTxs(r)
	*clientSigs = readSigs(r)
	*sig = r.bytes()
}

func readVote(r *reader, from *types.ServerID, v *types.View, n *types.SeqNum, d *types.Digest, sig *[]byte) {
	*from = r.serverID()
	*v = types.View(r.uvarint())
	*n = types.SeqNum(r.uvarint())
	r.digest(d)
	*sig = r.bytes()
}

func readCert(r *reader, from *types.ServerID, v *types.View, n *types.SeqNum, qc *types.QC, sig *[]byte) {
	*from = r.serverID()
	*v = types.View(r.uvarint())
	*n = types.SeqNum(r.uvarint())
	readQC(r, qc)
	*sig = r.bytes()
}

func readBlock(r *reader, from *types.ServerID, b *types.TxBlock, sig *[]byte) {
	*from = r.serverID()
	readTxBlock(r, b)
	*sig = r.bytes()
}

func readTx(r *reader, t *types.Transaction) {
	t.Timestamp = int64(r.uvarint())
	t.Client = types.ClientID(r.uint32())
	t.Data = r.bytes()
}

func readTxs(r *reader) []types.Transaction {
	n := r.count(minTx)
	if n == 0 {
		return nil
	}
	txs := make([]types.Transaction, n)
	for i := range txs {
		readTx(r, &txs[i])
	}
	return txs
}

func readQC(r *reader, qc *types.QC) {
	qc.Kind = types.QCKind(r.byte())
	qc.View = types.View(r.uvarint())
	qc.Seq = types.SeqNum(r.uvarint())
	r.digest(&qc.Digest)
	if n := r.count(1); n > 0 {
		qc.Signers = make([]types.ServerID, n)
		for i := range qc.Signers {
			qc.Signers[i] = r.serverID()
		}
	}
	qc.Sigs = readSigs(r)
}

func readSigs(r *reader) [][]byte {
	n := r.count(1)
	if n == 0 {
		return nil
	}
	sigs := make([][]byte, n)
	for i := range sigs {
		sigs[i] = r.bytes()
	}
	return sigs
}

func readTxBlock(r *reader, b *types.TxBlock) {
	b.Header.V = types.View(r.uvarint())
	b.Header.N = types.SeqNum(r.uvarint())
	r.digest(&b.Header.PrevHash)
	b.Header.BatchLen = r.uint32()
	b.Txs = readTxs(r)
	if n := r.count(1); n > 0 {
		b.Status = make([]bool, n)
		for i := range b.Status {
			b.Status[i] = r.bool()
		}
	}
	readQC(r, &b.OrderingQC)
	readQC(r, &b.CommitQC)
}

func readTxBlocks(r *reader) []types.TxBlock {
	n := r.count(minTxBlock)
	if n == 0 {
		return nil
	}
	blocks := make([]types.TxBlock, n)
	for i := range blocks {
		readTxBlock(r, &blocks[i])
	}
	return blocks
}

func readVcBlock(r *reader, b *types.VcBlock) {
	b.V = types.View(r.uvarint())
	b.LeaderID = r.serverID()
	r.digest(&b.PrevHash)
	readQC(r, &b.ConfQC)
	readQC(r, &b.VcQC)
	b.RP = readRepMap(r)
	b.CI = readRepMap(r)
}

// readRepMap reads a reputation map, insisting on the strictly ascending key
// order Append writes (which also rules out duplicate keys).
func readRepMap(r *reader) map[types.ServerID]int64 {
	n := r.count(minRepPair)
	if n == 0 {
		return nil
	}
	m := make(map[types.ServerID]int64, n)
	prev := -1
	for i := 0; i < n; i++ {
		id := r.serverID()
		if int(id) <= prev {
			r.fail()
		}
		prev = int(id)
		m[id] = int64(r.uvarint())
	}
	return m
}
