// Package codec is the hand-rolled binary wire codec for the hot PrestigeBFT
// message types — the live fast lane that replaces gob's per-message type
// reflection and self-describing stream overhead (DESIGN.md §14).
//
// Encoding rules:
//   - integers (views, sequence numbers, lengths, counts, timestamps) are
//     unsigned varints (encoding/binary Uvarint); signed int64 fields are
//     encoded as their two's-complement uint64 bit pattern, not zigzag —
//     protocol values are non-negative in practice, and the cast round-trips
//     all values either way;
//   - digests are 32 raw bytes, no length prefix; a run of digests
//     (Notif.Path) is a uvarint count followed by the digests, the count
//     capped at types.MaxNotifPathLen;
//   - byte strings are uvarint length followed by the bytes; length 0
//     decodes as nil (gob equivalence: gob does not distinguish empty from
//     nil, so neither does this codec);
//   - repeated fields are a uvarint count followed by the elements; count 0
//     decodes as nil maps/slices;
//   - optional fields (SyncResp.Snapshot) are a presence byte (0/1);
//   - maps (VcBlock.RP/CI) are encoded in ascending key order so encoding
//     is deterministic; decoding accepts any order.
//
// Decoding never copies payload bytes: Transaction.Data, signatures, and
// nonces are subslices of the input buffer. Callers own the buffer and must
// not reuse it while the decoded message is alive — the transport allocates
// one buffer per inbound frame, which the decoded message then owns.
//
// Each message is framed as one kind byte followed by its body. Kind numbers
// are part of the wire protocol (negotiated by the transport's version
// magic); new kinds may be appended but existing numbers never change.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

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
)

// ErrUnknownKind reports a frame whose kind byte this codec version does not
// understand.
var ErrUnknownKind = errors.New("codec: unknown message kind")

var errTruncated = errors.New("codec: truncated message")

// Encodable reports whether the codec has a binary encoding for msg. The
// transport falls back to gob for everything else.
func Encodable(msg types.Message) bool {
	switch msg.(type) {
	case *types.Prop, *types.Notif, *types.Ord, *types.OrdReply, *types.Cmt,
		*types.CmtReply, *types.Adopt, *types.TxBlockMsg, *types.VoteCP,
		*types.SyncReq, *types.SyncResp, *types.CkptVote:
		return true
	default:
		return false
	}
}

// Append encodes msg (kind byte + body) onto buf and returns the extended
// slice. ok is false when msg has no binary encoding; buf is returned
// unchanged in that case.
func Append(buf []byte, msg types.Message) (out []byte, ok bool) {
	switch m := msg.(type) {
	case *types.Prop:
		buf = append(buf, kindProp)
		buf = appendTx(buf, &m.Tx)
		buf = append(buf, m.D[:]...)
		buf = appendBytes(buf, m.Sig)
	case *types.Notif:
		buf = append(buf, kindNotif)
		buf = appendUvarint(buf, uint64(m.From))
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
		buf = appendUvarint(buf, uint64(m.From))
		buf = appendUvarint(buf, uint64(m.V))
		buf = appendUvarint(buf, uint64(m.N))
		buf = append(buf, m.Prev[:]...)
		buf = appendUvarint(buf, uint64(len(m.Txs)))
		for i := range m.Txs {
			buf = appendTx(buf, &m.Txs[i])
		}
		buf = appendBytes(buf, m.Sig)
	case *types.OrdReply:
		buf = append(buf, kindOrdReply)
		buf = appendUvarint(buf, uint64(m.From))
		buf = appendUvarint(buf, uint64(m.V))
		buf = appendUvarint(buf, uint64(m.N))
		buf = append(buf, m.D[:]...)
		buf = appendBytes(buf, m.Sig)
	case *types.Cmt:
		buf = append(buf, kindCmt)
		buf = appendUvarint(buf, uint64(m.From))
		buf = appendUvarint(buf, uint64(m.V))
		buf = appendUvarint(buf, uint64(m.N))
		buf = appendQC(buf, &m.OrderingQC)
		buf = appendBytes(buf, m.Sig)
	case *types.CmtReply:
		buf = append(buf, kindCmtReply)
		buf = appendUvarint(buf, uint64(m.From))
		buf = appendUvarint(buf, uint64(m.V))
		buf = appendUvarint(buf, uint64(m.N))
		buf = append(buf, m.D[:]...)
		buf = appendBytes(buf, m.Sig)
	case *types.Adopt:
		buf = append(buf, kindAdopt)
		buf = appendUvarint(buf, uint64(m.From))
		buf = appendUvarint(buf, uint64(m.V))
		buf = appendTxBlock(buf, &m.Block)
		buf = appendBytes(buf, m.Sig)
	case *types.TxBlockMsg:
		buf = append(buf, kindTxBlockMsg)
		buf = appendUvarint(buf, uint64(m.From))
		buf = appendTxBlock(buf, &m.Block)
		buf = appendBytes(buf, m.Sig)
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
	default:
		return buf, false
	}
	return buf, true
}

// Decode parses one encoded message. The returned message aliases data —
// see the package comment on buffer ownership.
func Decode(data []byte) (types.Message, error) {
	if len(data) == 0 {
		return nil, errTruncated
	}
	r := reader{buf: data[1:]}
	var msg types.Message
	switch data[0] {
	case kindProp:
		m := &types.Prop{}
		readTx(&r, &m.Tx)
		r.digest(&m.D)
		m.Sig = r.bytes()
		msg = m
	case kindNotif:
		m := &types.Notif{}
		m.From = types.ServerID(r.uvarint())
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
		m.From = types.ServerID(r.uvarint())
		m.V = types.View(r.uvarint())
		m.N = types.SeqNum(r.uvarint())
		r.digest(&m.Prev)
		if n := r.count(); n > 0 {
			m.Txs = make([]types.Transaction, n)
			for i := range m.Txs {
				readTx(&r, &m.Txs[i])
			}
		}
		m.Sig = r.bytes()
		msg = m
	case kindOrdReply:
		m := &types.OrdReply{}
		m.From = types.ServerID(r.uvarint())
		m.V = types.View(r.uvarint())
		m.N = types.SeqNum(r.uvarint())
		r.digest(&m.D)
		m.Sig = r.bytes()
		msg = m
	case kindCmt:
		m := &types.Cmt{}
		m.From = types.ServerID(r.uvarint())
		m.V = types.View(r.uvarint())
		m.N = types.SeqNum(r.uvarint())
		readQC(&r, &m.OrderingQC)
		m.Sig = r.bytes()
		msg = m
	case kindCmtReply:
		m := &types.CmtReply{}
		m.From = types.ServerID(r.uvarint())
		m.V = types.View(r.uvarint())
		m.N = types.SeqNum(r.uvarint())
		r.digest(&m.D)
		m.Sig = r.bytes()
		msg = m
	case kindAdopt:
		m := &types.Adopt{}
		m.From = types.ServerID(r.uvarint())
		m.V = types.View(r.uvarint())
		readTxBlock(&r, &m.Block)
		m.Sig = r.bytes()
		msg = m
	case kindTxBlockMsg:
		m := &types.TxBlockMsg{}
		m.From = types.ServerID(r.uvarint())
		readTxBlock(&r, &m.Block)
		m.Sig = r.bytes()
		msg = m
	case kindVoteCP:
		m := &types.VoteCP{}
		m.From = types.ServerID(r.uvarint())
		m.Cand = types.ServerID(r.uvarint())
		m.VPrime = types.View(r.uvarint())
		if n := r.count(); n > 0 {
			m.Locked = make([]types.TxBlock, n)
			for i := range m.Locked {
				readTxBlock(&r, &m.Locked[i])
			}
		}
		m.Sig = r.bytes()
		msg = m
	case kindSyncReq:
		m := &types.SyncReq{}
		m.From = types.ServerID(r.uvarint())
		m.Kind = types.SyncKind(r.uvarint())
		m.Start = r.uvarint()
		m.End = r.uvarint()
		msg = m
	case kindSyncResp:
		m := &types.SyncResp{}
		m.From = types.ServerID(r.uvarint())
		m.Kind = types.SyncKind(r.uvarint())
		if n := r.count(); n > 0 {
			m.TxBlocks = make([]types.TxBlock, n)
			for i := range m.TxBlocks {
				readTxBlock(&r, &m.TxBlocks[i])
			}
		}
		if n := r.count(); n > 0 {
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
		m.From = types.ServerID(r.uvarint())
		m.Seq = types.SeqNum(r.uvarint())
		r.digest(&m.StateHash)
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
	buf = appendUvarint(buf, uint64(len(qc.Sigs)))
	for _, sig := range qc.Sigs {
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
	buf = appendUvarint(buf, uint64(len(b.RP)))
	for _, id := range types.SortedKeys(b.RP) {
		buf = appendUvarint(buf, uint64(id))
		buf = appendUvarint(buf, uint64(b.RP[id]))
	}
	buf = appendUvarint(buf, uint64(len(b.CI)))
	for _, id := range types.SortedKeys(b.CI) {
		buf = appendUvarint(buf, uint64(id))
		buf = appendUvarint(buf, uint64(b.CI[id]))
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
		r.err = errTruncated
	}
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// count reads a repetition count and bounds it against the bytes remaining
// (every element costs at least one byte), so a hostile count cannot force a
// huge allocation before the truncation is noticed.
func (r *reader) count() int {
	v := r.uvarint()
	if r.err != nil {
		return 0
	}
	if v > uint64(len(r.buf)) || v > math.MaxInt32 {
		r.fail()
		return 0
	}
	return int(v)
}

func (r *reader) uint32() uint32 {
	v := r.uvarint()
	if v > math.MaxUint32 {
		r.fail()
		return 0
	}
	return uint32(v)
}

// digests reads a counted run of digests. The count is checked against max
// and against the bytes remaining before anything is allocated: count()'s
// one-byte-per-element bound alone would let a frame ask for 32 times its
// own size.
func (r *reader) digests(max int) []types.Digest {
	n := r.count()
	if n > max || n > len(r.buf)/32 {
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

func (r *reader) bool() bool {
	if r.err != nil {
		return false
	}
	if len(r.buf) < 1 {
		r.fail()
		return false
	}
	b := r.buf[0]
	r.buf = r.buf[1:]
	return b != 0
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

// bytes returns a zero-copy subslice of the input; length 0 yields nil
// (matching gob, which erases the empty/nil distinction).
func (r *reader) bytes() []byte {
	n := r.count()
	if r.err != nil || n == 0 {
		return nil
	}
	b := r.buf[:n:n]
	r.buf = r.buf[n:]
	return b
}

func readTx(r *reader, t *types.Transaction) {
	t.Timestamp = int64(r.uvarint())
	t.Client = types.ClientID(r.uvarint())
	t.Data = r.bytes()
}

func readQC(r *reader, qc *types.QC) {
	if r.err != nil {
		return
	}
	if len(r.buf) < 1 {
		r.fail()
		return
	}
	qc.Kind = types.QCKind(r.buf[0])
	r.buf = r.buf[1:]
	qc.View = types.View(r.uvarint())
	qc.Seq = types.SeqNum(r.uvarint())
	r.digest(&qc.Digest)
	if n := r.count(); n > 0 {
		qc.Signers = make([]types.ServerID, n)
		for i := range qc.Signers {
			qc.Signers[i] = types.ServerID(r.uvarint())
		}
	}
	if n := r.count(); n > 0 {
		qc.Sigs = make([][]byte, n)
		for i := range qc.Sigs {
			qc.Sigs[i] = r.bytes()
		}
	}
}

func readTxBlock(r *reader, b *types.TxBlock) {
	b.Header.V = types.View(r.uvarint())
	b.Header.N = types.SeqNum(r.uvarint())
	r.digest(&b.Header.PrevHash)
	b.Header.BatchLen = uint32(r.uvarint())
	if n := r.count(); n > 0 {
		b.Txs = make([]types.Transaction, n)
		for i := range b.Txs {
			readTx(r, &b.Txs[i])
		}
	}
	if n := r.count(); n > 0 {
		b.Status = make([]bool, n)
		for i := range b.Status {
			b.Status[i] = r.bool()
		}
	}
	readQC(r, &b.OrderingQC)
	readQC(r, &b.CommitQC)
}

func readVcBlock(r *reader, b *types.VcBlock) {
	b.V = types.View(r.uvarint())
	b.LeaderID = types.ServerID(r.uvarint())
	r.digest(&b.PrevHash)
	readQC(r, &b.ConfQC)
	readQC(r, &b.VcQC)
	if n := r.count(); n > 0 {
		b.RP = make(map[types.ServerID]int64, n)
		for i := 0; i < n; i++ {
			id := types.ServerID(r.uvarint())
			b.RP[id] = int64(r.uvarint())
		}
	}
	if n := r.count(); n > 0 {
		b.CI = make(map[types.ServerID]int64, n)
		for i := 0; i < n; i++ {
			id := types.ServerID(r.uvarint())
			b.CI[id] = int64(r.uvarint())
		}
	}
}
