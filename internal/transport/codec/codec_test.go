package codec

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"go/ast"
	"go/parser"
	"go/token"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"prestigebft/internal/types"
)

// sampleMessages covers every wire kind, with both empty and populated
// optional fields.
func sampleMessages() []types.Message {
	qc := types.QC{
		Kind:    types.QCOrdering,
		View:    3,
		Seq:     17,
		Digest:  types.Digest{1, 2, 3},
		Signers: []types.ServerID{1, 2, 3},
		Sigs:    [][]byte{{0xAA}, {0xBB, 0xCC}, {0xDD}},
	}
	cqc := qc
	cqc.Kind = types.QCCommit
	confQC := types.QC{Kind: types.QCConf, View: 4, Signers: []types.ServerID{1, 3}, Sigs: [][]byte{{1}, {2}}}
	block := types.TxBlock{
		Header: types.TxBlockHeader{V: 3, N: 17, PrevHash: types.Digest{9}, BatchLen: 2},
		Txs: []types.Transaction{
			{Timestamp: 1111, Client: 1, Data: []byte("tx-a")},
			{Timestamp: 2222, Client: 2, Data: nil},
		},
		Status:     []bool{true, false},
		OrderingQC: qc,
		CommitQC:   cqc,
	}
	vcb := types.VcBlock{
		V:        4,
		LeaderID: 2,
		PrevHash: types.Digest{8},
		ConfQC:   confQC,
		VcQC:     types.QC{Kind: types.QCVote, View: 4, Seq: 2, Signers: []types.ServerID{1, 2, 3}, Sigs: [][]byte{{1}, {2}, {3}}},
		RP:       map[types.ServerID]int64{1: 1, 2: 5, 3: 2},
		CI:       map[types.ServerID]int64{1: 1, 2: -2, 3: 3},
	}
	prop := types.Prop{
		Tx:  types.Transaction{Timestamp: 42, Client: 7, Data: []byte("payload")},
		D:   types.Digest{4, 5},
		Sig: []byte("client-sig"),
	}
	return []types.Message{
		&prop,
		&types.Prop{Tx: types.Transaction{Timestamp: -1, Client: 1}},
		&types.Notif{From: 2, V: 1, N: 9, TxD: types.Digest{6}, Status: true, Sig: []byte("s")},
		&types.Notif{From: 3, Leader: 1, V: 2, N: 10, TxD: types.Digest{7}, Index: 5,
			Path: []types.Digest{{0xA1}, {0xA2}, {0xA3}}, Sig: []byte("block-sig")},
		&types.Notif{From: 4, Leader: 1<<16 - 1, V: 2, N: 11, TxD: types.Digest{8}, Status: true, Index: 1<<32 - 1,
			Path: make([]types.Digest, types.MaxNotifPathLen), Sig: []byte("deepest")},
		&types.Ord{From: 1, V: 1, N: 5, Prev: types.Digest{7}, Txs: block.Txs, Sig: []byte("leader")},
		&types.Ord{From: 1, V: 1, N: 6, Sig: []byte("empty-batch")},
		&types.OrdReply{From: 3, V: 1, N: 5, D: types.Digest{3}, Sig: []byte("vote")},
		&types.Cmt{From: 1, V: 1, N: 5, OrderingQC: qc, Sig: []byte("cmt")},
		&types.CmtReply{From: 4, V: 1, N: 5, D: types.Digest{3}, Sig: []byte("vote2")},
		&types.Adopt{From: 2, V: 6, Block: block, Sig: []byte("adopt")},
		&types.TxBlockMsg{From: 1, Block: block, Sig: []byte("blk")},
		&types.VoteCP{From: 3, Cand: 2, VPrime: 7, Locked: []types.TxBlock{block}, Sig: []byte("cp")},
		&types.VoteCP{From: 3, Cand: 2, VPrime: 7, Sig: []byte("no-locked")},
		&types.SyncReq{From: 2, Kind: types.SyncTx, Start: 3, End: 99},
		&types.SyncResp{From: 1, Kind: types.SyncTx, TxBlocks: []types.TxBlock{block}},
		&types.SyncResp{From: 1, Kind: types.SyncVc, VcBlocks: []types.VcBlock{vcb}},
		&types.SyncResp{
			From: 1, Kind: types.SyncTx,
			Snapshot: &types.SnapshotPackage{
				Cert: types.CheckpointCert{
					Header: types.CheckpointHeader{Seq: 17, View: 3, BlockHash: types.Digest{1}, AppDigest: types.Digest{2}, RepDigest: types.Digest{3}},
					QC:     cqc,
				},
				Anchor:   block,
				AppState: []byte("app-state"),
			},
		},
		&types.SyncResp{From: 4, Kind: types.SyncVc},
		&types.CkptVote{From: 2, Seq: 100, StateHash: types.Digest{5}, Sig: []byte("ck")},
		&types.Compt{Prop: prop, Sig: []byte("complaint")},
		&types.Compt{},
		&types.ConfVC{From: 2, V: 4, Reason: types.ReasonComplaint, TxD: types.Digest{4, 5}, Client: 7, Sig: []byte("conf")},
		&types.ConfVC{From: 2, V: 4, Reason: types.ReasonPolicy, Sig: []byte("policy")},
		&types.ReVC{From: 3, To: 2, V: 4, Sig: []byte("re")},
		&types.CampVC{From: 2, ConfQC: confQC, V: 4, VPrime: 5, RP: 3, CI: -1, Nonce: []byte{1, 2, 3, 4, 5, 6, 7, 8},
			HR: types.Digest{0, 0, 0x1F}, TxN: 17, TxHash: types.Digest{9, 9}, VcN: 4, Sig: []byte("camp")},
		&types.CampVC{From: 1, VPrime: 2, Nonce: make([]byte, MaxNonceLen)},
		&types.VcBlockMsg{From: 2, Block: vcb, Sig: []byte("vcb")},
		&types.VcBlockMsg{From: 1, Block: *types.GenesisVcBlock(4, 1, 1, 1)},
		&types.VcYes{From: 3, V: 5, BlockHash: types.Digest{0xB1}, Sig: []byte("yes")},
		&types.Ref{From: 4, V: 5, Sig: []byte("ref")},
		&types.Rdone{From: 4, V: 5, RsQC: types.QC{Kind: types.QCRefresh, View: 5, Signers: []types.ServerID{1, 2, 4}, Sigs: [][]byte{{1}, {2}, {4}}},
			RP: 1, CI: 9, Sig: []byte("rdone")},
	}
}

func mustAppend(t testing.TB, msg types.Message) []byte {
	t.Helper()
	buf, ok := Append(nil, msg)
	if !ok {
		t.Fatalf("%T is not encodable", msg)
	}
	return buf
}

// mustRoundTrip checks the codec's two contracts on one message:
// Decode(Append(m)) == m, and the decoded message re-encodes to the same
// bytes.
func mustRoundTrip(t testing.TB, msg types.Message) {
	t.Helper()
	buf := mustAppend(t, msg)
	out, err := Decode(buf)
	if err != nil {
		t.Fatalf("decode %T: %v", msg, err)
	}
	if !reflect.DeepEqual(out, msg) {
		t.Fatalf("round trip changed the message:\n got %#v\nwant %#v", out, msg)
	}
	if again := mustAppend(t, out); !bytes.Equal(again, buf) {
		t.Fatalf("%T re-encodes differently:\n first %x\nsecond %x", msg, buf, again)
	}
}

// kindName names a message kind for a subtest: its Go type without the
// package and without a trailing "Msg" (TxBlockMsg is "TxBlock").
func kindName(m types.Message) string {
	return strings.TrimSuffix(reflect.TypeOf(m).Elem().Name(), "Msg")
}

func TestRoundTrip(t *testing.T) {
	for _, msg := range sampleMessages() {
		t.Run(kindName(msg), func(t *testing.T) { mustRoundTrip(t, msg) })
	}
}

// TestWireSetIsExhaustive: every message type of package types — the set a
// `//lint:dispatch prestigebft/internal/types` switch must cover — has an
// encoding, and sampleMessages exercises each of them. A message added to
// package types without a codec kind fails here, not on a live socket.
func TestWireSetIsExhaustive(t *testing.T) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), "../../types", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	methods := map[string]map[string]bool{} // receiver type → method names
	for _, f := range pkgs["types"].Files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv == nil {
				continue
			}
			star, ok := fn.Recv.List[0].Type.(*ast.StarExpr)
			if !ok {
				continue
			}
			recv := star.X.(*ast.Ident).Name
			if methods[recv] == nil {
				methods[recv] = map[string]bool{}
			}
			methods[recv][fn.Name.Name] = true
		}
	}
	var wireSet []string
	for recv, ms := range methods {
		if ms["WireSize"] && ast.IsExported(recv) {
			wireSet = append(wireSet, recv)
		}
	}
	sort.Strings(wireSet)
	if len(wireSet) != 20 {
		t.Fatalf("package types declares %d message types, DESIGN.md §14 documents 20: %v", len(wireSet), wireSet)
	}
	sampled := map[string]bool{}
	for _, msg := range sampleMessages() {
		sampled[reflect.TypeOf(msg).Elem().Name()] = true
	}
	for _, name := range wireSet {
		if !sampled[name] {
			t.Errorf("types.%s has no sample (and so no proof it encodes)", name)
		}
	}
	if _, ok := Append(nil, nonWire{}); ok {
		t.Error("Append accepted a type outside the wire set")
	}
}

type nonWire struct{}

func (nonWire) WireSize() int { return 0 }

// --- golden bytes -----------------------------------------------------------

// cat concatenates byte slices and single bytes into one expected encoding.
func cat(parts ...any) []byte {
	var out []byte
	for _, p := range parts {
		switch v := p.(type) {
		case []byte:
			out = append(out, v...)
		case byte:
			out = append(out, v)
		case int:
			out = append(out, byte(v))
		case string:
			out = append(out, v...)
		default:
			panic(p)
		}
	}
	return out
}

// dg is a 32-byte digest spelled by its leading bytes.
func dg(first ...byte) []byte { return append(first, make([]byte, 32-len(first))...) }

// TestGoldenBytes pins the layout of all 20 kinds byte for byte (DESIGN.md
// §14), written out by hand rather than derived from Append: the repo, not a
// second codec, is what holds the format still.
func TestGoldenBytes(t *testing.T) {
	// Shared parts and their encodings.
	tx := types.Transaction{Timestamp: 1111, Client: 7, Data: []byte("ab")}
	txB := cat(0xD7, 0x08, 7, 2, "ab") // 1111 = 0x457
	qc := types.QC{Kind: types.QCOrdering, View: 300, Seq: 2, Digest: types.Digest{0xD1},
		Signers: []types.ServerID{1, 2, 300}, Sigs: [][]byte{{0xA1}, {0xA2, 0xA3}, nil}}
	qcB := cat(3, 0xAC, 0x02, 2, dg(0xD1), 3, 1, 2, 0xAC, 0x02, 3, 1, 0xA1, 2, 0xA2, 0xA3, 0)
	noQC := cat(0, 0, 0, dg(), 0, 0)
	block := types.TxBlock{
		Header: types.TxBlockHeader{V: 3, N: 17, PrevHash: types.Digest{9}, BatchLen: 1},
		Txs:    []types.Transaction{tx}, Status: []bool{true}, OrderingQC: qc,
	}
	blockB := cat(3, 17, dg(9), 1, 1, txB, 1, 1, qcB, noQC)
	vcb := types.VcBlock{V: 4, LeaderID: 2, PrevHash: types.Digest{8}, VcQC: qc,
		RP: map[types.ServerID]int64{2: 5, 1: 1}, CI: map[types.ServerID]int64{3: -1}}
	minus1 := cat(0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01)
	vcbB := cat(4, 2, dg(8), noQC, qcB, 2, 1, 1, 2, 5, 1, 3, minus1)
	prop := types.Prop{Tx: tx, D: types.Digest{4, 5}, Sig: []byte{0x51, 0x52}}
	propB := cat(txB, dg(4, 5), 2, 0x51, 0x52)
	sig := []byte{0x5A}
	sigB := cat(1, 0x5A)

	for _, tc := range []struct {
		msg  types.Message
		want []byte
	}{
		{&prop, cat(kindProp, propB)},
		{&types.Notif{From: 3, Leader: 300, V: 300, N: 70000, TxD: types.Digest{0xD1, 0xD2}, Status: true,
			Index: 5, Path: []types.Digest{{0xA1}, {0xA2}, {0xA3}}, Sig: []byte{0x51, 0x52}},
			cat(kindNotif, 3, 0xAC, 0x02, 0xAC, 0x02, 0xF0, 0xA2, 0x04, dg(0xD1, 0xD2), 1, 5, 3, dg(0xA1), dg(0xA2), dg(0xA3), 2, 0x51, 0x52)},
		// The one-leaf Notif without a leader hint: leader 0, index 0, no
		// path — three zero bytes.
		{&types.Notif{From: 1, Sig: sig}, cat(kindNotif, 1, 0, 0, 0, dg(), 0, 0, 0, sigB)},
		{&types.Ord{From: 1, V: 2, N: 3, Prev: types.Digest{7}, Txs: []types.Transaction{tx, {}}, ClientSigs: [][]byte{{0x61}, nil}, Sig: sig},
			cat(kindOrd, 1, 2, 3, dg(7), 2, txB, 0, 0, 0, 2, 1, 0x61, 0, sigB)},
		{&types.OrdReply{From: 3, V: 2, N: 3, D: types.Digest{6}, Sig: sig}, cat(kindOrdReply, 3, 2, 3, dg(6), sigB)},
		{&types.Cmt{From: 1, V: 2, N: 3, OrderingQC: qc, Sig: sig}, cat(kindCmt, 1, 2, 3, qcB, sigB)},
		{&types.CmtReply{From: 4, V: 2, N: 3, D: types.Digest{6}, Sig: sig}, cat(kindCmtReply, 4, 2, 3, dg(6), sigB)},
		{&types.Adopt{From: 2, V: 6, Block: block, Sig: sig}, cat(kindAdopt, 2, 6, blockB, sigB)},
		{&types.TxBlockMsg{From: 1, Block: block, Sig: sig}, cat(kindTxBlockMsg, 1, blockB, sigB)},
		{&types.VoteCP{From: 3, Cand: 2, VPrime: 7, Locked: []types.TxBlock{block}, Sig: sig},
			cat(kindVoteCP, 3, 2, 7, 1, blockB, sigB)},
		{&types.SyncReq{From: 2, Kind: types.SyncVc, Start: 3, End: 300}, cat(kindSyncReq, 2, 2, 3, 0xAC, 0x02)},
		{&types.SyncResp{From: 1, Kind: types.SyncTx, TxBlocks: []types.TxBlock{block}, VcBlocks: []types.VcBlock{vcb},
			Snapshot: &types.SnapshotPackage{
				Cert: types.CheckpointCert{
					Header: types.CheckpointHeader{Seq: 17, View: 3, BlockHash: types.Digest{1}, AppDigest: types.Digest{2}, RepDigest: types.Digest{3}},
					QC:     qc,
				},
				Anchor: block, AppState: []byte("st"),
			}},
			cat(kindSyncResp, 1, 1, 1, blockB, 1, vcbB, 1, 17, 3, dg(1), dg(2), dg(3), qcB, blockB, 2, "st")},
		{&types.SyncResp{From: 4, Kind: types.SyncVc}, cat(kindSyncResp, 4, 2, 0, 0, 0)},
		{&types.CkptVote{From: 2, Seq: 100, StateHash: types.Digest{5}, Sig: sig}, cat(kindCkptVote, 2, 100, dg(5), sigB)},
		{&types.Compt{Prop: prop, Sig: sig}, cat(kindCompt, propB, sigB)},
		{&types.ConfVC{From: 2, V: 4, Reason: types.ReasonPolicy, TxD: types.Digest{4, 5}, Client: 300, Sig: sig},
			cat(kindConfVC, 2, 4, 2, dg(4, 5), 0xAC, 0x02, sigB)},
		{&types.ReVC{From: 3, To: 2, V: 4, Sig: sig}, cat(kindReVC, 3, 2, 4, sigB)},
		{&types.CampVC{From: 2, ConfQC: qc, V: 4, VPrime: 5, RP: 3, CI: -1, Nonce: []byte{1, 2, 3, 4, 5, 6, 7, 8},
			HR: types.Digest{0, 0x1F}, TxN: 17, TxHash: types.Digest{9}, VcN: 4, Sig: sig},
			cat(kindCampVC, 2, qcB, 4, 5, 3, minus1, 8, 1, 2, 3, 4, 5, 6, 7, 8, dg(0, 0x1F), 17, dg(9), 4, sigB)},
		{&types.VcBlockMsg{From: 2, Block: vcb, Sig: sig}, cat(kindVcBlockMsg, 2, vcbB, sigB)},
		{&types.VcYes{From: 3, V: 5, BlockHash: types.Digest{0xB1}, Sig: sig}, cat(kindVcYes, 3, 5, dg(0xB1), sigB)},
		{&types.Ref{From: 4, V: 5, Sig: sig}, cat(kindRef, 4, 5, sigB)},
		{&types.Rdone{From: 4, V: 5, RsQC: qc, RP: 1, CI: 9, Sig: sig}, cat(kindRdone, 4, 5, qcB, 1, 9, sigB)},
	} {
		t.Run(kindName(tc.msg), func(t *testing.T) {
			if got := mustAppend(t, tc.msg); !bytes.Equal(got, tc.want) {
				t.Fatalf("%T layout changed:\n got %x\nwant %x", tc.msg, got, tc.want)
			}
			out, err := Decode(tc.want)
			if err != nil {
				t.Fatalf("golden bytes do not decode: %v", err)
			}
			if !reflect.DeepEqual(out, tc.msg) {
				t.Fatalf("golden bytes decode to\n %#v\nwant %#v", out, tc.msg)
			}
		})
	}

	// Kind numbers are the protocol: append-only, never renumbered.
	kinds := []byte{kindProp, kindNotif, kindOrd, kindOrdReply, kindCmt, kindCmtReply, kindAdopt,
		kindTxBlockMsg, kindVoteCP, kindSyncReq, kindSyncResp, kindCkptVote, kindCompt, kindConfVC,
		kindReVC, kindCampVC, kindVcBlockMsg, kindVcYes, kindRef, kindRdone}
	for i, k := range kinds {
		if int(k) != i+1 {
			t.Errorf("kind #%d renumbered to %d", i+1, k)
		}
	}
}

// --- rejection --------------------------------------------------------------

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{kindInvalid},
		{0xFF},             // unknown kind
		{kindRdone + 1},    // first unassigned kind
		{kindCmt},          // truncated body
		{kindOrd, 1, 1, 1}, // truncated digest
	}
	for _, data := range cases {
		if _, err := Decode(data); err == nil {
			t.Errorf("Decode(%x) accepted garbage", data)
		}
	}
	// Trailing bytes are an error, not silently ignored.
	for _, msg := range sampleMessages() {
		if _, err := Decode(append(mustAppend(t, msg), 0)); err == nil {
			t.Errorf("%T: trailing byte accepted", msg)
		}
	}
}

// TestDecodeRejectsTruncation: every strict prefix of every sample's encoding
// is refused — no kind has a field that can silently go missing.
func TestDecodeRejectsTruncation(t *testing.T) {
	for _, msg := range sampleMessages() {
		buf := mustAppend(t, msg)
		for n := 0; n < len(buf); n++ {
			if _, err := Decode(buf[:n:n]); err == nil {
				t.Fatalf("%T: %d-byte prefix of a %d-byte encoding accepted", msg, n, len(buf))
			}
		}
	}
}

// TestDecodeRejectsNonCanonical: one spelling per value. Anything Append
// would not have written is refused, so an accepted frame always re-encodes
// to itself.
func TestDecodeRejectsNonCanonical(t *testing.T) {
	vcHead := cat(kindVcBlockMsg, 1, 1, 1, dg(), cat(0, 0, 0, dg(), 0, 0), cat(0, 0, 0, dg(), 0, 0))
	for name, data := range map[string][]byte{
		"padded varint":          cat(kindRef, 0x81, 0x00, 5, 0),
		"padded zero":            cat(kindRef, 0x80, 0x00, 5, 0),
		"bool 2":                 cat(kindNotif, 1, 0, 0, 0, dg(), 2, 0, 0, 0),
		"presence byte 2":        cat(kindSyncResp, 4, 2, 0, 0, 2),
		"server ID 65536":        cat(kindRef, 0x80, 0x80, 0x04, 5, 0),
		"ReVC.To 65536":          cat(kindReVC, 1, 0x80, 0x80, 0x04, 5, 0),
		"client ID 2^32":         cat(kindConfVC, 1, 1, 1, dg(), 0x80, 0x80, 0x80, 0x80, 0x10, 0),
		"sync kind 256":          cat(kindSyncReq, 1, 0x80, 0x02, 0, 0),
		"batch length 2^32":      cat(kindTxBlockMsg, 1, 1, 1, dg(), 0x80, 0x80, 0x80, 0x80, 0x10, 0, 0, cat(0, 0, 0, dg(), 0, 0), cat(0, 0, 0, dg(), 0, 0), 0),
		"map keys descending":    cat(vcHead, 2, 2, 1, 1, 1, 0, 0),
		"map key repeated":       cat(vcHead, 2, 1, 1, 1, 1, 0, 0),
		"second map unsorted":    cat(vcHead, 0, 2, 3, 1, 2, 1, 0),
		"varint overflows 64bit": cat(kindRef, 1, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02, 0),
	} {
		if _, err := Decode(data); err == nil {
			t.Errorf("%s: accepted %x", name, data)
		}
	}
	// The same frames with the defect repaired decode, so each case above
	// fails for the reason it names.
	for name, data := range map[string][]byte{
		"ref":          cat(kindRef, 1, 5, 0),
		"notif":        cat(kindNotif, 1, 0, 0, 0, dg(), 1, 0, 0, 0),
		"vcblock maps": cat(vcHead, 2, 1, 1, 2, 1, 1, 3, 1, 0),
	} {
		if _, err := Decode(data); err != nil {
			t.Errorf("%s: control frame refused: %v", name, err)
		}
	}
}

// allocatedBytes reports the heap bytes one call of f allocates.
func allocatedBytes(f func()) uint64 {
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs
}

// TestDecodeBoundsViewChangeKinds: every count and length in the eight
// view-change kinds is checked against the bytes that follow it before
// anything is allocated — a count the frame cannot back is refused, and
// refusing it costs no more memory than the frame itself plus the message
// value.
func TestDecodeBoundsViewChangeKinds(t *testing.T) {
	hostile := cat(0xFF, 0xFF, 0xFF, 0xFF, 0x07) // ≈ 2^31
	noQC := cat(0, 0, 0, dg(), 0, 0)
	qcHead := cat(0, 0, 0, dg()) // a QC up to its signer count
	pad := make([]byte, 256)     // bytes present, but far fewer than the count claims
	campHead := cat(kindCampVC, 1, noQC, 4, 5, 3, 1)
	campTail := cat(dg(), 17, dg(), 4, 0)
	nonce := func(n int) []byte { return cat(binary.AppendUvarint(nil, uint64(n)), make([]byte, n)) }

	for name, data := range map[string][]byte{
		"Compt: tx data length":         cat(kindCompt, 1, 1, hostile, pad),
		"Compt: prop sig length":        cat(kindCompt, 1, 1, 0, dg(), hostile, pad),
		"Compt: complaint sig length":   cat(kindCompt, 1, 1, 0, dg(), 0, hostile, pad),
		"ConfVC: sig length":            cat(kindConfVC, 1, 1, 1, dg(), 1, hostile, pad),
		"ReVC: sig length":              cat(kindReVC, 1, 2, 1, hostile, pad),
		"CampVC: conf_QC signer count":  cat(kindCampVC, 1, qcHead, hostile, pad),
		"CampVC: conf_QC sig count":     cat(kindCampVC, 1, qcHead, 0, hostile, pad),
		"CampVC: conf_QC sig length":    cat(kindCampVC, 1, qcHead, 0, 1, hostile, pad),
		"CampVC: nonce length":          cat(campHead, hostile, pad),
		"CampVC: nonce over the cap":    cat(campHead, nonce(MaxNonceLen+1), campTail),
		"CampVC: sig length":            cat(campHead, nonce(8), dg(), 17, dg(), 4, hostile, pad),
		"VcBlockMsg: conf_QC signers":   cat(kindVcBlockMsg, 1, 1, 1, dg(), qcHead, hostile, pad),
		"VcBlockMsg: vc_QC sigs":        cat(kindVcBlockMsg, 1, 1, 1, dg(), noQC, qcHead, 0, hostile, pad),
		"VcBlockMsg: rp count":          cat(kindVcBlockMsg, 1, 1, 1, dg(), noQC, noQC, hostile, pad),
		"VcBlockMsg: ci count":          cat(kindVcBlockMsg, 1, 1, 1, dg(), noQC, noQC, 0, hostile, pad),
		"VcBlockMsg: rp pairs cut off":  cat(kindVcBlockMsg, 1, 1, 1, dg(), noQC, noQC, 2, 1, 1, 2),
		"VcBlockMsg: rp count vs bytes": cat(kindVcBlockMsg, 1, 1, 1, dg(), noQC, noQC, 3, 1, 1, 2, 1, 0),
		"VcBlockMsg: sig length":        cat(kindVcBlockMsg, 1, 1, 1, dg(), noQC, noQC, 0, 0, hostile, pad),
		"VcYes: sig length":             cat(kindVcYes, 1, 1, dg(), hostile, pad),
		"Ref: sig length":               cat(kindRef, 1, 1, hostile, pad),
		"Rdone: rs_QC signer count":     cat(kindRdone, 1, 1, qcHead, hostile, pad),
		"Rdone: rs_QC sig count":        cat(kindRdone, 1, 1, qcHead, 0, hostile, pad),
		"Rdone: sig length":             cat(kindRdone, 1, 1, noQC, 1, 9, hostile, pad),
	} {
		if _, err := Decode(data); err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		// msgStruct covers the message value Decode allocates before it reads
		// a single field (the largest, VcBlockMsg, is 320 bytes).
		const msgStruct = 512
		if got := allocatedBytes(func() { Decode(data) }); got > uint64(len(data))+msgStruct {
			t.Errorf("%s: refusing a %d-byte frame allocated %d bytes", name, len(data), got)
		}
	}
	// The cap itself is accepted.
	if _, err := Decode(cat(campHead, nonce(MaxNonceLen), campTail)); err != nil {
		t.Errorf("nonce of exactly MaxNonceLen refused: %v", err)
	}
	// A hostile count in a hot kind, for symmetry with the cold ones.
	if _, err := Decode(cat(kindOrd, 1, 1, 1, dg(), hostile, pad)); err == nil {
		t.Error("Ord: hostile tx count accepted")
	}
}

// TestDecodeBoundsNotifPath: the path count is checked against the cap and
// against the bytes actually present before the path is allocated.
func TestDecodeBoundsNotifPath(t *testing.T) {
	head := cat(kindNotif, 1, 2, 1, 1, dg(), 1, 0)       // From Leader V N TxD status index
	body := make([]byte, (types.MaxNotifPathLen+1)*32+1) // digests + empty sig
	for _, tc := range []struct {
		name  string
		count []byte
	}{
		{"over the cap, bytes present", []byte{types.MaxNotifPathLen + 1}},
		{"hostile count", []byte{0xFF, 0xFF, 0xFF, 0xFF, 0x07}},
	} {
		if _, err := Decode(cat(head, tc.count, body)); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// Within the cap but more digests than the frame holds.
	if _, err := Decode(cat(head, 4, make([]byte, 3*32+20))); err == nil {
		t.Error("path count beyond the frame's bytes accepted")
	}
	// An index that does not fit uint32 is refused, not truncated.
	if _, err := Decode(cat(kindNotif, 1, 2, 1, 1, dg(), 1, 0x80, 0x80, 0x80, 0x80, 0x10, 0, 0)); err == nil {
		t.Error("index 2^32 accepted")
	}
}

// TestDecodeNotifLeader: the leader hint is a server ID like From — a
// minimal uvarint no larger than 2^16-1 — and 0, "no hint", is legal.
func TestDecodeNotifLeader(t *testing.T) {
	frame := func(leader ...byte) []byte { return cat(kindNotif, 1, leader, 1, 1, dg(), 1, 0, 0, 0) }
	for _, tc := range []struct {
		name   string
		leader []byte
		want   types.ServerID
	}{
		{"no hint", []byte{0}, 0},
		{"server 4", []byte{4}, 4},
		{"largest ID", []byte{0xFF, 0xFF, 0x03}, 1<<16 - 1},
	} {
		msg, err := Decode(frame(tc.leader...))
		if err != nil {
			t.Errorf("%s: refused: %v", tc.name, err)
			continue
		}
		if got := msg.(*types.Notif).Leader; got != tc.want {
			t.Errorf("%s: leader %d, want %d", tc.name, got, tc.want)
		}
	}
	for name, leader := range map[string][]byte{
		"leader 65536":       {0x80, 0x80, 0x04},
		"leader 2^32":        {0x80, 0x80, 0x80, 0x80, 0x10},
		"padded leader":      {0x84, 0x00},
		"padded zero leader": {0x80, 0x00},
	} {
		if _, err := Decode(frame(leader...)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestDecodeZeroCopy: decoded payloads alias the input buffer — the
// transport hands each frame its own buffer, so aliasing is safe and saves
// a copy per payload.
func TestDecodeZeroCopy(t *testing.T) {
	m := &types.Prop{Tx: types.Transaction{Timestamp: 1, Client: 2, Data: []byte("zero-copy")}, Sig: []byte("sig")}
	buf := mustAppend(t, m)
	out, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	got := out.(*types.Prop)
	buf[len(buf)-1] ^= 0xFF // corrupt the buffer: the decoded sig must alias it
	if bytes.Equal(got.Sig, m.Sig) {
		t.Fatal("decoded signature does not alias the input buffer")
	}
}

// --- fuzz -------------------------------------------------------------------

// gen builds random messages for the round-trip property. Empty slices and
// maps are generated as nil, the form Decode produces.
type gen struct{ *rand.Rand }

func (g gen) u64() uint64 {
	// Mix magnitudes so every varint width shows up.
	return g.Uint64() >> uint(g.Intn(64))
}
func (g gen) server() types.ServerID { return types.ServerID(g.u64()) }
func (g gen) view() types.View       { return types.View(g.u64()) }
func (g gen) seq() types.SeqNum      { return types.SeqNum(g.u64()) }

func (g gen) digest() (d types.Digest) {
	if g.Intn(4) > 0 {
		g.Read(d[:])
	}
	return d
}

func (g gen) bytes(max int) []byte {
	n := g.Intn(max + 1)
	if n == 0 {
		return nil
	}
	b := make([]byte, n)
	g.Read(b)
	return b
}

func (g gen) tx() types.Transaction {
	return types.Transaction{Timestamp: int64(g.u64()), Client: types.ClientID(g.u64()), Data: g.bytes(40)}
}

func (g gen) txs() []types.Transaction {
	n := g.Intn(4)
	if n == 0 {
		return nil
	}
	out := make([]types.Transaction, n)
	for i := range out {
		out[i] = g.tx()
	}
	return out
}

func (g gen) qc() types.QC {
	qc := types.QC{Kind: types.QCKind(g.Intn(256)), View: g.view(), Seq: g.seq(), Digest: g.digest()}
	for i := g.Intn(5); i > 0; i-- {
		qc.Signers = append(qc.Signers, g.server())
	}
	for i := g.Intn(5); i > 0; i-- {
		qc.Sigs = append(qc.Sigs, g.bytes(64))
	}
	return qc
}

func (g gen) txBlock() types.TxBlock {
	b := types.TxBlock{
		Header:     types.TxBlockHeader{V: g.view(), N: g.seq(), PrevHash: g.digest(), BatchLen: uint32(g.u64())},
		Txs:        g.txs(),
		OrderingQC: g.qc(),
		CommitQC:   g.qc(),
	}
	for i := g.Intn(4); i > 0; i-- {
		b.Status = append(b.Status, g.Intn(2) == 1)
	}
	return b
}

func (g gen) txBlocks() []types.TxBlock {
	n := g.Intn(3)
	if n == 0 {
		return nil
	}
	out := make([]types.TxBlock, n)
	for i := range out {
		out[i] = g.txBlock()
	}
	return out
}

func (g gen) repMap() map[types.ServerID]int64 {
	n := g.Intn(6)
	if n == 0 {
		return nil
	}
	m := make(map[types.ServerID]int64, n)
	for i := 0; i < n; i++ {
		m[g.server()] = int64(g.Uint64()) >> uint(g.Intn(64))
	}
	return m
}

func (g gen) vcBlock() types.VcBlock {
	return types.VcBlock{V: g.view(), LeaderID: g.server(), PrevHash: g.digest(),
		ConfQC: g.qc(), VcQC: g.qc(), RP: g.repMap(), CI: g.repMap()}
}

func (g gen) prop() types.Prop { return types.Prop{Tx: g.tx(), D: g.digest(), Sig: g.bytes(64)} }

func (g gen) message() types.Message {
	sig := g.bytes(64)
	switch g.Intn(20) {
	case 0:
		p := g.prop()
		return &p
	case 1:
		m := &types.Notif{From: g.server(), Leader: g.server(), V: g.view(), N: g.seq(), TxD: g.digest(),
			Status: g.Intn(2) == 1, Index: uint32(g.u64()), Sig: sig}
		for i := g.Intn(types.MaxNotifPathLen + 1); i > 0; i-- {
			m.Path = append(m.Path, g.digest())
		}
		return m
	case 2:
		m := &types.Ord{From: g.server(), V: g.view(), N: g.seq(), Prev: g.digest(), Txs: g.txs(), Sig: sig}
		for range m.Txs {
			m.ClientSigs = append(m.ClientSigs, g.bytes(64))
		}
		return m
	case 3:
		return &types.OrdReply{From: g.server(), V: g.view(), N: g.seq(), D: g.digest(), Sig: sig}
	case 4:
		return &types.Cmt{From: g.server(), V: g.view(), N: g.seq(), OrderingQC: g.qc(), Sig: sig}
	case 5:
		return &types.CmtReply{From: g.server(), V: g.view(), N: g.seq(), D: g.digest(), Sig: sig}
	case 6:
		return &types.Adopt{From: g.server(), V: g.view(), Block: g.txBlock(), Sig: sig}
	case 7:
		return &types.TxBlockMsg{From: g.server(), Block: g.txBlock(), Sig: sig}
	case 8:
		return &types.VoteCP{From: g.server(), Cand: g.server(), VPrime: g.view(), Locked: g.txBlocks(), Sig: sig}
	case 9:
		return &types.SyncReq{From: g.server(), Kind: types.SyncKind(g.Intn(256)), Start: g.u64(), End: g.u64()}
	case 10:
		m := &types.SyncResp{From: g.server(), Kind: types.SyncKind(g.Intn(256)), TxBlocks: g.txBlocks()}
		for i := g.Intn(3); i > 0; i-- {
			m.VcBlocks = append(m.VcBlocks, g.vcBlock())
		}
		if g.Intn(2) == 1 {
			m.Snapshot = &types.SnapshotPackage{
				Cert: types.CheckpointCert{
					Header: types.CheckpointHeader{Seq: g.seq(), View: g.view(), BlockHash: g.digest(), AppDigest: g.digest(), RepDigest: g.digest()},
					QC:     g.qc(),
				},
				Anchor: g.txBlock(), AppState: g.bytes(100),
			}
		}
		return m
	case 11:
		return &types.CkptVote{From: g.server(), Seq: g.seq(), StateHash: g.digest(), Sig: sig}
	case 12:
		return &types.Compt{Prop: g.prop(), Sig: sig}
	case 13:
		return &types.ConfVC{From: g.server(), V: g.view(), Reason: types.ConfReason(g.Intn(256)),
			TxD: g.digest(), Client: types.ClientID(g.u64()), Sig: sig}
	case 14:
		return &types.ReVC{From: g.server(), To: g.server(), V: g.view(), Sig: sig}
	case 15:
		return &types.CampVC{From: g.server(), ConfQC: g.qc(), V: g.view(), VPrime: g.view(),
			RP: int64(g.u64()), CI: -int64(g.u64() >> 1), Nonce: g.bytes(MaxNonceLen), HR: g.digest(),
			TxN: g.seq(), TxHash: g.digest(), VcN: g.view(), Sig: sig}
	case 16:
		return &types.VcBlockMsg{From: g.server(), Block: g.vcBlock(), Sig: sig}
	case 17:
		return &types.VcYes{From: g.server(), V: g.view(), BlockHash: g.digest(), Sig: sig}
	case 18:
		return &types.Ref{From: g.server(), V: g.view(), Sig: sig}
	default:
		return &types.Rdone{From: g.server(), V: g.view(), RsQC: g.qc(), RP: int64(g.u64()), CI: int64(g.u64()), Sig: sig}
	}
}

// TestGeneratedRoundTrip runs the fuzz target's generated-message half on a
// fixed seed range, so plain `go test` covers every kind many times over.
func TestGeneratedRoundTrip(t *testing.T) {
	g := gen{rand.New(rand.NewSource(1))}
	seen := map[string]int{}
	for i := 0; i < 4000; i++ {
		msg := g.message()
		seen[kindName(msg)]++
		mustRoundTrip(t, msg)
	}
	if len(seen) != 20 {
		t.Fatalf("generator produced %d kinds, want 20: %v", len(seen), seen)
	}
}

// FuzzCodecRoundTrip holds the codec to its two properties with nothing but
// itself as the reference. The input is used twice: as a candidate frame —
// if Decode accepts it, it must re-encode to exactly the same bytes
// (canonical form), and that re-encoding must decode to an equal message —
// and as the seed of a generated message m, for which Decode(Append(m)) == m.
func FuzzCodecRoundTrip(f *testing.F) {
	for _, msg := range sampleMessages() {
		f.Add(mustAppend(f, msg))
	}
	f.Add([]byte{kindRef, 0x81, 0x00, 5, 0})                           // padded varint
	f.Add(cat(kindNotif, 1, 0x80, 0x80, 0x04, 1, 1, dg(), 1, 0, 0, 0)) // leader hint 2^16
	f.Add([]byte{kindInvalid})                                         // reserved kind
	f.Add([]byte(strings.Repeat("\xff", 40)))                          // varint overflow everywhere
	f.Fuzz(func(t *testing.T, data []byte) {
		if msg, err := Decode(data); err == nil {
			reenc := mustAppend(t, msg)
			if !bytes.Equal(reenc, data) {
				t.Fatalf("accepted a non-canonical %T:\n   input %x\nre-encoded %x", msg, data, reenc)
			}
			msg2, err := Decode(reenc)
			if err != nil {
				t.Fatalf("re-decode %T: %v", msg, err)
			}
			if !reflect.DeepEqual(msg2, msg) {
				t.Fatalf("re-decode changed the message:\n first %#v\nsecond %#v", msg, msg2)
			}
		}
		seed := sha256.Sum256(data)
		g := gen{rand.New(rand.NewSource(int64(binary.LittleEndian.Uint64(seed[:]))))}
		mustRoundTrip(t, g.message())
	})
}

func BenchmarkRoundtripCmt(b *testing.B) {
	msg := &types.Cmt{From: 1, V: 1, N: 5, Sig: make([]byte, 64), OrderingQC: types.QC{
		Kind: types.QCOrdering, View: 1, Seq: 5, Digest: types.Digest{1},
		Signers: []types.ServerID{1, 2, 3}, Sigs: [][]byte{make([]byte, 64), make([]byte, 64), make([]byte, 64)},
	}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf, _ := Append(nil, msg)
		if _, err := Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}
