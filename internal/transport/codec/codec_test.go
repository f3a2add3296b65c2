package codec

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"

	"prestigebft/internal/types"
)

// sampleMessages covers every encodable kind, with both empty and populated
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
		ConfQC:   types.QC{Kind: types.QCConf, View: 4, Signers: []types.ServerID{1, 3}, Sigs: [][]byte{{1}, {2}}},
		VcQC:     types.QC{Kind: types.QCVote, View: 4, Seq: 2, Signers: []types.ServerID{1, 2, 3}, Sigs: [][]byte{{1}, {2}, {3}}},
		RP:       map[types.ServerID]int64{1: 1, 2: 5, 3: 2},
		CI:       map[types.ServerID]int64{1: 1, 2: 2, 3: 3},
	}
	return []types.Message{
		&types.Prop{
			Tx:  types.Transaction{Timestamp: 42, Client: 7, Data: []byte("payload")},
			D:   types.Digest{4, 5},
			Sig: []byte("client-sig"),
		},
		&types.Prop{Tx: types.Transaction{Timestamp: -1, Client: 1}},
		&types.Notif{From: 2, V: 1, N: 9, TxD: types.Digest{6}, Status: true, Sig: []byte("s")},
		&types.Notif{From: 3, V: 2, N: 10, TxD: types.Digest{7}, Index: 5,
			Path: []types.Digest{{0xA1}, {0xA2}, {0xA3}}, Sig: []byte("block-sig")},
		&types.Notif{From: 4, V: 2, N: 11, TxD: types.Digest{8}, Status: true, Index: 1<<32 - 1,
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
	}
}

func binaryRoundtrip(t testing.TB, msg types.Message) types.Message {
	t.Helper()
	buf, ok := Append(nil, msg)
	if !ok {
		t.Fatalf("%T not encodable", msg)
	}
	out, err := Decode(buf)
	if err != nil {
		t.Fatalf("decode %T: %v", msg, err)
	}
	return out
}

func gobRoundtrip(t testing.TB, msg types.Message) types.Message {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(msg); err != nil {
		t.Fatalf("gob encode %T: %v", msg, err)
	}
	out := reflect.New(reflect.TypeOf(msg).Elem()).Interface()
	if err := gob.NewDecoder(&buf).Decode(out); err != nil {
		t.Fatalf("gob decode %T: %v", msg, err)
	}
	return out.(types.Message)
}

// normalize rewrites zero-length slices and maps to nil, recursively. Gob
// erases the nil/empty distinction and so does the binary codec; equivalence
// is judged modulo that distinction.
func normalize(v reflect.Value) {
	switch v.Kind() {
	case reflect.Ptr:
		if !v.IsNil() {
			normalize(v.Elem())
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			normalize(v.Field(i))
		}
	case reflect.Slice:
		if v.Len() == 0 {
			if !v.IsNil() && v.CanSet() {
				v.Set(reflect.Zero(v.Type()))
			}
			return
		}
		for i := 0; i < v.Len(); i++ {
			normalize(v.Index(i))
		}
	case reflect.Map:
		if v.Len() == 0 && !v.IsNil() && v.CanSet() {
			v.Set(reflect.Zero(v.Type()))
		}
	}
}

func mustEquivalent(t testing.TB, a, b types.Message) {
	t.Helper()
	normalize(reflect.ValueOf(a))
	normalize(reflect.ValueOf(b))
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("codec divergence:\n binary: %#v\n    gob: %#v", a, b)
	}
}

func TestCodecGobEquivalence(t *testing.T) {
	for _, msg := range sampleMessages() {
		t.Run(msg.Type(), func(t *testing.T) {
			mustEquivalent(t, binaryRoundtrip(t, msg), gobRoundtrip(t, msg))
		})
	}
}

func TestEncodableCoversHotKinds(t *testing.T) {
	for _, msg := range sampleMessages() {
		if !Encodable(msg) {
			t.Errorf("%T not encodable", msg)
		}
	}
	// Cold kinds stay on gob.
	if Encodable(&types.CampVC{}) {
		t.Error("CampVC unexpectedly encodable (gob long tail)")
	}
	if _, ok := Append(nil, &types.CampVC{}); ok {
		t.Error("Append accepted a cold kind")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{0xFF},             // unknown kind
		{kindCmt},          // truncated body
		{kindOrd, 1, 1, 1}, // truncated digest
	}
	for _, data := range cases {
		if _, err := Decode(data); err == nil {
			t.Errorf("Decode(%x) accepted garbage", data)
		}
	}
	// Trailing bytes are an error, not silently ignored.
	buf, _ := Append(nil, &types.SyncReq{From: 1, Kind: types.SyncTx, Start: 1, End: 2})
	if _, err := Decode(append(buf, 0)); err == nil {
		t.Error("trailing byte accepted")
	}
	// A hostile repetition count larger than the buffer must error, not
	// allocate.
	hostile := []byte{kindOrd, 1, 1, 1}
	hostile = append(hostile, make([]byte, 32)...)          // Prev digest
	hostile = append(hostile, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F) // tx count ~2^32
	if _, err := Decode(hostile); err == nil {
		t.Error("hostile count accepted")
	}
}

// TestNotifGoldenBytes pins the kindNotif layout byte for byte (DESIGN.md
// §14): kind, From, V, N as uvarints, the 32-byte TxD, the status byte, the
// leaf index and the path count as uvarints, the path's digests back to
// back, then the length-prefixed signature.
func TestNotifGoldenBytes(t *testing.T) {
	m := &types.Notif{
		From: 3, V: 300, N: 70000, TxD: types.Digest{0xD1, 0xD2}, Status: true,
		Index: 5, Path: []types.Digest{{0xA1}, {0xA2}, {0xA3}}, Sig: []byte{0x51, 0x52},
	}
	digest := func(first ...byte) []byte { return append(first, make([]byte, 32-len(first))...) }
	var want []byte
	want = append(want, kindNotif, 0x03)  // kind, From
	want = append(want, 0xAC, 0x02)       // V = 300
	want = append(want, 0xF0, 0xA2, 0x04) // N = 70000
	want = append(want, digest(0xD1, 0xD2)...)
	want = append(want, 0x01, 0x05, 0x03) // status, index, path count
	want = append(want, digest(0xA1)...)
	want = append(want, digest(0xA2)...)
	want = append(want, digest(0xA3)...)
	want = append(want, 0x02, 0x51, 0x52) // signature
	got, _ := Append(nil, m)
	if !bytes.Equal(got, want) {
		t.Fatalf("kindNotif layout changed:\n got %x\nwant %x", got, want)
	}
	// The one-leaf form: index 0, no path — two zero bytes.
	alone, _ := Append(nil, &types.Notif{From: 1, Sig: []byte{0x51}})
	wantAlone := append([]byte{kindNotif, 1, 0, 0}, digest()...)
	wantAlone = append(wantAlone, 0, 0, 0, 1, 0x51)
	if !bytes.Equal(alone, wantAlone) {
		t.Fatalf("one-leaf kindNotif layout changed:\n got %x\nwant %x", alone, wantAlone)
	}
}

// TestDecodeBoundsNotifPath: the path count is checked against the cap and
// against the bytes actually present before the path is allocated.
func TestDecodeBoundsNotifPath(t *testing.T) {
	head := append([]byte{kindNotif, 1, 1, 1}, make([]byte, 32)...) // From V N TxD
	head = append(head, 1, 0)                                       // status, index
	body := make([]byte, (types.MaxNotifPathLen+1)*32+1)            // digests + empty sig
	for _, tc := range []struct {
		name  string
		count []byte
	}{
		{"over the cap, bytes present", []byte{types.MaxNotifPathLen + 1}},
		{"hostile count", []byte{0xFF, 0xFF, 0xFF, 0xFF, 0x07}},
	} {
		data := append(append(append([]byte(nil), head...), tc.count...), body...)
		if _, err := Decode(data); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// Within the cap but more digests than the frame holds.
	short := append(append([]byte(nil), head...), 4)
	short = append(short, make([]byte, 3*32+20)...)
	if _, err := Decode(short); err == nil {
		t.Error("path count beyond the frame's bytes accepted")
	}
	// An index that does not fit uint32 is refused, not truncated.
	wide := append([]byte{kindNotif, 1, 1, 1}, make([]byte, 32)...)
	wide = append(wide, 1, 0x80, 0x80, 0x80, 0x80, 0x10, 0, 0)
	if _, err := Decode(wide); err == nil {
		t.Error("index 2^32 accepted")
	}
}

// TestDecodeZeroCopy: decoded payloads alias the input buffer — the
// transport hands each frame its own buffer, so aliasing is safe and saves
// a copy per payload.
func TestDecodeZeroCopy(t *testing.T) {
	m := &types.Prop{Tx: types.Transaction{Timestamp: 1, Client: 2, Data: []byte("zero-copy")}, Sig: []byte("sig")}
	buf, _ := Append(nil, m)
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

func FuzzCodecGobEquivalence(f *testing.F) {
	for _, msg := range sampleMessages() {
		buf, _ := Append(nil, msg)
		f.Add(buf)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := Decode(data)
		if err != nil {
			return // malformed inputs just need to fail cleanly
		}
		// Whatever decoded must re-encode and round-trip identically
		// through both codecs.
		reenc, ok := Append(nil, msg)
		if !ok {
			t.Fatalf("decoded %T is not encodable", msg)
		}
		msg2, err := Decode(reenc)
		if err != nil {
			t.Fatalf("re-decode %T: %v", msg, err)
		}
		mustEquivalent(t, msg2, gobRoundtrip(t, msg))
	})
}

func BenchmarkBinaryRoundtripCmt(b *testing.B) {
	msg := sampleMessages()[6]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf, _ := Append(nil, msg)
		if _, err := Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGobRoundtripCmt(b *testing.B) {
	msg := sampleMessages()[6]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(msg); err != nil {
			b.Fatal(err)
		}
		out := &types.Cmt{}
		if err := gob.NewDecoder(&buf).Decode(out); err != nil {
			b.Fatal(err)
		}
	}
}
