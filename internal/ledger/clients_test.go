package ledger

import (
	"bytes"
	"testing"

	"prestigebft/internal/crypto"
	"prestigebft/internal/types"
)

// oddApp records every timestamp it applies and accepts the odd ones.
type oddApp struct{ applied []int64 }

func (a *oddApp) Apply(tx *types.Transaction) bool {
	a.applied = append(a.applied, tx.Timestamp)
	return tx.Timestamp%2 == 1
}

// TestCoveredTransactionsNeverReachApply: a block that re-carries a
// client's last transaction, an older one, or another transaction under a
// covered timestamp passes none of them to the state machine. The last
// transaction keeps its recorded status; the others read false.
func TestCoveredTransactionsNeverReachApply(t *testing.T) {
	reg, servers, _ := crypto.GenerateDeployment(21, 4, 0)
	app := &oddApp{}
	s := NewStore(4, 1, app)
	tx := func(c types.ClientID, ts int64, data string) types.Transaction {
		return types.Transaction{Timestamp: ts, Client: c, Data: []byte(data)}
	}
	appendBlock := func(txs ...types.Transaction) []bool {
		t.Helper()
		if err := s.AppendTxBlock(reg, buildBlock(t, reg, servers, s.LatestTxBlock(), 1, txs)); err != nil {
			t.Fatal(err)
		}
		return s.LatestTxBlock().Status
	}
	appendBlock(tx(1, 1, "a"), tx(1, 2, "b"), tx(2, 3, "c"))
	got := appendBlock(
		tx(1, 2, "b"), // client 1's last, rejected when it applied
		tx(1, 1, "a"), // older than client 1's last
		tx(2, 3, "c"), // client 2's last, accepted when it applied
		tx(2, 3, "x"), // a different transaction under a covered timestamp
		tx(1, 5, "d"), // new
		tx(1, 5, "d"), // the same block's own duplicate
	)
	want := []bool{false, false, true, false, true, true}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("status = %v, want %v", got, want)
		}
	}
	if len(app.applied) != 4 || app.applied[3] != 5 {
		t.Fatalf("applied timestamps %v, want [1 2 3 5]", app.applied)
	}
	if last, covered := s.Covered(1, 4); !covered || last.Timestamp != 5 || last.Seq != 2 || !last.Status {
		t.Fatalf("client 1 row %+v (covered %v), want timestamp 5 at seq 2, accepted", last, covered)
	}
	if _, covered := s.Covered(3, 1); covered {
		t.Fatal("a client without a row covers a request")
	}
}

// TestSnapshotCarriesClientTable: a store that installs a certified
// snapshot knows every client's last request from it, so a block that
// re-carries covered transactions applies none of them there either.
func TestSnapshotCarriesClientTable(t *testing.T) {
	reg, servers, _ := crypto.GenerateDeployment(21, 4, 0)
	src := NewStore(4, 1, NewKVStore())
	put := func(ts int64) types.Transaction {
		return types.Transaction{Timestamp: ts, Client: 1, Data: EncodeKVOp(KVSet, "k", []byte{byte(ts)})}
	}
	for ts := int64(1); ts <= 3; ts++ {
		if err := src.AppendTxBlock(reg, buildBlock(t, reg, servers, src.LatestTxBlock(), 1, []types.Transaction{put(ts)})); err != nil {
			t.Fatal(err)
		}
	}
	header, state := captureCheckpoint(t, src)
	if err := src.Certify(buildCkptCert(t, reg, servers, header), state); err != nil {
		t.Fatal(err)
	}
	kv := NewKVStore()
	dst := NewStore(4, 1, kv)
	if err := dst.InstallSnapshot(reg, src.SnapshotPackage()); err != nil {
		t.Fatal(err)
	}
	applied := kv.Applied
	dup := buildBlock(t, reg, servers, src.LatestTxBlock(), 1, []types.Transaction{put(3), put(2), put(4)})
	for _, st := range []*Store{src, dst} {
		if err := st.AppendTxBlock(reg, dup); err != nil {
			t.Fatal(err)
		}
	}
	if kv.Applied != applied+1 {
		t.Fatalf("installed store applied %d transactions of the block, want 1", kv.Applied-applied)
	}
	if got := dst.LatestTxBlock().Status; !got[0] || got[1] || !got[2] {
		t.Fatalf("installed store's status %v, want [true false true]", got)
	}
	srcH, srcState := captureCheckpoint(t, src)
	dstH, dstState := captureCheckpoint(t, dst)
	if srcH.StateHash() != dstH.StateHash() || !bytes.Equal(srcState, dstState) {
		t.Fatal("the installed store's certified state diverged from its source's")
	}
}

// TestTamperedClientTableRefused: the client table is certified state. A
// snapshot whose table was altered — here client 1's row rolled back, which
// would let its last request apply again — fails the AppDigest check.
func TestTamperedClientTableRefused(t *testing.T) {
	reg, servers, _ := crypto.GenerateDeployment(21, 4, 0)
	src := NewStore(4, 1, NewKVStore())
	for ts := int64(1); ts <= 2; ts++ {
		tx := types.Transaction{Timestamp: ts, Client: 1, Data: EncodeKVOp(KVNoop, "", nil)}
		if err := src.AppendTxBlock(reg, buildBlock(t, reg, servers, src.LatestTxBlock(), 1, []types.Transaction{tx})); err != nil {
			t.Fatal(err)
		}
	}
	header, state := captureCheckpoint(t, src)
	if err := src.Certify(buildCkptCert(t, reg, servers, header), state); err != nil {
		t.Fatal(err)
	}
	pkg := src.SnapshotPackage()
	clients, app, err := decodeClients(pkg.AppState)
	if err != nil || len(clients) != 1 || clients[1].Timestamp != 2 {
		t.Fatalf("certified state's client table = %+v (%v), want client 1 at timestamp 2", clients, err)
	}
	row := clients[1]
	row.Timestamp = 1
	rolledBack := &Store{clients: map[types.ClientID]LastRequest{1: row}}
	tampered := *pkg
	tampered.AppState = append(rolledBack.encodeClients(), app...)
	if err := NewStore(4, 1, NewKVStore()).InstallSnapshot(reg, &tampered); err == nil {
		t.Fatal("snapshot with a rolled-back client table installed")
	}
	if err := NewStore(4, 1, NewKVStore()).InstallSnapshot(reg, pkg); err != nil {
		t.Fatalf("untampered snapshot refused: %v", err)
	}
}

// TestLatestTxDigestsMatchTheBlock: the digests the apply loop computed,
// which the commit paths read for their Notifs, are the latest block's —
// after an append, and after a snapshot install makes the anchor latest.
func TestLatestTxDigestsMatchTheBlock(t *testing.T) {
	reg, servers, _ := crypto.GenerateDeployment(21, 4, 0)
	check := func(s *Store) {
		t.Helper()
		blk, ds := s.LatestTxBlock(), s.LatestTxDigests()
		if len(ds) != len(blk.Txs) {
			t.Fatalf("%d digests for %d transactions", len(ds), len(blk.Txs))
		}
		for i := range ds {
			if ds[i] != blk.Txs[i].Digest() {
				t.Fatalf("digest %d is not its transaction's", i)
			}
		}
	}
	src := NewStore(4, 1, NewKVStore())
	txs := []types.Transaction{
		{Timestamp: 1, Client: 1, Data: EncodeKVOp(KVSet, "a", []byte{1})},
		{Timestamp: 1, Client: 2, Data: EncodeKVOp(KVSet, "b", []byte{2})},
	}
	if err := src.AppendTxBlock(reg, buildBlock(t, reg, servers, src.LatestTxBlock(), 1, txs)); err != nil {
		t.Fatal(err)
	}
	check(src)
	header, state := captureCheckpoint(t, src)
	if err := src.Certify(buildCkptCert(t, reg, servers, header), state); err != nil {
		t.Fatal(err)
	}
	dst := NewStore(4, 1, NewKVStore())
	if err := dst.InstallSnapshot(reg, src.SnapshotPackage()); err != nil {
		t.Fatal(err)
	}
	check(dst)
}
