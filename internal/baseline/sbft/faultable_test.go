package sbft_test

import (
	"testing"

	"prestigebft/internal/baseline/sbft"
	"prestigebft/internal/consensus"
	"prestigebft/internal/crypto"
	"prestigebft/internal/types"
)

// follower builds server 3 of a four-server cluster, verifying real
// signatures, and returns it with the cluster's server keys.
func follower(t *testing.T) (*sbft.Replica, map[types.ServerID]*crypto.KeyPair) {
	t.Helper()
	reg, keys, _ := crypto.GenerateDeployment(43, 4, 1)
	reg.VerifySignatures = true
	r := sbft.New(sbft.Config{ID: 3, N: 4, Keys: keys[3], Registry: reg})
	r.Init(0)
	return r, keys
}

// certify signs a quorum certificate of the given kind over blk by the
// given servers.
func certify(blk *types.TxBlock, kind types.QCKind, keys map[types.ServerID]*crypto.KeyPair, signers ...types.ServerID) types.QC {
	qc := types.QC{Kind: kind, View: blk.Header.V, Seq: blk.Header.N, Digest: blk.ContentDigest()}
	stmt := types.QCStatementBytes(kind, qc.View, qc.Seq, qc.Digest)
	for _, id := range signers {
		qc.Signers = append(qc.Signers, id)
		qc.Sigs = append(qc.Sigs, keys[id].Sign(stmt))
	}
	return qc
}

func TestMessageClassifiers(t *testing.T) {
	r, _ := follower(t)
	for _, c := range []struct {
		msg         types.Message
		replication bool
	}{
		{&types.Prop{}, true},
		{&types.Compt{}, true},
		{&sbft.PrePrepare{}, true},
		{&sbft.Share{}, true},
		{&sbft.Proof{}, true},
		{&types.Notif{}, true},
		{&sbft.NewView{}, false},
	} {
		if got := r.Replication(c.msg); got != c.replication {
			t.Errorf("%T: replication = %v, want %v", c.msg, got, c.replication)
		}
	}
}

func TestForgeDoesNotMutateOriginal(t *testing.T) {
	r, _ := follower(t)
	for _, orig := range []types.Message{
		&sbft.PrePrepare{From: 1, Sig: []byte("valid")},
		&sbft.Share{From: 1, Sig: []byte("valid")},
		&sbft.Proof{From: 1, Sig: []byte("valid")},
		&sbft.NewView{From: 1, Sig: []byte("valid")},
		&types.Notif{From: 1, Sig: []byte("valid")},
	} {
		forged := r.Forge(orig)
		if forged == orig {
			t.Errorf("%T: forge returned the original", orig)
			continue
		}
		if len(forged.(types.Signed).Signature()) != 0 {
			t.Errorf("%T: forge did not strip the signature", orig)
		}
		if string(orig.(types.Signed).Signature()) != "valid" {
			t.Errorf("%T: forge mutated the original message", orig)
		}
	}
}

// TestForgedNewViewKeepsView: a NewView moves a replica to a higher view
// only under its sender's signature.
func TestForgedNewViewKeepsView(t *testing.T) {
	r, keys := follower(t)
	nv := &sbft.NewView{From: 2, V: 5}
	nv.Sig = keys[2].Sign(nv.SigningBytes())
	r.OnMessage(0, consensus.FromServer(2), r.Forge(nv))
	if r.View() != 1 {
		t.Fatalf("forged NewView moved the replica to view %d", r.View())
	}
	r.OnMessage(0, consensus.FromServer(2), nv)
	if r.View() != 5 {
		t.Fatalf("genuine NewView left the replica in view %d, want 5", r.View())
	}
}

// TestForgedProofNotCommitted: a commit proof commits only under its
// sender's signature, even when the block it carries is fully certified.
func TestForgedProofNotCommitted(t *testing.T) {
	r, keys := follower(t)
	blk := types.TxBlock{Header: types.TxBlockHeader{V: 1, N: 1, PrevHash: r.Store().LatestTxBlock().Hash()}}
	blk.OrderingQC = certify(&blk, types.QCOrdering, keys, 1, 2, 3, 4)
	blk.CommitQC = certify(&blk, types.QCCommit, keys, 1)
	pf := &sbft.Proof{From: 1, Stage: 2, Block: blk}
	pf.Sig = keys[1].Sign(pf.SigningBytes())
	r.OnMessage(0, consensus.FromServer(1), r.Forge(pf))
	if h := r.Store().TxHeight(); h != 0 {
		t.Fatalf("forged commit proof committed: height %d", h)
	}
	r.OnMessage(0, consensus.FromServer(1), pf)
	if h := r.Store().TxHeight(); h != 1 {
		t.Fatalf("genuine commit proof not committed: height %d, want 1", h)
	}
}

// TestUnsignedRequestNotShared: a replica sends its sign share for a
// PrePrepare only when every transaction in it carries its client's
// signature, so a leader cannot order a request that no client made.
func TestUnsignedRequestNotShared(t *testing.T) {
	r, keys := follower(t)
	_, _, ckeys := crypto.GenerateDeployment(43, 4, 1)
	forged := types.Transaction{Client: 1, Timestamp: 1 << 62, Data: []byte("forged")}
	shares := func(sigs [][]byte) int {
		pp := &sbft.PrePrepare{From: 1, V: 1, N: 1, Prev: r.Store().LatestTxBlock().Hash(),
			Txs: []types.Transaction{forged}, ClientSigs: sigs}
		pp.Sig = keys[1].Sign(pp.SigningBytes())
		n := 0
		for _, e := range r.OnMessage(0, consensus.FromServer(1), pp) {
			if s, ok := e.(consensus.Send); ok {
				if _, ok := s.Msg.(*sbft.Share); ok {
					n++
				}
			}
		}
		return n
	}
	if shares(nil) != 0 || shares([][]byte{make([]byte, 64)}) != 0 {
		t.Fatal("replica shared for a transaction its client did not sign")
	}
	signed := ckeys[1].Sign(types.PropStatement(&forged, forged.Digest()))
	if shares([][]byte{signed}) != 1 {
		t.Fatal("replica did not share for a client-signed transaction")
	}
}
