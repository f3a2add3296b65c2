package types

import (
	"testing"
	"testing/quick"
)

func TestQuorumArithmetic(t *testing.T) {
	cases := []struct{ n, f, quorum, confirm int }{
		{4, 1, 3, 2},
		{7, 2, 5, 3},
		{16, 5, 11, 6},
		{31, 10, 21, 11},
		{61, 20, 41, 21},
		{100, 33, 67, 34},
	}
	for _, c := range cases {
		if f := FaultBound(c.n); f != c.f {
			t.Errorf("FaultBound(%d) = %d, want %d", c.n, f, c.f)
		}
		if q := QuorumSize(c.n); q != c.quorum {
			t.Errorf("QuorumSize(%d) = %d, want %d", c.n, q, c.quorum)
		}
		if cs := ConfirmSize(c.n); cs != c.confirm {
			t.Errorf("ConfirmSize(%d) = %d, want %d", c.n, cs, c.confirm)
		}
	}
}

// TestQuorumIntersection: any two 2f+1 quorums among 3f+1 servers intersect
// in at least f+1 servers — the foundation of every safety proof in the
// paper (Theorem 3, Lemma 7).
func TestQuorumIntersection(t *testing.T) {
	f := func(fRaw uint8) bool {
		fb := int(fRaw%33) + 1
		n := 3*fb + 1
		q := QuorumSize(n)
		// |A ∩ B| >= |A| + |B| - n = 2(2f+1) - (3f+1) = f+1 > f.
		return 2*q-n >= fb+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTransactionDigestUniqueness(t *testing.T) {
	a := Transaction{Timestamp: 1, Client: 1, Data: []byte("x")}
	b := Transaction{Timestamp: 2, Client: 1, Data: []byte("x")}
	c := Transaction{Timestamp: 1, Client: 2, Data: []byte("x")}
	d := Transaction{Timestamp: 1, Client: 1, Data: []byte("y")}
	seen := map[Digest]bool{}
	for _, tx := range []Transaction{a, b, c, d} {
		dg := tx.Digest()
		if seen[dg] {
			t.Fatalf("digest collision for %+v", tx)
		}
		seen[dg] = true
	}
	if a.Digest() != a.Digest() {
		t.Fatal("digest not deterministic")
	}
}

func TestTxBlockHashing(t *testing.T) {
	blk := &TxBlock{
		Header: TxBlockHeader{V: 3, N: 7, BatchLen: 2},
		Txs: []Transaction{
			{Timestamp: 1, Client: 1, Data: []byte("a")},
			{Timestamp: 2, Client: 2, Data: []byte("b")},
		},
	}
	d1 := blk.ContentDigest()
	// Content digest must change with any transaction change...
	blk2 := *blk
	blk2.Txs = append([]Transaction(nil), blk.Txs...)
	blk2.Txs[0].Data = []byte("z")
	if blk2.ContentDigest() == d1 {
		t.Fatal("content digest ignores transaction data")
	}
	// ...and with header identity.
	blk3 := *blk
	blk3.Header.N = 8
	if blk3.ContentDigest() == d1 {
		t.Fatal("content digest ignores sequence number")
	}
	// Block hash additionally covers the commit certificate.
	h1 := blk.Hash()
	blk4 := *blk
	blk4.CommitQC = QC{Kind: QCCommit, View: 3, Seq: 7, Digest: d1}
	if blk4.Hash() == h1 {
		t.Fatal("block hash ignores commit QC")
	}
	// But not the signer set: two QCs certifying the same statement are
	// interchangeable.
	blk5 := blk4
	blk5.CommitQC.Signers = []ServerID{1, 2, 3}
	if blk5.Hash() != blk4.Hash() {
		t.Fatal("block hash depends on QC signer identities")
	}
}

// TestPredictedHash: the address a block will have once committed in its
// proposal view is computable before the commit certificate exists — the
// property the pipelined replication window chains on — and matches the
// real Hash exactly once the certificate (any signer set) is attached.
func TestPredictedHash(t *testing.T) {
	blk := &TxBlock{
		Header: TxBlockHeader{V: 3, N: 7, BatchLen: 1},
		Txs:    []Transaction{{Timestamp: 1, Client: 1, Data: []byte("a")}},
	}
	pred := blk.PredictedHash()
	if pred == blk.Hash() {
		t.Fatal("prediction should differ from the hash of an uncertified block")
	}
	committed := *blk
	committed.CommitQC = QC{
		Kind: QCCommit, View: 3, Seq: 7, Digest: blk.ContentDigest(),
		Signers: []ServerID{1, 2, 3},
	}
	if committed.Hash() != pred {
		t.Fatal("predicted hash does not match the committed block's hash")
	}
	if committed.PredictedHash() != committed.Hash() {
		t.Fatal("PredictedHash of a committed block must equal Hash")
	}
}

func TestVcBlockHashCanonicalMaps(t *testing.T) {
	a := GenesisVcBlock(7, 1, 1, 1)
	b := GenesisVcBlock(7, 1, 1, 1)
	if a.Hash() != b.Hash() {
		t.Fatal("identical vcBlocks hash differently (map order leak)")
	}
	b.RP[3] = 9
	if a.Hash() == b.Hash() {
		t.Fatal("vcBlock hash ignores reputation fragment")
	}
}

func TestCloneReputationIsDeep(t *testing.T) {
	g := GenesisVcBlock(4, 1, 1, 1)
	rp, ci := g.CloneReputation()
	rp[2] = 42
	ci[2] = 42
	if g.RP[2] != 1 || g.CI[2] != 1 {
		t.Fatal("CloneReputation aliases the original maps")
	}
}

func TestReputationEqualExcept(t *testing.T) {
	g := GenesisVcBlock(4, 1, 1, 1)
	next := &VcBlock{V: 2, LeaderID: 2}
	next.RP, next.CI = g.CloneReputation()
	next.RP[2] = 2
	next.CI[2] = 10
	if !next.ReputationEqualExcept(g, 2) {
		t.Fatal("leader-only change rejected")
	}
	if next.ReputationEqualExcept(g, 3) {
		t.Fatal("change at server 2 accepted as a server-3 change")
	}
	next.RP[3] = 5
	if next.ReputationEqualExcept(g, 2) {
		t.Fatal("non-leader change accepted")
	}
}

func TestGenesisBlocks(t *testing.T) {
	g := GenesisVcBlock(4, 2, 1, 1)
	if g.V != 1 || g.LeaderID != 2 || len(g.RP) != 4 || g.RP[3] != 1 || g.CI[4] != 1 {
		t.Fatalf("bad genesis vcBlock: %+v", g)
	}
	tg := GenesisTxBlock()
	if tg.Header.N != 0 || len(tg.Txs) != 0 {
		t.Fatalf("bad genesis txBlock: %+v", tg)
	}
}

func TestMessageSigningBytesDistinct(t *testing.T) {
	// Messages with different semantics must never share signing bytes —
	// otherwise a signature for one could be replayed as another.
	ord := &OrdReply{From: 1, V: 2, N: 3, D: Digest{1}}
	cmt := &CmtReply{From: 1, V: 2, N: 3, D: Digest{1}}
	if string(ord.SigningBytes()) == string(cmt.SigningBytes()) {
		t.Fatal("OrdReply and CmtReply share signing bytes (replay risk)")
	}
	revc := &ReVC{From: 1, To: 2, V: 3}
	vote := &VoteCP{From: 1, Cand: 2, VPrime: 3}
	if string(revc.SigningBytes()) == string(vote.SigningBytes()) {
		t.Fatal("ReVC and VoteCP share signing bytes (replay risk)")
	}
}

func TestQCStatementBytesInjective(t *testing.T) {
	f := func(k1, k2 uint8, v1, v2 uint32, s1, s2 uint32) bool {
		kind1 := QCKind(k1%6) + 1
		kind2 := QCKind(k2%6) + 1
		b1 := QCStatementBytes(kind1, View(v1), SeqNum(s1), Digest{})
		b2 := QCStatementBytes(kind2, View(v2), SeqNum(s2), Digest{})
		same := kind1 == kind2 && v1 == v2 && s1 == s2
		return same == (string(b1) == string(b2))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
