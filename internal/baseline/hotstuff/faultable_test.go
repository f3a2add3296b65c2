package hotstuff_test

import (
	"testing"

	"prestigebft/internal/baseline/hotstuff"
	"prestigebft/internal/consensus"
	"prestigebft/internal/crypto"
	"prestigebft/internal/types"
)

// follower builds server 3 of a four-server cluster, verifying real
// signatures, and returns it with the cluster's server keys.
func follower(t *testing.T) (*hotstuff.Replica, *crypto.Registry, map[types.ServerID]*crypto.KeyPair) {
	t.Helper()
	reg, keys, _ := crypto.GenerateDeployment(41, 4, 1)
	reg.VerifySignatures = true
	r := hotstuff.New(hotstuff.Config{ID: 3, N: 4, Keys: keys[3], Registry: reg})
	r.Init(0)
	return r, reg, keys
}

// certify attaches a quorum certificate of the given kind, signed by servers
// 1-3, to blk.
func certify(blk *types.TxBlock, kind types.QCKind, keys map[types.ServerID]*crypto.KeyPair) types.QC {
	qc := types.QC{Kind: kind, View: blk.Header.V, Seq: blk.Header.N, Digest: blk.ContentDigest()}
	stmt := types.QCStatementBytes(kind, qc.View, qc.Seq, qc.Digest)
	for id := types.ServerID(1); id <= 3; id++ {
		qc.Signers = append(qc.Signers, id)
		qc.Sigs = append(qc.Sigs, keys[id].Sign(stmt))
	}
	return qc
}

func TestMessageClassifiers(t *testing.T) {
	r, _, _ := follower(t)
	for _, c := range []struct {
		msg         types.Message
		replication bool
	}{
		{&types.Prop{}, true},
		{&types.Compt{}, true},
		{&hotstuff.Prepare{}, true},
		{&hotstuff.Vote{}, true},
		{&hotstuff.PhaseAnnounce{Phase: hotstuff.PhasePreCommit}, true},
		{&hotstuff.Decide{}, true},
		{&types.Notif{}, true},
		{&hotstuff.NewView{}, false},
		{&types.SyncReq{}, false},
		{&types.SyncResp{}, false},
	} {
		if got := r.Replication(c.msg); got != c.replication {
			t.Errorf("%s: replication = %v, want %v", c.msg.Type(), got, c.replication)
		}
	}
}

func TestForgeDoesNotMutateOriginal(t *testing.T) {
	r, _, _ := follower(t)
	for _, orig := range []types.Message{
		&hotstuff.Prepare{From: 1, Sig: []byte("valid")},
		&hotstuff.Vote{From: 1, Sig: []byte("valid")},
		&hotstuff.PhaseAnnounce{From: 1, Phase: hotstuff.PhaseCommit, Sig: []byte("valid")},
		&hotstuff.Decide{From: 1, Sig: []byte("valid")},
		&hotstuff.NewView{From: 1, Sig: []byte("valid")},
		&types.Notif{From: 1, Sig: []byte("valid")},
	} {
		forged := r.Forge(orig)
		if forged == orig {
			t.Errorf("%s: forge returned the original", orig.Type())
			continue
		}
		if len(forged.(types.Signed).Signature()) != 0 {
			t.Errorf("%s: forge did not strip the signature", orig.Type())
		}
		if string(orig.(types.Signed).Signature()) != "valid" {
			t.Errorf("%s: forge mutated the original message", orig.Type())
		}
	}
}

// TestForgedPrepareKeepsView: a Prepare for a higher view moves a lagging
// follower into that view only once its leader's signature verifies; a
// forged one used to drag the follower along before the check.
func TestForgedPrepareKeepsView(t *testing.T) {
	r, _, keys := follower(t)
	prep := &hotstuff.Prepare{From: hotstuff.LeaderOf(2, 4), V: 2, N: 1, Prev: r.Store().LatestTxBlock().Hash()}
	prep.Sig = keys[prep.From].Sign(prep.SigningBytes())
	r.OnMessage(0, consensus.FromServer(prep.From), r.Forge(prep))
	if r.View() != 1 {
		t.Fatalf("forged Prepare moved the follower to view %d", r.View())
	}
	r.OnMessage(0, consensus.FromServer(prep.From), prep)
	if r.View() != 2 {
		t.Fatalf("genuine Prepare left the follower in view %d, want 2", r.View())
	}
}

// TestForgedDecideNotCommitted: a Decide commits only under its sender's
// signature, even when the block it carries is fully certified.
func TestForgedDecideNotCommitted(t *testing.T) {
	r, _, keys := follower(t)
	blk := types.TxBlock{Header: types.TxBlockHeader{V: 1, N: 1, PrevHash: r.Store().LatestTxBlock().Hash()}}
	blk.OrderingQC = certify(&blk, types.QCOrdering, keys)
	blk.CommitQC = certify(&blk, types.QCCommit, keys)
	dec := &hotstuff.Decide{From: 1, Block: blk}
	dec.Sig = keys[1].Sign(dec.SigningBytes())
	r.OnMessage(0, consensus.FromServer(1), r.Forge(dec))
	if h := r.Store().TxHeight(); h != 0 {
		t.Fatalf("forged Decide committed: height %d", h)
	}
	r.OnMessage(0, consensus.FromServer(1), dec)
	if h := r.Store().TxHeight(); h != 1 {
		t.Fatalf("genuine Decide not committed: height %d, want 1", h)
	}
}

// TestLockedFollowerVotesOnlyForItsLock: a follower that locked on a block
// in view 1 hands the lock to the next leader, refuses a conflicting fresh
// proposal for the same seq in view 2, and votes for the locked block
// re-proposed under its certificate — which keeps the block's view 1, so a
// commit of it anywhere has one hash.
func TestLockedFollowerVotesOnlyForItsLock(t *testing.T) {
	r, _, keys := follower(t)
	genesis := r.Store().LatestTxBlock().Hash()
	sign := func(m interface {
		SigningBytes() []byte
	}, from types.ServerID) []byte {
		return keys[from].Sign(m.SigningBytes())
	}
	tx := types.Transaction{Client: 1, Timestamp: 1, Data: []byte("locked")}
	prep := &hotstuff.Prepare{From: 1, V: 1, N: 1, Prev: genesis, Txs: []types.Transaction{tx}}
	prep.Sig = sign(prep, 1)
	r.OnMessage(0, consensus.FromServer(1), prep)
	blk := prep.Block()
	for _, p := range []hotstuff.Phase{hotstuff.PhasePreCommit, hotstuff.PhaseCommit} {
		kind := types.QCOrdering // the Prepare certificate opens PreCommit
		if p == hotstuff.PhaseCommit {
			kind = types.QCGeneric // the PreCommit certificate opens Commit
		}
		ann := &hotstuff.PhaseAnnounce{From: 1, Phase: p, V: 1, N: 1, QC: certify(blk, kind, keys)}
		ann.Sig = sign(ann, 1)
		if effs := r.OnMessage(0, consensus.FromServer(1), ann); len(effs) == 0 {
			t.Fatalf("follower did not vote in phase %s", p)
		}
	}
	lock := certify(blk, types.QCGeneric, keys)

	var nv *hotstuff.NewView
	for _, e := range r.OnTimer(0, hotstuff.TimerView, 1) {
		if s, ok := e.(consensus.Send); ok {
			nv, _ = s.Msg.(*hotstuff.NewView)
		}
	}
	if nv == nil || nv.Locked == nil || nv.Lock.Digest != blk.ContentDigest() {
		t.Fatalf("the view-2 NewView does not carry the follower's lock: %+v", nv)
	}

	votes := func(p *hotstuff.Prepare) int {
		p.Sig = sign(p, 2)
		n := 0
		for _, e := range r.OnMessage(0, consensus.FromServer(2), p) {
			if s, ok := e.(consensus.Send); ok {
				if v, ok := s.Msg.(*hotstuff.Vote); ok && v.D == p.Block().ContentDigest() && v.V == p.Block().Header.V {
					n++
				}
			}
		}
		return n
	}
	other := types.Transaction{Client: 1, Timestamp: 2, Data: []byte("conflicting")}
	if votes(&hotstuff.Prepare{From: 2, V: 2, N: 1, Prev: genesis, Txs: []types.Transaction{other}}) != 0 {
		t.Fatal("locked follower voted for a conflicting block at its locked seq")
	}
	if votes(&hotstuff.Prepare{From: 2, V: 2, N: 1, Prev: genesis, Txs: []types.Transaction{tx}, Justify: lock}) != 1 {
		t.Fatal("locked follower did not vote for its locked block re-proposed under the lock's certificate")
	}
}
