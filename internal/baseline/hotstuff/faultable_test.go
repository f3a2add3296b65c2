package hotstuff_test

import (
	"testing"
	"time"

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

// clientSigs signs each transaction as its client does in follower's
// deployment.
func clientSigs(txs ...types.Transaction) [][]byte {
	_, _, ckeys := crypto.GenerateDeployment(41, 4, 1)
	sigs := make([][]byte, len(txs))
	for i := range txs {
		sigs[i] = ckeys[txs[i].Client].Sign(types.PropStatement(&txs[i], txs[i].Digest()))
	}
	return sigs
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
			t.Errorf("%T: replication = %v, want %v", c.msg, got, c.replication)
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
	prep := &hotstuff.Prepare{From: 1, V: 1, N: 1, Prev: genesis, Txs: []types.Transaction{tx}, ClientSigs: clientSigs(tx)}
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
	if votes(&hotstuff.Prepare{From: 2, V: 2, N: 1, Prev: genesis, Txs: []types.Transaction{other}, ClientSigs: clientSigs(other)}) != 0 {
		t.Fatal("locked follower voted for a conflicting block at its locked seq")
	}
	if votes(&hotstuff.Prepare{From: 2, V: 2, N: 1, Prev: genesis, Txs: []types.Transaction{tx}, Justify: lock}) != 1 {
		t.Fatal("locked follower did not vote for its locked block re-proposed under the lock's certificate")
	}
}

// TestStaleComplaintTimerKeepsView: a complaint timer armed in view 1 that
// fires after the pacemaker moved on to view 2 leaves view 2's leader in
// place. The same transaction, still pending, complained about again in
// view 2 arms a view-2 timer, and that timer advances the view.
func TestStaleComplaintTimerKeepsView(t *testing.T) {
	reg, keys, clientKeys := crypto.GenerateDeployment(41, 4, 1)
	r := hotstuff.New(hotstuff.Config{ID: 3, N: 4, Keys: keys[3], Registry: reg})
	r.Init(0)
	tx := types.Transaction{Timestamp: 1, Client: 1, Data: []byte("x")}
	compt := &types.Compt{Prop: types.Prop{Tx: tx, D: tx.Digest()}}
	compt.Prop.Sig = clientKeys[1].Sign(compt.Prop.SigningBytes())
	armsTimer := func(now time.Duration, view uint64) bool {
		for _, ef := range r.OnMessage(now, consensus.Origin{Client: true, ClientID: 1}, compt) {
			if st, ok := ef.(consensus.SetTimer); ok && st.Kind == hotstuff.TimerCompt && st.Key == view {
				return true
			}
		}
		return false
	}
	if !armsTimer(0, 1) {
		t.Fatal("the complaint armed no view-1 complaint timer")
	}
	r.OnTimer(time.Second, hotstuff.TimerView, 1)
	if r.View() != 2 {
		t.Fatalf("view %d after the pacemaker timeout, want 2", r.View())
	}
	r.OnTimer(1200*time.Millisecond, hotstuff.TimerCompt, 1)
	if r.View() != 2 {
		t.Fatalf("a view-1 complaint timer moved view 2 to %d", r.View())
	}
	if !armsTimer(1500*time.Millisecond, 2) {
		t.Fatal("a view-2 complaint about the still-pending transaction armed no view-2 timer")
	}
	r.OnTimer(2500*time.Millisecond, hotstuff.TimerCompt, 2)
	if r.View() != 3 {
		t.Fatalf("view %d after a view-2 complaint timer, want 3", r.View())
	}
}

// TestUnsignedRequestNotVoted: a follower votes for a fresh proposal only
// when every transaction in it carries its client's signature, so a leader
// cannot order a request that no client made.
func TestUnsignedRequestNotVoted(t *testing.T) {
	r, _, keys := follower(t)
	genesis := r.Store().LatestTxBlock().Hash()
	forged := types.Transaction{Client: 1, Timestamp: 1 << 62, Data: []byte("forged")}
	votes := func(sigs [][]byte) int {
		p := &hotstuff.Prepare{From: 1, V: 1, N: 1, Prev: genesis, Txs: []types.Transaction{forged}, ClientSigs: sigs}
		p.Sig = keys[1].Sign(p.SigningBytes())
		n := 0
		for _, e := range r.OnMessage(0, consensus.FromServer(1), p) {
			if s, ok := e.(consensus.Send); ok {
				if _, ok := s.Msg.(*hotstuff.Vote); ok {
					n++
				}
			}
		}
		return n
	}
	if votes(nil) != 0 || votes([][]byte{make([]byte, 64)}) != 0 {
		t.Fatal("follower voted for a transaction its client did not sign")
	}
	if votes(clientSigs(forged)) != 1 {
		t.Fatal("follower did not vote for a client-signed transaction")
	}
}
