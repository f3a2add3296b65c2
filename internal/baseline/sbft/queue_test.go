package sbft_test

import (
	"testing"
	"time"

	"prestigebft/internal/baseline/sbft"
	"prestigebft/internal/consensus"
	"prestigebft/internal/crypto"
	"prestigebft/internal/types"
)

// TestBatchTimerIdleNoRearm: a leader with a block in flight and nothing
// queued lets its batch timer lapse; re-arming it would fire every 2 ms
// with nothing to flush.
func TestBatchTimerIdleNoRearm(t *testing.T) {
	reg, keys, ckeys := crypto.GenerateDeployment(43, 4, 1)
	reg.VerifySignatures = true
	r := sbft.New(sbft.Config{ID: 1, N: 4, Keys: keys[1], Registry: reg, BatchSize: 1})
	r.Init(0)
	tx := types.Transaction{Client: 1, Timestamp: 1, Data: []byte("in flight")}
	prop := &types.Prop{Tx: tx, D: tx.Digest()}
	prop.Sig = ckeys[1].Sign(prop.SigningBytes())
	proposed := false
	for _, e := range r.OnMessage(0, consensus.FromClient(), prop) {
		if b, ok := e.(consensus.Broadcast); ok {
			_, proposed = b.Msg.(*sbft.PrePrepare)
		}
	}
	if !proposed {
		t.Fatal("setup: the full batch was not proposed")
	}
	for _, e := range r.OnTimer(2*time.Millisecond, sbft.TimerBatch, 0) {
		if st, ok := e.(consensus.SetTimer); ok && st.Kind == sbft.TimerBatch {
			t.Fatal("the batch timer re-armed with nothing queued")
		}
	}
}

// TestNewLeaderReproposesSharedBlock: a block every replica shared may have
// committed on the fast path at a leader that crashed before its Proof went
// out. The next leader proposes it again, keeping its view, before anything
// new, and a follower shares for it over that view, so every commit of the
// block has one hash.
func TestNewLeaderReproposesSharedBlock(t *testing.T) {
	reg, keys, ckeys := crypto.GenerateDeployment(43, 4, 1)
	reg.VerifySignatures = true
	next := sbft.New(sbft.Config{ID: 2, N: 4, Keys: keys[2], Registry: reg})
	follower := sbft.New(sbft.Config{ID: 3, N: 4, Keys: keys[3], Registry: reg})
	next.Init(0)
	follower.Init(0)
	tx := types.Transaction{Client: 1, Timestamp: 1, Data: []byte("shared")}
	pp := &sbft.PrePrepare{From: 1, V: 1, N: 1, Prev: next.Store().LatestTxBlock().Hash(), Txs: []types.Transaction{tx},
		ClientSigs: [][]byte{ckeys[1].Sign(types.PropStatement(&tx, tx.Digest()))}}
	pp.Sig = keys[1].Sign(pp.SigningBytes())
	next.OnMessage(0, consensus.FromServer(1), pp)
	follower.OnMessage(0, consensus.FromServer(1), pp)
	shared := (&types.TxBlock{Header: types.TxBlockHeader{V: 1, N: 1, PrevHash: pp.Prev, BatchLen: 1}, Txs: pp.Txs}).ContentDigest()

	// Server 1 goes quiet; the pacemaker hands view 2 to server 2.
	var again *sbft.PrePrepare
	for _, e := range next.OnTimer(time.Second, sbft.TimerView, 1) {
		if b, ok := e.(consensus.Broadcast); ok {
			if p, ok := b.Msg.(*sbft.PrePrepare); ok {
				again = p
			}
		}
	}
	if again == nil || again.V != 2 || again.N != 1 || len(again.Txs) != 1 || again.Txs[0].Digest() != tx.Digest() {
		t.Fatalf("view 2's leader did not propose the shared block again: %+v", again)
	}
	follower.OnTimer(time.Second, sbft.TimerView, 1)
	var sh *sbft.Share
	for _, e := range follower.OnMessage(time.Second, consensus.FromServer(2), again) {
		if s, ok := e.(consensus.Send); ok {
			sh, _ = s.Msg.(*sbft.Share)
		}
	}
	if sh == nil || sh.V != 1 || sh.D != shared {
		t.Fatalf("follower's share for the re-proposal = %+v, want one over view 1 and the shared block", sh)
	}
}
