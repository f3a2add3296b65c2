package hotstuff_test

import (
	"testing"
	"time"

	"prestigebft/internal/baseline/hotstuff"
	"prestigebft/internal/consensus"
	"prestigebft/internal/crypto"
	"prestigebft/internal/types"
)

// leader builds server 1, the view-1 leader of a four-server cluster,
// verifying real signatures, and returns it with the server keys and one
// client-signed proposal.
func leader(t *testing.T, batch int) (*hotstuff.Replica, map[types.ServerID]*crypto.KeyPair, *types.Prop) {
	t.Helper()
	reg, keys, ckeys := crypto.GenerateDeployment(41, 4, 1)
	reg.VerifySignatures = true
	r := hotstuff.New(hotstuff.Config{ID: 1, N: 4, Keys: keys[1], Registry: reg, BatchSize: batch})
	r.Init(0)
	tx := types.Transaction{Client: 1, Timestamp: 1, Data: []byte("queued")}
	prop := &types.Prop{Tx: tx, D: tx.Digest()}
	prop.Sig = ckeys[1].Sign(prop.SigningBytes())
	return r, keys, prop
}

// proposes reports whether effs broadcast a Prepare ordering digest d.
func proposes(effs []consensus.Effect, d types.Digest) bool {
	for _, e := range effs {
		if b, ok := e.(consensus.Broadcast); ok {
			if p, ok := b.Msg.(*hotstuff.Prepare); ok {
				for i := range p.Txs {
					if p.Txs[i].Digest() == d {
						return true
					}
				}
			}
		}
	}
	return false
}

// TestReelectedLeaderDropsCommittedRequests: a leader deposed while a
// request sits in its queue, and re-elected after the request committed
// under another leader, does not propose the request again.
func TestReelectedLeaderDropsCommittedRequests(t *testing.T) {
	r, keys, prop := leader(t, 10)
	from := consensus.Origin{Client: true, ClientID: 1}
	if proposes(r.OnMessage(0, from, prop), prop.D) || r.Pending() != 1 {
		t.Fatalf("setup: want the request queued below a full batch, queue holds %d", r.Pending())
	}
	r.OnTimer(time.Second, hotstuff.TimerView, 1)

	// View 2's leader commits the request.
	blk := types.TxBlock{
		Header: types.TxBlockHeader{V: 2, N: 1, PrevHash: r.Store().LatestTxBlock().Hash(), BatchLen: 1},
		Txs:    []types.Transaction{prop.Tx},
	}
	blk.OrderingQC = certify(&blk, types.QCOrdering, keys)
	blk.CommitQC = certify(&blk, types.QCCommit, keys)
	dec := &hotstuff.Decide{From: 2, Block: blk}
	dec.Sig = keys[2].Sign(dec.SigningBytes())
	r.OnMessage(time.Second, consensus.FromServer(2), dec)
	if h := r.Store().TxHeight(); h != 1 {
		t.Fatalf("Decide not committed: height %d", h)
	}

	// Views 2-4 time out; view 5 is server 1's again.
	for v := uint64(2); v <= 4; v++ {
		r.OnTimer(time.Duration(v)*time.Second, hotstuff.TimerView, v)
	}
	var effs []consensus.Effect
	for id := types.ServerID(2); id <= 3; id++ {
		nv := &hotstuff.NewView{From: id, V: 5, N: 1}
		nv.Sig = keys[id].Sign(nv.SigningBytes())
		effs = append(effs, r.OnMessage(5*time.Second, consensus.FromServer(id), nv)...)
	}
	if r.View() != 5 || !r.Active() {
		t.Fatalf("server 1 not re-elected: view %d, active %v", r.View(), r.Active())
	}
	effs = append(effs, r.OnTimer(5*time.Second, hotstuff.TimerBatch, 0)...)
	if proposes(effs, prop.D) {
		t.Fatal("the re-elected leader proposed a request that committed under another leader")
	}
}

// TestBatchTimerIdleNoRearm: a leader with a block in flight and nothing
// queued lets its batch timer lapse; re-arming it would fire every 2 ms
// with nothing to flush.
func TestBatchTimerIdleNoRearm(t *testing.T) {
	r, _, prop := leader(t, 1)
	effs := r.OnMessage(0, consensus.Origin{Client: true, ClientID: 1}, prop)
	if !proposes(effs, prop.D) || !r.Inflight() || r.Pending() != 0 {
		t.Fatal("setup: want the request in flight and the queue empty")
	}
	for _, e := range r.OnTimer(2*time.Millisecond, hotstuff.TimerBatch, 0) {
		if st, ok := e.(consensus.SetTimer); ok && st.Kind == hotstuff.TimerBatch {
			t.Fatal("the batch timer re-armed with nothing queued")
		}
	}
}
