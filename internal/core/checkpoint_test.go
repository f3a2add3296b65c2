package core

import (
	"testing"

	"prestigebft/internal/consensus"
	"prestigebft/internal/ledger"
	"prestigebft/internal/types"
)

// newCkptRig builds a 4-server rig with β=1 batches and the given
// checkpoint interval.
func newCkptRig(t *testing.T, interval int) *rig {
	return newRigCfg(t, 4, 1, 1, func(cfg *Config) { cfg.CheckpointInterval = interval })
}

// TestCheckpointCertifiesAndCompacts: committing across an interval boundary
// makes every replica exchange votes, assemble the certificate, and prune
// the log below the checkpoint — while the chain keeps extending normally.
func TestCheckpointCertifiesAndCompacts(t *testing.T) {
	r := newCkptRig(t, 2)
	for seq := 1; seq <= 5; seq++ {
		r.submit(seq)
	}
	for id, node := range r.nodes {
		st := node.Store()
		if st.TxHeight() != 5 {
			t.Fatalf("server %d height = %d, want 5", id, st.TxHeight())
		}
		if st.LogBase() != 4 {
			t.Fatalf("server %d log base = %d, want 4 (latest certified boundary)", id, st.LogBase())
		}
		cert := st.Checkpoint()
		if cert == nil || cert.Header.Seq != 4 {
			t.Fatalf("server %d has no certificate at 4", id)
		}
		if err := st.ValidateCheckpointCert(r.reg, cert); err != nil {
			t.Fatalf("server %d certificate invalid: %v", id, err)
		}
		if st.RetainedTxBlocks() != 2 {
			t.Fatalf("server %d retains %d blocks, want 2 (anchor + tail)", id, st.RetainedTxBlocks())
		}
		if st.TxBlock(3) != nil {
			t.Fatalf("server %d still holds compacted block 3", id)
		}
	}
}

// TestRetryAcrossCheckpointsIsRenotified: a client's request stays
// answered after checkpoints compact the block that carried it. Client 1's
// request commits at seq 1, client 2's traffic certifies checkpoints at 2
// and 4, and then client 1 re-sends its request (its Notifs were lost).
// Every replica re-notifies it with its original seq and status, and
// nothing is ordered twice.
func TestRetryAcrossCheckpointsIsRenotified(t *testing.T) {
	r := newCkptRig(t, 2)
	k := r.submit(1)
	for seq := 1; seq <= 4; seq++ {
		r.submitFrom(2, seq)
	}
	for id, node := range r.nodes {
		if st := node.Store(); st.TxHeight() != 5 || st.LogBase() != 4 {
			t.Fatalf("server %d height/base = %d/%d, want 5/4", id, st.TxHeight(), st.LogBase())
		}
	}
	before := make(map[types.ServerID]int)
	for id := range r.nodes {
		before[id] = len(r.notifs[id])
	}
	r.submit(1)
	for id, node := range r.nodes {
		if h := node.Store().TxHeight(); h != 5 {
			t.Fatalf("server %d height = %d after the retry, want 5: the request was ordered again", id, h)
		}
		fresh := r.notifs[id][before[id]:]
		if len(fresh) != 1 || fresh[0].TxD != k.D || fresh[0].N != 1 || !fresh[0].Status {
			t.Fatalf("server %d answered the retry with %+v, want one Notif for seq 1, status true", id, fresh)
		}
	}
}

// TestLateJoinerCatchesUpViaSnapshot: a server that was down while the log
// compacted past its height must catch up by installing the certified
// snapshot — never by replaying compacted history.
func TestLateJoinerCatchesUpViaSnapshot(t *testing.T) {
	r := newCkptRig(t, 2)
	r.down[4] = true
	for seq := 1; seq <= 6; seq++ {
		r.submit(seq)
	}
	if base := r.nodes[1].Store().LogBase(); base != 6 {
		t.Fatalf("leader base = %d, want 6", base)
	}
	if h := r.nodes[4].Store().TxHeight(); h != 0 {
		t.Fatalf("downed server advanced to %d", h)
	}
	r.down[4] = false
	// The next committed block's broadcast exposes the gap; the sync must
	// come back as snapshot + tail, not as replayed blocks (which no peer
	// retains anymore).
	r.submit(7)
	st := r.nodes[4].Store()
	if st.TxHeight() != 7 {
		t.Fatalf("joiner height = %d, want 7", st.TxHeight())
	}
	if st.LogBase() != 6 {
		t.Fatalf("joiner log base = %d, want 6 (installed snapshot)", st.LogBase())
	}
	if st.TxBlock(1) != nil {
		t.Fatal("joiner holds pre-snapshot history: it replayed instead of installing")
	}
	if st.Checkpoint() == nil || st.Checkpoint().Header.Seq != 6 {
		t.Fatal("joiner did not retain the installed certificate")
	}
	// The joiner's chain agrees with the cluster above the base.
	want := r.nodes[1].Store().TxBlock(7).Hash()
	if got := st.TxBlock(7).Hash(); got != want {
		t.Fatalf("joiner block 7 diverges: %v != %v", got, want)
	}
	// And the restored application state matches: same applied count.
	applied := func(n *Node) int {
		return n.Store().StateMachine().(*ledger.AcceptAll).Applied
	}
	if applied(r.nodes[4]) != applied(r.nodes[1]) {
		t.Fatal("restored application state diverges from the cluster's")
	}
}

// TestCheckpointDivergentHashNeverCertifies: properly signed votes over a
// different state hash must not count toward the certificate — 2f+1 matching
// hashes is the whole point.
func TestCheckpointDivergentHashNeverCertifies(t *testing.T) {
	r := newCkptRig(t, 2)
	// Drop all checkpoint votes so rounds stay open.
	r.intercept = func(from, to types.ServerID, msg types.Message) bool {
		_, isVote := msg.(*types.CkptVote)
		return isVote
	}
	r.submit(1)
	r.submit(2)
	node := r.nodes[1]
	if node.Store().LogBase() != 0 {
		t.Fatal("certified without any peer votes")
	}
	// Two forged votes with a divergent hash, properly signed.
	for _, from := range []types.ServerID{2, 3} {
		forged := &types.CkptVote{From: from, Seq: 2, StateHash: types.Digest{0xba, 0xd0}}
		forged.Sig = r.keys[from].Sign(forged.SigningBytes())
		r.exec(1, node.OnMessage(r.now, consensus.FromServer(from), forged))
	}
	if node.Store().LogBase() != 0 {
		t.Fatal("divergent-hash votes assembled a certificate")
	}
	// The genuine held votes still close the round.
	r.releaseHeld()
	if node.Store().LogBase() != 2 {
		t.Fatalf("leader base = %d after genuine votes, want 2", node.Store().LogBase())
	}
}

// TestInitRebroadcastsCheckpointVote: a warm-rebooted replica re-broadcasts
// its vote for every still-open checkpoint round, so a crash cannot strand
// a round one vote short forever.
func TestInitRebroadcastsCheckpointVote(t *testing.T) {
	r := newCkptRig(t, 2)
	r.intercept = func(from, to types.ServerID, msg types.Message) bool {
		_, isVote := msg.(*types.CkptVote)
		return isVote
	}
	r.submit(1)
	r.submit(2)
	r.held = nil // the crash loses the in-flight votes
	r.intercept = nil

	node := r.nodes[1]
	found := false
	for _, e := range node.Init(r.now) {
		if b, ok := e.(consensus.Broadcast); ok {
			if v, ok := b.Msg.(*types.CkptVote); ok && v.Seq == 2 {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("Init did not re-broadcast the open round's vote")
	}
}

// TestEarlyVotesStashedAndCounted: votes for a boundary this replica has not
// committed yet are stashed and folded in once its own vote opens the round
// — the normal case under pipelining, where peers commit a round trip apart.
func TestEarlyVotesStashedAndCounted(t *testing.T) {
	r := newCkptRig(t, 2)
	// Stop server 4 from seeing commits, so it trails the boundary.
	r.intercept = func(from, to types.ServerID, msg types.Message) bool {
		_, isBlock := msg.(*types.TxBlockMsg)
		return isBlock && to == 4
	}
	r.submit(1)
	r.submit(2)
	node := r.nodes[4]
	if h := node.Store().TxHeight(); h != 0 {
		t.Fatalf("server 4 height = %d, want 0 (blocks intercepted)", h)
	}
	if len(node.ckptStash[2]) == 0 {
		t.Fatal("early votes were not stashed")
	}
	// Deliver the blocks: server 4 commits 1 and 2, votes, and the stashed
	// peer votes immediately complete its certificate.
	r.releaseHeld()
	if node.Store().LogBase() != 2 {
		t.Fatalf("server 4 base = %d, want 2", node.Store().LogBase())
	}
	if len(node.ckptStash) != 0 {
		t.Fatal("stash not pruned after certification")
	}
}
