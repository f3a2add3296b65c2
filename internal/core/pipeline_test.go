package core

import (
	"testing"
	"time"

	"prestigebft/internal/consensus"
	"prestigebft/internal/types"
)

// holdCmtReplies intercepts every commit vote headed to the leader, freezing
// instances in the commit phase so the window fills.
func holdCmtReplies(r *rig) {
	r.intercept = func(from, to types.ServerID, msg types.Message) bool {
		_, isCmtReply := msg.(*types.CmtReply)
		return isCmtReply
	}
}

// TestPipelinedWindowFillsAndDrains: with commit votes frozen, the leader
// keeps PipelineDepth instances in flight at consecutive sequence numbers
// and queues the overflow; releasing the votes drains the window in order
// and immediately refills it from the queue.
func TestPipelinedWindowFillsAndDrains(t *testing.T) {
	r := newRigDepth(t, 4, 1, 4)
	holdCmtReplies(r)
	for i := 1; i <= 6; i++ {
		r.submit(i)
	}
	leader := r.nodes[1]
	pending, inflight, parked, _ := leader.WindowStats()
	if inflight != 4 || parked != 0 {
		t.Fatalf("window = %d in flight (%d parked), want 4 (0)", inflight, parked)
	}
	if pending != 2 {
		t.Fatalf("pending = %d, want 2 (overflow beyond the window)", pending)
	}
	if h := leader.Store().TxHeight(); h != 0 {
		t.Fatalf("height = %d before any commit vote, want 0", h)
	}

	r.releaseHeld() // commit votes for seqs 1-4 land; 5 and 6 start and freeze
	r.releaseHeld() // commit votes for seqs 5-6
	for id, node := range r.nodes {
		if h := node.Store().TxHeight(); h != 6 {
			t.Fatalf("server %d height = %d after drain, want 6", id, h)
		}
	}
	want := []types.SeqNum{1, 2, 3, 4, 5, 6}
	for i, seq := range r.commits[2] {
		if seq != want[i] {
			t.Fatalf("follower commit order %v, want %v (in-order apply)", r.commits[2], want)
		}
	}
}

// TestOutOfOrderQuorumParks: a commit quorum that completes before its
// predecessor's parks in the window — nothing is applied or notified until
// the chain below it commits, then both apply in sequence order.
func TestOutOfOrderQuorumParks(t *testing.T) {
	r := newRigDepth(t, 4, 1, 4)
	r.intercept = func(from, to types.ServerID, msg types.Message) bool {
		rep, ok := msg.(*types.CmtReply)
		return ok && rep.N == 1 // freeze only seq 1's commit quorum
	}
	r.submit(1)
	r.submit(2) // seq 2's quorum completes while seq 1 is frozen
	leader := r.nodes[1]
	_, inflight, parked, _ := leader.WindowStats()
	if inflight != 2 || parked != 1 {
		t.Fatalf("window = %d in flight (%d parked), want 2 (1): seq 2 must park behind seq 1", inflight, parked)
	}
	if h := leader.Store().TxHeight(); h != 0 {
		t.Fatalf("height = %d while the window bottom is open, want 0 (in-order apply)", h)
	}
	if len(r.commits[1]) != 0 {
		t.Fatalf("leader emitted commits %v before the prefix closed", r.commits[1])
	}

	r.releaseHeld()
	if h := leader.Store().TxHeight(); h != 2 {
		t.Fatalf("height = %d after releasing seq 1's votes, want 2", h)
	}
	for _, id := range []types.ServerID{1, 2, 3, 4} {
		got := r.commits[id]
		if len(got) != 2 || got[0] != 1 || got[1] != 2 {
			t.Fatalf("server %d commit order = %v, want [1 2]", id, got)
		}
	}
}

// TestWindowChainsPredictedHashes: every in-flight block's PrevHash must
// equal its predecessor's predicted (and, once committed, actual) hash, so
// the committed chain is identical to what stop-and-wait would have built.
func TestWindowChainsPredictedHashes(t *testing.T) {
	r := newRigDepth(t, 4, 1, 8)
	holdCmtReplies(r)
	for i := 1; i <= 5; i++ {
		r.submit(i)
	}
	r.releaseHeld()
	store := r.nodes[1].Store()
	for seq := types.SeqNum(2); seq <= 5; seq++ {
		blk, prev := store.TxBlock(seq), store.TxBlock(seq-1)
		if blk.Header.PrevHash != prev.Hash() {
			t.Fatalf("block %d PrevHash does not match block %d's hash", seq, seq-1)
		}
		if prev.PredictedHash() != prev.Hash() {
			t.Fatalf("block %d predicted hash diverges from its committed hash", seq-1)
		}
	}
}

// TestBatchTimerIdleNoRearm: with instances in flight but an empty queue,
// the flushed batch timer must NOT re-arm — the old unconditional re-arm
// produced a 2ms busy loop for the whole lifetime of every instance.
func TestBatchTimerIdleNoRearm(t *testing.T) {
	r := newRigDepth(t, 4, 2, 4) // batch of 2 so a single tx is a partial batch
	holdCmtReplies(r)
	r.submit(1)
	leader := r.nodes[1]
	pending, inflight, _, armed := leader.WindowStats()
	if pending != 1 || inflight != 0 || !armed {
		t.Fatalf("after one tx: pending=%d inflight=%d armed=%v, want 1/0/true", pending, inflight, armed)
	}
	r.fireTimers(5 * time.Millisecond) // batch timer flushes the partial batch
	pending, inflight, _, armed = leader.WindowStats()
	if pending != 0 || inflight != 1 {
		t.Fatalf("after flush: pending=%d inflight=%d, want 0/1", pending, inflight)
	}
	if armed {
		t.Fatal("batch timer re-armed with an empty queue (busy-loop regression)")
	}
	if _, ok := r.timers[1][[2]uint64{uint64(TimerBatch), 0}]; ok {
		t.Fatal("a TimerBatch is still armed in the runtime with an empty queue")
	}
}

// TestDuplicateProposals drives onProp's dedup paths through the table the
// pipeline makes interesting: duplicates of queued, in-window, and committed
// transactions.
func TestDuplicateProposals(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"queued", func(t *testing.T) {
			// Duplicate of a transaction still in the batch queue.
			r := newRigDepth(t, 4, 2, 4)
			r.submit(1)
			r.submit(1)
			pending, inflight, _, _ := r.nodes[1].WindowStats()
			if pending != 1 || inflight != 0 {
				t.Fatalf("pending=%d inflight=%d after duplicate, want 1/0", pending, inflight)
			}
		}},
		{"in-window", func(t *testing.T) {
			// Duplicate arriving while its instance is in flight must not
			// be re-batched into a second instance.
			r := newRigDepth(t, 4, 1, 4)
			holdCmtReplies(r)
			r.submit(1)
			r.submit(1)
			pending, inflight, _, _ := r.nodes[1].WindowStats()
			if pending != 0 || inflight != 1 {
				t.Fatalf("pending=%d inflight=%d after in-window duplicate, want 0/1", pending, inflight)
			}
			r.releaseHeld()
			if h := r.nodes[1].Store().TxHeight(); h != 1 {
				t.Fatalf("height = %d, want 1 (no duplicate block)", h)
			}
		}},
		{"committed-leader-renotify", func(t *testing.T) {
			// Duplicate of a committed transaction: the leader re-notifies
			// the client with the original sequence number.
			r := newRigDepth(t, 4, 1, 4)
			r.submit(1)
			before := len(r.notifs[1])
			r.submit(1)
			fresh := r.notifs[1][before:]
			if len(fresh) != 1 {
				t.Fatalf("leader sent %d notifs for a committed duplicate, want 1", len(fresh))
			}
			if n := fresh[0]; n.N != 1 || !n.Status {
				t.Fatalf("re-notify = seq %d status %v, want seq 1 status true", n.N, n.Status)
			}
			if h := r.nodes[1].Store().TxHeight(); h != 1 {
				t.Fatal("committed duplicate was re-proposed")
			}
		}},
		{"committed-follower-renotify", func(t *testing.T) {
			// Followers also answer duplicates of committed transactions.
			r := newRigDepth(t, 4, 1, 4)
			prop := r.submit(1)
			before := len(r.notifs[2])
			r.exec(2, r.nodes[2].OnMessage(r.now, consensus.FromClient(), prop))
			fresh := r.notifs[2][before:]
			if len(fresh) != 1 || fresh[0].N != 1 {
				t.Fatalf("follower re-notify = %+v, want one notif at seq 1", fresh)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, tc.run)
	}
}

// TestOrdStashReplay: a proposal that arrives ahead of its lost predecessor
// is buffered and replayed — voting for both slots — the moment the
// predecessor shows up, instead of waiting for the leader's retransmission
// cycle.
func TestOrdStashReplay(t *testing.T) {
	r := newRigDepth(t, 4, 1, 4)
	var heldOrd *types.Ord
	r.intercept = func(from, to types.ServerID, msg types.Message) bool {
		switch m := msg.(type) {
		case *types.Ord:
			if to == 4 && m.N == 1 {
				heldOrd = m
				return true // server 4 misses the first proposal
			}
		case *types.TxBlockMsg:
			return to == 4 // and the finished blocks
		}
		return false
	}
	r.submit(1)
	r.submit(2) // server 4 sees Ord(2) with no prepared[1]: must stash it
	if heldOrd == nil {
		t.Fatal("interceptor never captured Ord(1)")
	}
	if h := r.nodes[4].Store().TxHeight(); h != 0 {
		t.Fatalf("server 4 height = %d, want 0 (it missed everything)", h)
	}
	// Delivering the missing predecessor must produce votes for BOTH slots.
	effs := r.nodes[4].OnMessage(r.now, consensus.FromServer(1), heldOrd)
	var voted []types.SeqNum
	for _, e := range effs {
		if s, ok := e.(consensus.Send); ok {
			if rep, ok := s.Msg.(*types.OrdReply); ok {
				voted = append(voted, rep.N)
			}
		}
	}
	if len(voted) != 2 || voted[0] != 1 || voted[1] != 2 {
		t.Fatalf("replayed votes = %v, want [1 2] (stash drained in order)", voted)
	}
}

// TestOrphanedLockReleases: a slot can end up locked above a predecessor
// that never certified anywhere (per-slot ordering quorums complete
// independently). After a view change, the new leader has no evidence for
// the gap slot, commits fresh content there, and the locked block's chain
// is dead — the lock must release (it provably protects a block that was
// never applied), or the locked majority would refuse every proposal at
// that height forever and wedge the cluster.
func TestOrphanedLockReleases(t *testing.T) {
	r := newRigDepth(t, 4, 1, 4)
	r.submit(1) // commit a base block normally
	r.intercept = func(from, to types.ServerID, msg types.Message) bool {
		if rep, ok := msg.(*types.OrdReply); ok && rep.N == 2 {
			return true // slot 2 never certifies: no ordering_QC anywhere
		}
		return false
	}
	r.submit(2) // stuck in the Ordering phase
	r.submit(3) // certifies and goes through Cmt: followers lock slot 3
	// The leader dies; nobody holds evidence for slot 2, so the new leader
	// must fill seqs 2.. with fresh blocks while slot 3's old lock lingers.
	r.held = nil
	r.intercept = nil
	r.down[1] = true
	prop := r.clientProp(4)
	r.complain(prop)
	r.fireTimers(2 * time.Second)
	r.solvePuzzles()
	for _, id := range []types.ServerID{2, 3, 4} {
		node := r.nodes[id]
		if node.View() != 2 {
			t.Fatalf("server %d still in view %d", id, node.View())
		}
		if h := node.Store().TxHeight(); h < 4 {
			t.Fatalf("server %d wedged at height %d (orphaned lock at slot 3 not released), want ≥ 4", id, h)
		}
	}
}

// TestViewChangeAdoptsFullWindow is the committed-prefix acceptance test for
// window adoption: the leader commits blocks whose TxBlockMsgs never reach
// the followers, then fail-stops with a full window. The new leader must
// re-commit those exact blocks — byte-identical hashes — from the certified
// slots carried by election votes, so the dead leader's chain remains a
// prefix of the cluster's when it recovers.
func TestViewChangeAdoptsFullWindow(t *testing.T) {
	r := newRigDepth(t, 4, 1, 4)
	r.intercept = func(from, to types.ServerID, msg types.Message) bool {
		_, isBlk := msg.(*types.TxBlockMsg)
		return isBlk // commits stay leader-local; followers only prepare+lock
	}
	for i := 1; i <= 3; i++ {
		r.submit(i)
	}
	oldLeader := r.nodes[1]
	if h := oldLeader.Store().TxHeight(); h != 3 {
		t.Fatalf("old leader height = %d, want 3", h)
	}
	for _, id := range []types.ServerID{2, 3, 4} {
		if h := r.nodes[id].Store().TxHeight(); h != 0 {
			t.Fatalf("follower %d height = %d, want 0 (TxBlockMsgs were held)", id, h)
		}
	}

	// The leader dies with the window's blocks committed only locally.
	r.held = nil
	r.intercept = nil
	r.down[1] = true
	prop := r.clientProp(4)
	r.complain(prop)
	r.fireTimers(2 * time.Second)
	r.solvePuzzles()

	// A new leader rules view 2 and must have adopted blocks 1-3.
	for _, id := range []types.ServerID{2, 3, 4} {
		node := r.nodes[id]
		if node.View() != 2 {
			t.Fatalf("server %d still in view %d", id, node.View())
		}
		if h := node.Store().TxHeight(); h < 3 {
			t.Fatalf("server %d height = %d after adoption, want ≥ 3", id, h)
		}
	}
	// Byte-identical adoption: every re-committed block hashes exactly as
	// the dead leader's copy (same header view, same commit statement).
	for seq := types.SeqNum(1); seq <= 3; seq++ {
		want := oldLeader.Store().TxBlock(seq).Hash()
		for _, id := range []types.ServerID{2, 3, 4} {
			if got := r.nodes[id].Store().TxBlock(seq).Hash(); got != want {
				t.Fatalf("server %d block %d hash differs from the dead leader's (committed-prefix violation)", id, seq)
			}
		}
	}
	// The complained transaction must also have committed in the new view.
	newLeaderID := r.nodes[2].CurrentLeader()
	committedSeq := types.SeqNum(0)
	for _, id := range []types.ServerID{2, 3, 4} {
		st := r.nodes[id].Store()
		for seq := types.SeqNum(4); seq <= st.TxHeight(); seq++ {
			for _, tx := range st.TxBlock(seq).Txs {
				if tx.Digest() == prop.D {
					committedSeq = seq
				}
			}
		}
	}
	if committedSeq == 0 {
		t.Fatalf("complained tx never committed under new leader %d", newLeaderID)
	}
}
