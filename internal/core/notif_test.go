package core

import (
	"bytes"
	"testing"

	"prestigebft/internal/consensus"
	"prestigebft/internal/types"
)

// TestOneNotifSignaturePerBlock: however a block reaches a replica — the
// leader's own apply loop, a follower's TxBlockMsg, a straggler's sync
// replay — the replica acknowledges it with one signed statement, and every
// Notif it emits for the block carries that one signature with its own
// leaf's proof.
func TestOneNotifSignaturePerBlock(t *testing.T) {
	const batch, blocks = 5, 3
	r := newRigDepth(t, 4, batch, 0)
	r.down[4] = true
	for seq := 1; seq <= 2*batch; seq++ {
		r.submit(seq)
	}
	// Server 4 returns, still at genesis, and learns blocks 1 and 2 through
	// SyncUp when block 3's broadcast exposes the gap.
	if h := r.nodes[4].Store().TxHeight(); h != 0 {
		t.Fatalf("downed server advanced to %d", h)
	}
	r.down[4] = false
	for seq := 2*batch + 1; seq <= blocks*batch; seq++ {
		r.submit(seq)
	}
	for id, node := range r.nodes {
		if h := node.Store().TxHeight(); h != blocks {
			t.Fatalf("server %d height = %d, want %d", id, h, blocks)
		}
		sigOf := make(map[types.SeqNum][]byte)
		leaves := make(map[types.SeqNum]map[uint32]bool)
		acks := 0
		for _, n := range r.notifs[id] {
			if len(n.Path) == 0 {
				// A one-leaf re-notification: the rig hands the proposal that
				// completes a batch to the leader first, so a follower may
				// see it only after the block committed.
				continue
			}
			acks++
			if !r.reg.VerifyServer(id, n.SigningBytes(), n.Sig) {
				t.Fatalf("server %d block %d leaf %d: proof does not verify", id, n.N, n.Index)
			}
			if sig, ok := sigOf[n.N]; ok && !bytes.Equal(sig, n.Sig) {
				t.Fatalf("server %d signed block %d more than once", id, n.N)
			}
			sigOf[n.N] = n.Sig
			if leaves[n.N] == nil {
				leaves[n.N] = make(map[uint32]bool)
			}
			leaves[n.N][n.Index] = true
		}
		if acks != blocks*batch {
			t.Fatalf("server %d sent %d block acknowledgements, want %d", id, acks, blocks*batch)
		}
		if len(sigOf) != blocks {
			t.Fatalf("server %d acknowledged %d blocks, want %d", id, len(sigOf), blocks)
		}
		for seq, seen := range leaves {
			if len(seen) != batch {
				t.Fatalf("server %d block %d: %d distinct leaves, want %d", id, seq, len(seen), batch)
			}
		}
		if bytes.Equal(sigOf[1], sigOf[2]) {
			t.Fatalf("server %d reused one signature across blocks", id)
		}
	}
}

// rejectEven is a state machine that refuses every transaction with an even
// timestamp: the block still orders it, with Status false.
type rejectEven struct{}

func (rejectEven) Apply(tx *types.Transaction) bool { return tx.Timestamp%2 == 1 }

// TestRenotifyCarriesCommittedStatus: a client that re-sends (or complains
// about) a transaction the state machine rejected must be told so again —
// the duplicate path used to answer "accepted" whatever the block recorded.
// The answer always reports the client's last applied request: once its
// next request applied, a re-sent older one draws that request's Notif.
func TestRenotifyCarriesCommittedStatus(t *testing.T) {
	r := newRigCfg(t, 4, 1, 0, func(c *Config) { c.StateMachine = rejectEven{} })
	// Followers first, so nobody sees the proposal as a duplicate of the
	// block the leader commits synchronously.
	submit := func(seq int) *types.Prop {
		prop := r.clientProp(seq)
		for id := types.ServerID(4); id >= 1; id-- {
			r.exec(id, r.nodes[id].OnMessage(r.now, consensus.FromClient(1), prop))
		}
		return prop
	}
	// expect runs resend and checks that every server answered with want
	// notifs for prop: the one-leaf form (the batch is one transaction), at
	// prop's seq, with status.
	expect := func(name string, prop *types.Prop, resend func(), want int, status bool) {
		t.Helper()
		before := make(map[types.ServerID]int)
		for id := range r.nodes {
			before[id] = len(r.notifs[id])
		}
		resend()
		for id := range r.nodes {
			fresh := r.notifs[id][before[id]:]
			if len(fresh) != want {
				t.Fatalf("%s: server %d sent %d notifs, want %d", name, id, len(fresh), want)
			}
			for _, n := range fresh {
				if n.TxD != prop.D || n.Status != status || n.N != types.SeqNum(prop.Tx.Timestamp) {
					t.Fatalf("%s: server %d notified seq %d status %v, want seq %d status %v",
						name, id, n.N, n.Status, prop.Tx.Timestamp, status)
				}
				if len(n.Path) != 0 || n.Index != 0 {
					t.Fatalf("%s: server %d notif is not the one-leaf form", name, id)
				}
				if !r.reg.VerifyServer(id, n.SigningBytes(), n.Sig) {
					t.Fatalf("%s: server %d notif does not verify", name, id)
				}
			}
		}
	}
	var accepted, rejected *types.Prop
	expect("commit of an accepted proposal", r.clientProp(1), func() { accepted = submit(1) }, 1, true)
	expect("re-sent accepted proposal", accepted, func() { r.submit(1) }, 1, true)
	expect("commit of a rejected proposal", r.clientProp(2), func() { rejected = submit(2) }, 1, false)
	expect("re-sent rejected proposal", rejected, func() { r.submit(2) }, 1, false)
	expect("complaint about a rejected proposal", rejected, func() { r.complain(rejected) }, 1, false)
	expect("re-sent older proposal", rejected, func() { r.submit(1) }, 1, false)
	if h := r.nodes[1].Store().TxHeight(); h != 2 {
		t.Fatalf("height = %d: a duplicate was re-proposed", h)
	}
}

// TestRelayedComplaintResyncsTheRelayer: a follower that missed a block
// relays the client's complaint about a transaction in it to a leader that
// committed it long ago and has nothing in flight to retransmit. The leader
// answers the relayer with its tip, the relayer syncs and commits, and the
// client gets the follower's Notif it was waiting for.
func TestRelayedComplaintResyncsTheRelayer(t *testing.T) {
	r := newRig(t, 4)
	r.intercept = func(from, to types.ServerID, msg types.Message) bool {
		_, block := msg.(*types.TxBlockMsg)
		return block && to == 4
	}
	prop := r.submit(1)
	r.intercept, r.held = nil, nil
	if h := r.nodes[4].Store().TxHeight(); h != 0 {
		t.Fatalf("server 4 height %d, want 0 (its TxBlockMsg was lost)", h)
	}
	if _, inflight, _, _ := r.nodes[1].WindowStats(); inflight != 0 {
		t.Fatalf("leader has %d instances in flight, want an idle leader", inflight)
	}
	before := len(r.notifs[4])
	r.complain(prop)
	if h := r.nodes[4].Store().TxHeight(); h != 1 {
		t.Fatalf("server 4 height %d after the complaint, want 1", h)
	}
	fresh := r.notifs[4][before:]
	if len(fresh) != 1 || fresh[0].TxD != prop.D {
		t.Fatalf("server 4 sent %d notifs for the transaction, want 1", len(fresh))
	}
}
