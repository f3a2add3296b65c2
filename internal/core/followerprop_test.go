package core

import (
	"testing"

	"prestigebft/internal/consensus"
	"prestigebft/internal/crypto"
	"prestigebft/internal/types"
)

// countingNode gives server id a private registry with the verified-fact
// cache on, as in TestOwnVotesAreNotVerified: every VerifyClient call counts
// as a hit or a miss there, so flat counters mean the node verified nothing.
// handle delivers p to that node from the given origin and reports the
// effects and the verifications the delivery cost.
func countingNode(t *testing.T, batch, depth int, id types.ServerID) (r *rig, handle func(consensus.Origin, *types.Prop) ([]consensus.Effect, uint64)) {
	own, _, _ := crypto.GenerateDeployment(33, 4, 4)
	own.EnableVerifiedCache(0)
	r = newRigCfg(t, 4, batch, depth, func(cfg *Config) {
		if cfg.ID == id {
			cfg.Registry = own
		}
	})
	node := r.nodes[id]
	return r, func(from consensus.Origin, p *types.Prop) ([]consensus.Effect, uint64) {
		h0, m0 := own.CacheStats()
		effs := node.OnMessage(r.now, from, p)
		h1, m1 := own.CacheStats()
		return effs, (h1 - h0) + (m1 - m0)
	}
}

// oneSend returns effs' only effect when it is a Send.
func oneSend(effs []consensus.Effect) (consensus.Send, bool) {
	if len(effs) != 1 {
		return consensus.Send{}, false
	}
	s, ok := effs[0].(consensus.Send)
	return s, ok
}

// TestFollowerDoesNotVerifyProps: a follower has no use for a fresh client
// proposal (complaints carry their own copy), so it drops one before paying
// for the signature check; a proposal for a transaction it already committed
// is still verified and answered, and a forged one is not answered.
func TestFollowerDoesNotVerifyProps(t *testing.T) {
	const follower = types.ServerID(2)
	r, handle := countingNode(t, 1, 0, follower)

	fresh := r.clientProp(1)
	if effs, v := handle(consensus.FromClient(), fresh); len(effs) != 0 || v != 0 {
		t.Fatalf("fresh Prop at a follower: %d effects, %d verifications, want 0 and 0", len(effs), v)
	}

	// Commit it everywhere; the re-sent proposal is now worth an answer.
	r.submit(1)
	if r.nodes[follower].Store().TxBlock(1) == nil {
		t.Fatal("block 1 did not commit on the follower")
	}
	effs, v := handle(consensus.FromClient(), fresh)
	if v != 1 {
		t.Fatalf("Prop for a committed digest: %d verifications, want 1", v)
	}
	if len(effs) != 1 {
		t.Fatalf("Prop for a committed digest: %d effects, want one re-notification", len(effs))
	}
	sc, ok := effs[0].(consensus.SendClient)
	if notif, isNotif := sc.Msg.(*types.Notif); !ok || !isNotif || sc.To != 1 || notif.TxD != fresh.D || notif.N != 1 {
		t.Fatalf("re-notification = %#v", effs[0])
	}

	forged := *fresh
	forged.Sig = append([]byte(nil), fresh.Sig...)
	forged.Sig[0] ^= 0xff
	if effs, v := handle(consensus.FromClient(), &forged); len(effs) != 0 || v != 1 {
		t.Fatalf("forged Prop for a committed digest: %d effects, %d verifications, want 0 and 1", len(effs), v)
	}
}

// TestDeposedLeaderForwardsClientProps: a client whose leader hint is stale
// sends its proposal to a server that led an earlier view. That server
// passes it on to its current leader, once and unverified, and never passes
// on a copy a server sent it — a proposal takes at most one extra hop,
// whatever the replicas believe about who leads. A follower that never led
// only ever gets hintless broadcasts, whose leader copy went to the leader
// itself, and forwards nothing.
func TestDeposedLeaderForwardsClientProps(t *testing.T) {
	const deposed = types.ServerID(3)
	r, handle := countingNode(t, 1, 0, deposed)
	sent := 0
	r.intercept = func(from, to types.ServerID, msg types.Message) bool {
		if _, ok := msg.(*types.Prop); ok {
			sent++
		}
		return true // hold everything: nothing commits
	}
	node := r.nodes[deposed]
	if !r.nodes[1].led || node.led {
		t.Fatal("at genesis only server 1 has led")
	}
	prop := r.clientProp(1)
	if effs, _ := handle(consensus.FromClient(), prop); len(effs) != 0 {
		t.Fatalf("client Prop at a follower that never led: %#v, want no effects", effs)
	}

	node.led = true // as if it had led an earlier view
	r.exec(deposed, node.OnMessage(r.now, consensus.FromClient(), prop))
	if sent != 1 || len(r.held) != 1 || r.held[0].from != deposed || r.held[0].to != 1 {
		t.Fatalf("client Prop at a deposed leader: %d sends, held %+v, want one to leader 1", sent, r.held)
	}
	// Unverified: the leader verifies what it orders.
	if _, v := handle(consensus.FromClient(), prop); v != 0 {
		t.Fatalf("forwarding cost %d verifications, want 0", v)
	}
	// A copy relayed by a server is dropped, not relayed again.
	if effs := node.OnMessage(r.now, consensus.FromServer(2), prop); len(effs) != 0 {
		t.Fatalf("server-origin Prop at a deposed leader: %#v, want no effects", effs)
	}
	// Syncing, it passes the proposal on at once too: stashed and replayed
	// after the sync, the copy could trail its own commit by far more.
	node.syncing = true
	effs := node.OnMessage(r.now, consensus.FromClient(), prop)
	if fwd, ok := oneSend(effs); !ok || fwd.To != 1 || len(node.syncStash) != 0 {
		t.Fatalf("client Prop at a syncing deposed leader: %#v, stash %d, want one forward and no stash", effs, len(node.syncStash))
	}
	node.syncing = false
	// The leader never forwards: it orders.
	effs = r.nodes[1].OnMessage(r.now, consensus.FromClient(), prop)
	if len(effs) == 0 {
		t.Fatal("the leader did nothing with a client Prop")
	}
	for _, e := range effs {
		if s, ok := e.(consensus.Send); ok {
			t.Fatalf("the leader sent something on: %#v", s)
		}
	}
}

// TestLeaderDedupsBeforeVerifying: the copies followers forward of a
// proposal the leader already queued cost the leader no signature check —
// the queued transaction was verified when it was queued.
func TestLeaderDedupsBeforeVerifying(t *testing.T) {
	const leader = types.ServerID(1)
	r, handle := countingNode(t, 2, 4, leader) // β=2: one proposal stays queued
	prop := r.clientProp(1)
	if _, v := handle(consensus.FromClient(), prop); v != 1 {
		t.Fatalf("first copy: %d verifications, want 1", v)
	}
	for from := types.ServerID(2); from <= 4; from++ {
		if effs, v := handle(consensus.FromServer(from), prop); len(effs) != 0 || v != 0 {
			t.Fatalf("copy forwarded by %d: %d effects, %d verifications, want 0 and 0", from, len(effs), v)
		}
	}
	if pending, inflight, _, _ := r.nodes[leader].WindowStats(); pending != 1 || inflight != 0 {
		t.Fatalf("pending=%d inflight=%d, want the one proposal queued", pending, inflight)
	}
}
