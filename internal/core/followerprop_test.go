package core

import (
	"testing"

	"prestigebft/internal/consensus"
	"prestigebft/internal/crypto"
	"prestigebft/internal/types"
)

// TestFollowerDoesNotVerifyProps: a follower has no use for a fresh client
// proposal (complaints carry their own copy), so it drops one before paying
// for the signature check; a proposal for a transaction it already committed
// is still verified and answered, and a forged one is not answered.
//
// As in TestOwnVotesAreNotVerified the follower gets a private registry with
// the verified-fact cache on: every VerifyClient call counts as a hit or a
// miss there, so flat counters mean the follower verified nothing.
func TestFollowerDoesNotVerifyProps(t *testing.T) {
	const follower = types.ServerID(2)
	own, _, _ := crypto.GenerateDeployment(33, 4, 4)
	own.EnableVerifiedCache(0)
	r := newRigCfg(t, 4, 1, 0, func(cfg *Config) {
		if cfg.ID == follower {
			cfg.Registry = own
		}
	})
	node := r.nodes[follower]
	handle := func(p *types.Prop) (effs []consensus.Effect, verifications uint64) {
		h0, m0 := own.CacheStats()
		effs = node.OnMessage(r.now, consensus.FromClient(1), p)
		h1, m1 := own.CacheStats()
		return effs, (h1 - h0) + (m1 - m0)
	}

	fresh := r.clientProp(1)
	if effs, v := handle(fresh); len(effs) != 0 || v != 0 {
		t.Fatalf("fresh Prop at a follower: %d effects, %d verifications, want 0 and 0", len(effs), v)
	}

	// Commit it everywhere; the re-sent proposal is now worth an answer.
	r.submit(1)
	if node.Store().TxBlock(1) == nil {
		t.Fatal("block 1 did not commit on the follower")
	}
	effs, v := handle(fresh)
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
	if effs, v := handle(&forged); len(effs) != 0 || v != 1 {
		t.Fatalf("forged Prop for a committed digest: %d effects, %d verifications, want 0 and 1", len(effs), v)
	}
}
