package core

import (
	"testing"

	"prestigebft/internal/crypto"
	"prestigebft/internal/types"
)

// TestOwnVotesAreNotVerified: committing a block costs the leader zero
// signature verifications on its own ID — it seeds both collectors with
// votes it signed a moment earlier, and checking those buys nothing.
//
// The leader gets a private registry (same deployment keys) with the
// verified-fact cache on. The cache is content-addressed by
// (signer, statement, signature), so probing it afterwards with the leader's
// own vote tells whether the leader ever verified that vote: a hit means it
// did.
func TestOwnVotesAreNotVerified(t *testing.T) {
	const leader = types.ServerID(1)
	own, _, _ := crypto.GenerateDeployment(33, 4, 4)
	own.EnableVerifiedCache(0)
	r := newRigCfg(t, 4, 1, 0, func(cfg *Config) {
		if cfg.ID == leader {
			cfg.Registry = own
		}
	})
	r.submit(1)
	blk := r.nodes[leader].Store().TxBlock(1)
	if blk == nil {
		t.Fatal("block 1 did not commit on the leader")
	}

	probe := func(id types.ServerID, stmt []byte) (hit bool) {
		before, _ := own.CacheStats()
		if !own.VerifyServer(id, stmt, r.keys[id].Sign(stmt)) {
			t.Fatalf("server %d's vote does not verify", id)
		}
		after, _ := own.CacheStats()
		return after > before
	}
	for _, qc := range []types.QC{blk.OrderingQC, blk.CommitQC} {
		stmt := types.QCStatementBytes(qc.Kind, qc.View, qc.Seq, qc.Digest)
		if qc.Signers[0] != leader {
			t.Fatalf("%s signers %v do not include the leader's own vote", qc.Kind, qc.Signers)
		}
		if probe(leader, stmt) {
			t.Errorf("%s: the leader verified its own vote", qc.Kind)
		}
		// Control: a follower's vote in the same certificate was verified.
		if !probe(qc.Signers[1], stmt) {
			t.Errorf("%s: follower %d's vote was never verified (the probe sees nothing)", qc.Kind, qc.Signers[1])
		}
	}
}
