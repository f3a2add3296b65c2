package runtime

import (
	"prestigebft/internal/crypto"
	"prestigebft/internal/types"
)

// preverify is the inbound pre-verification step: for each message kind it
// runs the signature and quorum-certificate checks the core is about to run
// itself, on Deliver's goroutine, so that reg's verified-fact cache
// (crypto.EnableVerifiedCache) turns the core's inline calls on the event
// loop into hits. It does not annotate messages, and results are discarded: a
// failure here is re-discovered (and rejected) by the core's own call, so it
// cannot change protocol behaviour, only where the ed25519 math happens. The
// simulator never calls it, keeping simulated trajectories byte-identical.
func preverify(reg *crypto.Registry, msg types.Message) {
	switch m := msg.(type) {
	case *types.Prop:
		reg.VerifyClient(m.Tx.Client, m.SigningBytes(), m.Sig)
	case *types.Notif:
		reg.VerifyServer(m.From, m.SigningBytes(), m.Sig)
	case *types.Compt:
		reg.VerifyClient(m.Prop.Tx.Client, m.SigningBytes(), m.Sig)
		reg.VerifyClient(m.Prop.Tx.Client, m.Prop.SigningBytes(), m.Prop.Sig)
	case *types.ConfVC:
		reg.VerifyServer(m.From, m.SigningBytes(), m.Sig)
	case *types.ReVC:
		reg.VerifyServer(m.From, m.SigningBytes(), m.Sig)
	case *types.CampVC:
		reg.VerifyServer(m.From, m.SigningBytes(), m.Sig)
		warmQC(reg, &m.ConfQC)
	case *types.VoteCP:
		reg.VerifyServer(m.From, m.SigningBytes(), m.Sig)
		for i := range m.Locked {
			warmQC(reg, &m.Locked[i].OrderingQC)
		}
	case *types.VcBlockMsg:
		reg.VerifyServer(m.From, m.SigningBytes(), m.Sig)
		warmQC(reg, &m.Block.ConfQC)
		warmQC(reg, &m.Block.VcQC)
	case *types.VcYes:
		reg.VerifyServer(m.From, m.SigningBytes(), m.Sig)
	case *types.Ref:
		reg.VerifyServer(m.From, m.SigningBytes(), m.Sig)
	case *types.Rdone:
		reg.VerifyServer(m.From, m.SigningBytes(), m.Sig)
		warmQC(reg, &m.RsQC)
	case *types.Ord:
		reg.VerifyServer(m.From, m.SigningBytes(), m.Sig)
		reg.VerifyRequests(m.Txs, m.ClientSigs)
	case *types.OrdReply:
		reg.VerifyServer(m.From, m.SigningBytes(), m.Sig)
	case *types.Cmt:
		reg.VerifyServer(m.From, m.SigningBytes(), m.Sig)
		warmQC(reg, &m.OrderingQC)
	case *types.CmtReply:
		reg.VerifyServer(m.From, m.SigningBytes(), m.Sig)
	case *types.Adopt:
		reg.VerifyServer(m.From, m.SigningBytes(), m.Sig)
		warmQC(reg, &m.Block.OrderingQC)
	case *types.TxBlockMsg:
		reg.VerifyServer(m.From, m.SigningBytes(), m.Sig)
		warmQC(reg, &m.Block.OrderingQC)
		warmQC(reg, &m.Block.CommitQC)
	case *types.CkptVote:
		reg.VerifyServer(m.From, m.SigningBytes(), m.Sig)
	case *types.SyncResp:
		for i := range m.TxBlocks {
			warmQC(reg, &m.TxBlocks[i].OrderingQC)
			warmQC(reg, &m.TxBlocks[i].CommitQC)
		}
		for i := range m.VcBlocks {
			warmQC(reg, &m.VcBlocks[i].ConfQC)
			warmQC(reg, &m.VcBlocks[i].VcQC)
		}
		if m.Snapshot != nil {
			warmQC(reg, &m.Snapshot.Cert.QC)
			warmQC(reg, &m.Snapshot.Anchor.OrderingQC)
			warmQC(reg, &m.Snapshot.Anchor.CommitQC)
		}
	default:
		// Unknown kinds (baseline protocols, future messages) pass through
		// unverified; the receiving core treats them as it always has.
	}
}

// warmQC verifies a certificate at threshold 0: shape and signatures only.
// A success lands the QC's fact in the cache; the core's later VerifyQC
// re-checks its real threshold against the cached fact.
func warmQC(reg *crypto.Registry, qc *types.QC) {
	if qc.IsZero() {
		return
	}
	_ = reg.VerifyQC(qc, 0)
}
