package runtime

import (
	"testing"

	"prestigebft/internal/crypto"
	"prestigebft/internal/types"
)

func deployment(t *testing.T) (*crypto.Registry, map[types.ServerID]*crypto.KeyPair) {
	t.Helper()
	reg, servers, _ := crypto.GenerateDeployment(0x5eed, 4, 2)
	reg.EnableVerifiedCache(0)
	return reg, servers
}

// TestPreverifyWarmsCache: a pre-verified message makes the core's
// subsequent inline verification a cache hit.
func TestPreverifyWarmsCache(t *testing.T) {
	reg, servers := deployment(t)
	m := &types.OrdReply{From: 2, V: 1, N: 3, D: types.Digest{7}}
	m.Sig = servers[2].Sign(m.SigningBytes())

	preverify(reg, m)

	h0, _ := reg.CacheStats()
	if !reg.VerifyServer(m.From, m.SigningBytes(), m.Sig) {
		t.Fatal("valid signature rejected")
	}
	if h1, _ := reg.CacheStats(); h1 != h0+1 {
		t.Fatalf("core verification was not a cache hit (hits %d -> %d)", h0, h1)
	}
}

// TestPreverifyWarmsQC: a pre-verified Cmt's ordering_QC makes the core's
// VerifyQC at the real threshold a cache hit.
func TestPreverifyWarmsQC(t *testing.T) {
	reg, servers := deployment(t)
	qc := types.QC{Kind: types.QCOrdering, View: 1, Seq: 4, Digest: types.Digest{9}}
	stmt := qc.StatementBytes()
	for id := types.ServerID(1); id <= 3; id++ {
		qc.Signers = append(qc.Signers, id)
		qc.Sigs = append(qc.Sigs, servers[id].Sign(stmt))
	}
	m := &types.Cmt{From: 1, V: 1, N: 4, OrderingQC: qc}
	m.Sig = servers[1].Sign(m.SigningBytes())

	preverify(reg, m)

	h0, _ := reg.CacheStats()
	if err := reg.VerifyQC(&m.OrderingQC, 3); err != nil {
		t.Fatalf("valid QC rejected: %v", err)
	}
	if h1, _ := reg.CacheStats(); h1 <= h0 {
		t.Fatal("core QC verification was not a cache hit")
	}
}

// TestPreverifyCachesNoFailure: a bad signature leaves nothing behind — the
// core's own check still runs the math and still fails.
func TestPreverifyCachesNoFailure(t *testing.T) {
	reg, _ := deployment(t)
	m := &types.OrdReply{From: 2, V: 1, N: 3, D: types.Digest{7}, Sig: []byte("garbage")}

	preverify(reg, m)

	h0, _ := reg.CacheStats()
	if reg.VerifyServer(m.From, m.SigningBytes(), m.Sig) {
		t.Fatal("garbage signature accepted")
	}
	if h1, _ := reg.CacheStats(); h1 != h0 {
		t.Fatal("a failed pre-verification was answered from the cache")
	}
}
