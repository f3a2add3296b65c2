package sbft_test

import (
	"testing"
	"time"

	"prestigebft/internal/baseline/sbft"
	"prestigebft/internal/client"
	"prestigebft/internal/harness"
	"prestigebft/internal/ledger"
	"prestigebft/internal/types"
)

func newCluster(t *testing.T, opts harness.Options) *harness.Cluster {
	t.Helper()
	opts.Protocol = harness.SBFT
	c := harness.NewCluster(opts)
	c.Start()
	return c
}

// TestFastPathCommits: with all replicas correct the fast path commits in
// one share round.
func TestFastPathCommits(t *testing.T) {
	c := newCluster(t, harness.Options{
		N: 4, Clients: 8, BatchSize: 8, Seed: 2,
		VerifySignatures: true,
	})
	c.Run(3 * time.Second)
	if c.Metrics.TotalTxs == 0 {
		t.Fatal("SBFT fast path committed nothing")
	}
	if len(client.MergeLatencies(c.ClientStats())) == 0 {
		t.Fatal("clients saw no commits")
	}
}

// TestSlowPathUnderQuietReplica: with one quiet replica the full quorum
// never forms, so commits must flow through the two-phase slow path.
func TestSlowPathUnderQuietReplica(t *testing.T) {
	c := newCluster(t, harness.Options{
		N: 4, Clients: 6, BatchSize: 6, Seed: 9,
		VerifySignatures: true,
	})
	c.Crash(4) // quiet from the start: fast path can never collect n shares
	c.Run(5 * time.Second)
	if c.Metrics.TotalTxs == 0 {
		t.Fatal("SBFT slow path committed nothing with one quiet replica")
	}
}

// TestReplicasConverge: all live replicas end with identical chains.
func TestReplicasConverge(t *testing.T) {
	c := newCluster(t, harness.Options{
		N: 4, Clients: 4, BatchSize: 4, Seed: 5,
		VerifySignatures: true,
	})
	c.Run(3 * time.Second)
	var replicas []*sbft.Replica
	for _, rep := range c.Replicas {
		replicas = append(replicas, rep.(*sbft.Replica))
	}
	minH := replicas[0].Store().TxHeight()
	for _, r := range replicas[1:] {
		if h := r.Store().TxHeight(); h < minH {
			minH = h
		}
	}
	if minH == 0 {
		t.Fatal("some replica committed nothing")
	}
	for s := types.SeqNum(1); s <= minH; s++ {
		ref := replicas[0].Store().TxBlock(s).Hash()
		for _, r := range replicas[1:] {
			if r.Store().TxBlock(s).Hash() != ref {
				t.Fatalf("divergence at seq %d", s)
			}
		}
	}
}

// rejectEven refuses every transaction with an even timestamp; the block
// still orders it, with Status false.
type rejectEven struct{}

func (rejectEven) Apply(tx *types.Transaction) bool { return tx.Timestamp%2 == 1 }

// TestNotifsCarryTheAppliedStatus: a client learns the status the state
// machine returned for its request, not "accepted" whatever it returned.
// Each closed-loop client alternates accepted and rejected requests.
func TestNotifsCarryTheAppliedStatus(t *testing.T) {
	c := newCluster(t, harness.Options{
		N: 4, Clients: 4, BatchSize: 4, Seed: 2,
		VerifySignatures: true,
		StateMachine:     func() ledger.StateMachine { return rejectEven{} },
	})
	c.Run(3 * time.Second)
	var committed, rejected int
	for _, st := range c.ClientStats() {
		committed += st.Committed
		rejected += st.Rejected
	}
	if committed == 0 || committed-rejected < 0 || committed-rejected > 4 {
		t.Fatalf("clients counted %d accepted and %d rejected requests, want alternating halves", committed, rejected)
	}
}
