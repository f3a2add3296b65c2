package hotstuff_test

import (
	"testing"
	"time"

	"prestigebft/internal/baseline/hotstuff"
	"prestigebft/internal/client"
	"prestigebft/internal/faults"
	"prestigebft/internal/harness"
	"prestigebft/internal/ledger"
	"prestigebft/internal/types"
)

func TestLeaderOf(t *testing.T) {
	// L = V mod n over the passive schedule (Figure 1).
	cases := []struct {
		v      types.View
		n      int
		leader types.ServerID
	}{
		{1, 4, 1}, {2, 4, 2}, {3, 4, 3}, {4, 4, 4}, {5, 4, 1}, {9, 4, 1},
		{1, 7, 1}, {8, 7, 1},
	}
	for _, c := range cases {
		if got := hotstuff.LeaderOf(c.v, c.n); got != c.leader {
			t.Errorf("LeaderOf(%d, %d) = %d, want %d", c.v, c.n, got, c.leader)
		}
	}
}

func TestNormalOperationCommits(t *testing.T) {
	c := harness.NewCluster(harness.Options{
		Protocol: harness.HotStuff,
		N:        4, Clients: 8, BatchSize: 8, Seed: 3,
		VerifySignatures: true,
	})
	c.Start()
	c.Run(3 * time.Second)
	if c.Metrics.TotalTxs == 0 {
		t.Fatal("HotStuff committed nothing under normal operation")
	}
	if len(client.MergeLatencies(c.ClientStats())) == 0 {
		t.Fatal("clients saw no commits")
	}
}

// TestPassiveRotationStallsOnCrashedLeader demonstrates the passive
// protocol's weakness (Figure 1 discussion): when the schedule rotates onto
// a crashed server, the system waits out a full timeout.
func TestPassiveRotationStallsOnCrashedLeader(t *testing.T) {
	c := harness.NewCluster(harness.Options{
		Protocol: harness.HotStuff,
		N:        4, Clients: 4, BatchSize: 4, Seed: 11,
		VerifySignatures: true,
		ViewPolicy:       time.Second, // rotate every second
		TimeoutMax:       time.Second, // pacemaker timeout
		Faults:           map[types.ServerID]faults.Spec{2: {Mode: faults.Quiet}},
	})
	c.Start()
	c.Run(10 * time.Second)
	if c.Metrics.TotalTxs == 0 {
		t.Fatal("no progress at all")
	}
	// The schedule repeatedly assigns server 2 (quiet) as leader; views
	// must nevertheless keep advancing past it.
	views := 0
	for _, rep := range c.Replicas {
		if r, ok := rep.(*hotstuff.Replica); ok {
			if int(r.View()) > views {
				views = int(r.View())
			}
		}
	}
	if views < 5 {
		t.Fatalf("views advanced only to %d under 1s rotation over 10s", views)
	}
}

// TestRotationKeepsCommitting: under the timing policy with all-correct
// servers, leadership rotates through the schedule and throughput continues.
func TestRotationKeepsCommitting(t *testing.T) {
	c := harness.NewCluster(harness.Options{
		Protocol: harness.HotStuff,
		N:        4, Clients: 6, BatchSize: 6, Seed: 4,
		VerifySignatures: true,
		ViewPolicy:       time.Second,
	})
	c.Start()
	c.Run(6 * time.Second)
	if c.Metrics.TotalTxs == 0 {
		t.Fatal("no commits under rotation")
	}
	if c.Metrics.Elections < 3 {
		t.Fatalf("leader handovers = %d, want >= 3", c.Metrics.Elections)
	}
}

// TestHotStuffSafetyUnderCrash: blocks never conflict across replicas even
// with a crashing leader mid-stream.
func TestHotStuffSafetyUnderCrash(t *testing.T) {
	c := harness.NewCluster(harness.Options{
		Protocol: harness.HotStuff,
		N:        4, Clients: 4, BatchSize: 4, Seed: 8,
		VerifySignatures: true,
		ClientTimeout:    500 * time.Millisecond,
	})
	c.Start()
	c.Run(time.Second)
	c.Crash(1)
	c.Run(8 * time.Second)
	var maxH types.SeqNum
	stores := make([]*hotstuff.Replica, 0, 4)
	for _, rep := range c.Replicas {
		if r, ok := rep.(*hotstuff.Replica); ok {
			stores = append(stores, r)
			if h := r.Store().TxHeight(); h > maxH {
				maxH = h
			}
		}
	}
	if maxH == 0 {
		t.Fatal("nothing committed")
	}
	for s := types.SeqNum(1); s <= maxH; s++ {
		var ref types.Digest
		for _, r := range stores {
			b := r.Store().TxBlock(s)
			if b == nil {
				continue
			}
			h := b.Hash()
			if ref.IsZero() {
				ref = h
			} else if h != ref {
				t.Fatalf("conflicting commit at seq %d", s)
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
	c := harness.NewCluster(harness.Options{
		Protocol: harness.HotStuff,
		N:        4, Clients: 4, BatchSize: 4, Seed: 3,
		VerifySignatures: true,
		StateMachine:     func() ledger.StateMachine { return rejectEven{} },
	})
	c.Start()
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
