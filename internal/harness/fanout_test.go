package harness_test

import (
	"testing"
	"time"

	"prestigebft/internal/consensus"
	"prestigebft/internal/harness"
	"prestigebft/internal/types"
)

// clientInputs counts the messages clients deliver to one replica.
type clientInputs struct {
	consensus.Replica
	n *int
}

func (c clientInputs) OnMessage(now time.Duration, from consensus.Origin, msg types.Message) []consensus.Effect {
	if from.Client {
		*c.n++
	}
	return c.Replica.OnMessage(now, from, msg)
}

// TestClientFanOutPerCommit pins what the leader hint in Notif saves: in a
// fault-free PrestigeBFT run a client sends each proposal to the leader its
// last quorum named, so client→server messages per committed transaction
// stay at one (plus each client's first, hintless, broadcast). HotStuff's
// Notifs name no leader, so its clients keep broadcasting to all four.
func TestClientFanOutPerCommit(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		proto    harness.Protocol
		min, max float64
	}{
		{harness.PrestigeBFT, 1, 1.05},
		{harness.HotStuff, 4, 4.05},
	} {
		c := harness.NewCluster(harness.Options{Protocol: tc.proto, N: 4, Clients: 8, BatchSize: 8, Seed: 7})
		inputs := 0
		for id := types.ServerID(1); id <= 4; id++ {
			c.Host(id, func(r consensus.Replica) consensus.Replica { return clientInputs{r, &inputs} })
		}
		c.Start()
		c.Run(2 * time.Second)
		committed := 0
		for _, st := range c.ClientStats() {
			committed += st.Committed + st.Rejected
			if st.Complaints != 0 {
				t.Fatalf("%s: a client complained in a fault-free run", tc.proto)
			}
		}
		if committed < 500 {
			t.Fatalf("%s: %d transactions committed, too few to measure", tc.proto, committed)
		}
		perTx := float64(inputs) / float64(committed)
		t.Logf("%s: %.3f (%d / %d)", tc.proto, perTx, inputs, committed)
		if perTx < tc.min || perTx > tc.max {
			t.Errorf("%s: %.3f client messages per committed transaction (%d / %d), want [%.2f, %.2f]",
				tc.proto, perTx, inputs, committed, tc.min, tc.max)
		}
	}
}
