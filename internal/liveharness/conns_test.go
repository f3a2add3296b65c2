package liveharness_test

import (
	"testing"
	"time"

	"prestigebft/internal/harness"
	"prestigebft/internal/liveharness"
	"prestigebft/internal/types"
)

// TestClientPlaneConnections: however many workload clients a live cluster
// runs, they share one transport, which holds one connection per server, and
// each server holds one connection back to them, which carries every
// client's Notifs. The count is checked once every client has committed, so
// every server has notified every client.
func TestClientPlaneConnections(t *testing.T) {
	if testing.Short() {
		t.Skip("live TCP cluster; skipped with -short")
	}
	const n, clients = 4, 64
	env, err := liveharness.New(harness.Options{
		N: n, Clients: clients, BatchSize: 16, Seed: 38,
		ClientTimeout: 500 * time.Millisecond,
	}, liveharness.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	env.Start()
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		done := 0
		for _, st := range env.ClientStats() {
			if st.Committed > 0 {
				done++
			}
		}
		if done == clients {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d clients committed within 30 s", done, clients)
		}
	}

	servers := make(map[string]bool, n)
	for id := types.ServerID(1); id <= n; id++ {
		_, addr := env.ServerTransport(id)
		servers[addr] = true
	}
	trs := env.ClientTransports()
	if len(trs) != 1 {
		t.Fatalf("%d clients send on %d transports, want 1", clients, len(trs))
	}
	if peers := trs[0].PeerStats(); len(peers) != n {
		t.Fatalf("the client transport has %d peers, want one per server (%d)", len(peers), n)
	}
	for id := types.ServerID(1); id <= n; id++ {
		tr, _ := env.ServerTransport(id)
		toClients := 0
		for addr := range tr.PeerStats() {
			if !servers[addr] {
				toClients++
			}
		}
		if toClients != 1 {
			t.Errorf("server %d has %d client peers, want 1", id, toClients)
		}
	}
}
