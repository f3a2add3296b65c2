package runtime_test

import (
	"testing"
	"time"

	"prestigebft/internal/client"
	"prestigebft/internal/crypto"
	"prestigebft/internal/runtime"
	"prestigebft/internal/transport"
	"prestigebft/internal/types"
)

// stubCluster is client 1's ClientHost facing four stub servers over
// loopback: they notify only when the test says so, and server 1 records
// what the client sends it.
type stubCluster struct {
	t       *testing.T
	reg     *crypto.Registry
	keys    map[types.ServerID]*crypto.KeyPair
	servers map[types.ServerID]*transport.Transport
	got     chan types.Message
	client  *transport.Transport
	host    *runtime.ClientHost
}

func newStubCluster(t *testing.T, timeout time.Duration) *stubCluster {
	t.Helper()
	const n = 4
	reg, serverKeys, clientKeys := crypto.GenerateDeployment(5, n, 1)
	reg.EnableVerifiedCache(0) // its hit+miss count is the number of verifications
	c := &stubCluster{
		t: t, reg: reg, keys: serverKeys,
		servers: make(map[types.ServerID]*transport.Transport, n),
		// Room for a request and 5 s of complaints at the shortest timeout
		// used below, so server 1's reader never blocks on a slow test.
		got:    make(chan types.Message, 128),
		client: transport.NewClientTransport(1),
	}
	var addrs []string
	for id := types.ServerID(1); id <= n; id++ {
		tr := transport.NewServerTransport(id)
		record := func(*transport.Envelope) {}
		if id == 1 {
			record = func(env *transport.Envelope) { c.got <- env.Msg }
		}
		if err := tr.Listen("127.0.0.1:0", record); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(tr.Close)
		c.servers[id] = tr
		addrs = append(addrs, tr.Addr())
	}
	c.host = runtime.NewClientHost(c.client, addrs, client.Config{
		ID: 1, Keys: clientKeys[1], Registry: reg, N: n, Timeout: timeout,
	})
	if err := c.client.Listen("127.0.0.1:0", c.host.Deliver); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.client.Close)
	t.Cleanup(c.host.Stop)
	return c
}

// await returns the next message the client sent server 1.
func (c *stubCluster) await() types.Message {
	c.t.Helper()
	select {
	case m := <-c.got:
		return m
	case <-time.After(5 * time.Second):
		c.t.Fatal("the client sent nothing")
		return nil
	}
}

func (c *stubCluster) awaitProp() *types.Prop {
	c.t.Helper()
	m := c.await()
	prop, ok := m.(*types.Prop)
	if !ok {
		c.t.Fatalf("the client sent a %T, want a Prop", m)
	}
	return prop
}

// notify sends the client a well-signed one-leaf Notif for d from each server.
func (c *stubCluster) notify(d types.Digest, status bool, from ...types.ServerID) {
	c.t.Helper()
	for _, id := range from {
		m := &types.Notif{From: id, V: 1, N: 1, TxD: d, Status: status}
		m.Sig = c.keys[id].Sign(m.SigningBytes())
		if err := c.servers[id].Send(c.client.Addr(), m); err != nil {
			c.t.Fatal(err)
		}
	}
}

// verifications is how many signature checks the client has made.
func (c *stubCluster) verifications() uint64 {
	hits, misses := c.reg.CacheStats()
	return hits + misses
}

// TestClientHost drives a real client.Client through the host. n = 4, so the
// notification quorum f+1 is 2.
func TestClientHost(t *testing.T) {
	t.Run("f+1 rejections end the request as rejected", func(t *testing.T) {
		c := newStubCluster(t, time.Minute)
		c.host.Start()
		prop := c.awaitProp()
		c.notify(prop.D, false, 1, 2)
		c.awaitProp() // the next request: the first is over
		if st := c.host.Stats(); st.Rejected != 1 || st.Committed != 0 {
			t.Fatalf("rejected %d, committed %d; want 1, 0", st.Rejected, st.Committed)
		}
	})

	t.Run("a Notif for another digest is neither verified nor kept", func(t *testing.T) {
		c := newStubCluster(t, time.Minute)
		c.host.Start()
		first := c.awaitProp()
		// A quorum of Notifs for the client's *next* transaction, early.
		tx := types.Transaction{Timestamp: 1<<32 | 2, Client: 1, Data: make([]byte, 32)}
		early := tx.Digest()
		c.notify(early, true, 1, 2)
		// Each server's connection is FIFO, so once these two have completed
		// the first request the early ones have been seen.
		c.notify(first.D, true, 1, 2)
		if second := c.awaitProp(); second.D != early {
			t.Fatalf("second request has digest %x, predicted %x", second.D, early)
		}
		if v := c.verifications(); v != 2 {
			t.Fatalf("%d signature checks after two relevant and two irrelevant Notifs, want 2", v)
		}
		// One more Notif for the now-outstanding digest: with the early pair
		// retained it would be the third and complete the request.
		c.notify(early, true, 3)
		for deadline := time.Now().Add(5 * time.Second); c.verifications() < 3; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("the client never looked at server 3's Notif")
			}
		}
		if st := c.host.Stats(); st.Committed != 1 {
			t.Fatalf("committed %d with one Notif for the second request, want 1", st.Committed)
		}
	})

	t.Run("no Notif within the timeout: a signed Compt, and the client keeps waiting", func(t *testing.T) {
		c := newStubCluster(t, 50*time.Millisecond)
		c.host.Start()
		prop := c.awaitProp()
		m := c.await()
		compt, ok := m.(*types.Compt)
		if !ok {
			t.Fatalf("after the timeout the client sent a %T, want a Compt", m)
		}
		if compt.Prop.D != prop.D || !c.reg.VerifyClient(1, compt.SigningBytes(), compt.Sig) {
			t.Fatalf("Compt for %x (outstanding %x) does not carry the client's signature", compt.Prop.D, prop.D)
		}
		if st := c.host.Stats(); st.Complaints == 0 || st.Committed != 0 {
			t.Fatalf("complaints %d, committed %d; want ≥ 1, 0", st.Complaints, st.Committed)
		}
		c.notify(prop.D, true, 1, 2)
		for {
			if next, ok := c.await().(*types.Prop); ok && next.D != prop.D {
				break // further Compts may precede the next request
			}
		}
		if st := c.host.Stats(); st.Committed != 1 {
			t.Fatalf("committed %d once the quorum arrived, want 1", st.Committed)
		}
	})

	t.Run("Stop disarms the pending timer", func(t *testing.T) {
		c := newStubCluster(t, 50*time.Millisecond)
		c.host.Start()
		c.awaitProp()
		c.host.Stop()
		before := c.host.Stats().Complaints
		time.Sleep(200 * time.Millisecond) // four timeouts
		if after := c.host.Stats().Complaints; after != before {
			t.Fatalf("complaints went from %d to %d after Stop returned", before, after)
		}
	})
}
