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

// stubCluster is a ClientHost of clients 1 and 2 facing four stub servers
// over loopback: they notify only when the test says so, and server 1
// records what each client sends it.
type stubCluster struct {
	t       *testing.T
	reg     *crypto.Registry
	keys    map[types.ServerID]*crypto.KeyPair
	servers map[types.ServerID]*transport.Transport
	got     map[types.ClientID]chan types.Message
	client  *transport.Transport
	host    *runtime.ClientHost
}

func newStubCluster(t *testing.T, timeout time.Duration) *stubCluster {
	t.Helper()
	const n, clients = 4, 2
	reg, serverKeys, clientKeys := crypto.GenerateDeployment(5, n, clients)
	reg.EnableVerifiedCache(0) // its hit+miss count is the number of verifications
	c := &stubCluster{
		t: t, reg: reg, keys: serverKeys,
		servers: make(map[types.ServerID]*transport.Transport, n),
		got:     make(map[types.ClientID]chan types.Message, clients),
		client:  transport.NewClientTransport(1),
	}
	var cfgs []client.Config
	for id := types.ClientID(1); id <= clients; id++ {
		// Room for a minute of complaints at the shortest timeout used below,
		// so server 1's reader never blocks on a slow test.
		c.got[id] = make(chan types.Message, 1024)
		cfgs = append(cfgs, client.Config{
			ID: id, Keys: clientKeys[id], Registry: reg, N: n, Timeout: timeout,
		})
	}
	var addrs []string
	for id := types.ServerID(1); id <= n; id++ {
		tr := transport.NewServerTransport(id)
		record := func(*transport.Envelope) {}
		if id == 1 {
			record = c.record
		}
		if err := tr.Listen("127.0.0.1:0", record); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(tr.Close)
		c.servers[id] = tr
		addrs = append(addrs, tr.Addr())
	}
	c.host = runtime.NewClientHost(c.client, addrs, cfgs...)
	if err := c.client.Listen("127.0.0.1:0", c.host.Deliver); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.client.Close)
	t.Cleanup(c.host.Stop)
	return c
}

// record files what server 1 receives under the client that sent it.
func (c *stubCluster) record(env *transport.Envelope) {
	var from types.ClientID
	switch m := env.Msg.(type) {
	case *types.Prop:
		from = m.Tx.Client
	case *types.Compt:
		from = m.Prop.Tx.Client
	}
	select {
	case c.got[from] <- env.Msg:
	default:
		c.t.Errorf("server 1 got a %T from client %d with its record full", env.Msg, from)
	}
}

// await returns the next message client cid sent server 1.
func (c *stubCluster) await(cid types.ClientID) types.Message {
	c.t.Helper()
	select {
	case m := <-c.got[cid]:
		return m
	case <-time.After(5 * time.Second):
		c.t.Fatalf("client %d sent nothing", cid)
		return nil
	}
}

func (c *stubCluster) awaitProp(cid types.ClientID) *types.Prop {
	c.t.Helper()
	m := c.await(cid)
	prop, ok := m.(*types.Prop)
	if !ok {
		c.t.Fatalf("client %d sent a %T, want a Prop", cid, m)
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

// TestClientHost drives real client.Clients through the host. n = 4, so the
// notification quorum f+1 is 2. Client 2 only keeps a request outstanding in
// the subtests about client 1.
func TestClientHost(t *testing.T) {
	t.Run("f+1 rejections end the request as rejected", func(t *testing.T) {
		c := newStubCluster(t, time.Minute)
		c.host.Start()
		prop := c.awaitProp(1)
		c.notify(prop.D, false, 1, 2)
		c.awaitProp(1) // the next request: the first is over
		if st := c.host.Stats()[0]; st.Rejected != 1 || st.Committed != 0 {
			t.Fatalf("rejected %d, committed %d; want 1, 0", st.Rejected, st.Committed)
		}
	})

	t.Run("a Notif for another digest is neither verified nor kept", func(t *testing.T) {
		c := newStubCluster(t, time.Minute)
		c.host.Start()
		first := c.awaitProp(1)
		// A quorum of Notifs for the client's *next* transaction, early.
		tx := types.Transaction{Timestamp: 1<<32 | 2, Client: 1, Data: make([]byte, 32)}
		early := tx.Digest()
		c.notify(early, true, 1, 2)
		// Each server's connection is FIFO, so once these two have completed
		// the first request the early ones have been seen.
		c.notify(first.D, true, 1, 2)
		if second := c.awaitProp(1); second.D != early {
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
		if st := c.host.Stats()[0]; st.Committed != 1 {
			t.Fatalf("committed %d with one Notif for the second request, want 1", st.Committed)
		}
	})

	t.Run("no Notif within the timeout: a signed Compt, and the client keeps waiting", func(t *testing.T) {
		c := newStubCluster(t, 50*time.Millisecond)
		c.host.Start()
		prop := c.awaitProp(1)
		m := c.await(1)
		compt, ok := m.(*types.Compt)
		if !ok {
			t.Fatalf("after the timeout the client sent a %T, want a Compt", m)
		}
		if compt.Prop.D != prop.D || !c.reg.VerifyClient(1, compt.SigningBytes(), compt.Sig) {
			t.Fatalf("Compt for %x (outstanding %x) does not carry the client's signature", compt.Prop.D, prop.D)
		}
		if st := c.host.Stats()[0]; st.Complaints == 0 || st.Committed != 0 {
			t.Fatalf("complaints %d, committed %d; want ≥ 1, 0", st.Complaints, st.Committed)
		}
		c.notify(prop.D, true, 1, 2)
		for {
			if next, ok := c.await(1).(*types.Prop); ok && next.D != prop.D {
				break // further Compts may precede the next request
			}
		}
		if st := c.host.Stats()[0]; st.Committed != 1 {
			t.Fatalf("committed %d once the quorum arrived, want 1", st.Committed)
		}
	})

	t.Run("both clients complete, each on its own Notifs", func(t *testing.T) {
		c := newStubCluster(t, time.Minute)
		c.host.Start()
		p1, p2 := c.awaitProp(1), c.awaitProp(2)
		if got := c.host.RouteOf(p1.D); got != 1 {
			t.Fatalf("client 1's digest routes to client %d", got)
		}
		if got := c.host.RouteOf(p2.D); got != 2 {
			t.Fatalf("client 2's digest routes to client %d", got)
		}
		// A quorum for client 1 alone: client 2 neither completes nor moves on.
		c.notify(p1.D, true, 1, 2)
		c.awaitProp(1)
		if st := c.host.Stats(); st[0].Committed != 1 || st[1].Committed != 0 {
			t.Fatalf("committed %d and %d after a quorum for client 1, want 1 and 0", st[0].Committed, st[1].Committed)
		}
		select {
		case m := <-c.got[2]:
			t.Fatalf("client 2 sent a %T on client 1's quorum", m)
		default:
		}
		c.notify(p2.D, true, 1, 2)
		c.awaitProp(2)
		if st := c.host.Stats(); st[0].Committed != 1 || st[1].Committed != 1 {
			t.Fatalf("committed %d and %d, want 1 and 1", st[0].Committed, st[1].Committed)
		}
	})

	t.Run("a Notif for an unknown digest is dropped", func(t *testing.T) {
		c := newStubCluster(t, time.Minute)
		c.host.Start()
		p1 := c.awaitProp(1)
		c.notify(types.Digest{0xde, 0xad}, true, 1, 2, 3, 4)
		// Each connection is FIFO: once servers 1 and 2 complete one request
		// and servers 3 and 4 the next, every unknown Notif has been handled.
		c.notify(p1.D, true, 1, 2)
		c.notify(c.awaitProp(1).D, true, 3, 4)
		c.awaitProp(1)
		if v := c.verifications(); v != 4 {
			t.Fatalf("%d signature checks for two quorums, want 4: an unknown digest's Notif reached a client", v)
		}
	})

	t.Run("the route table holds one entry per client", func(t *testing.T) {
		c := newStubCluster(t, time.Minute)
		c.host.Start()
		const k = 5
		for i := 0; i < k; i++ {
			// Both clients' Notifs from all four servers at once: the host's
			// four readers route them concurrently, and the late two of each
			// quorum find their digest already replaced.
			p1, p2 := c.awaitProp(1), c.awaitProp(2)
			c.notify(p1.D, true, 1, 2, 3, 4)
			c.notify(p2.D, true, 4, 3, 2, 1)
		}
		p1, p2 := c.awaitProp(1), c.awaitProp(2)
		if st := c.host.Stats(); st[0].Committed != k || st[1].Committed != k {
			t.Fatalf("committed %d and %d, want %d each", st[0].Committed, st[1].Committed, k)
		}
		if n := c.host.Routed(); n != 2 {
			t.Fatalf("route table holds %d digests after %d requests per client, want 2", n, k)
		}
		if c.host.RouteOf(p1.D) != 1 || c.host.RouteOf(p2.D) != 2 {
			t.Fatal("the route table does not hold the outstanding requests")
		}
	})

	t.Run("after Stop no Notif reaches a client", func(t *testing.T) {
		c := newStubCluster(t, time.Minute)
		c.host.Start()
		p1, p2 := c.awaitProp(1), c.awaitProp(2)
		c.host.Stop()
		c.notify(p1.D, true, 1, 2, 3, 4)
		c.notify(p2.D, true, 1, 2, 3, 4)
		time.Sleep(200 * time.Millisecond)
		if st := c.host.Stats(); st[0].Committed != 0 || st[1].Committed != 0 {
			t.Fatalf("committed %d and %d after Stop returned", st[0].Committed, st[1].Committed)
		}
		if v := c.verifications(); v != 0 {
			t.Fatalf("%d signature checks after Stop returned", v)
		}
	})

	t.Run("Stop disarms the pending timer", func(t *testing.T) {
		c := newStubCluster(t, 50*time.Millisecond)
		c.host.Start()
		c.awaitProp(1)
		c.awaitProp(2)
		c.host.Stop()
		before := c.host.Stats()
		time.Sleep(200 * time.Millisecond) // four timeouts
		for i, after := range c.host.Stats() {
			if after.Complaints != before[i].Complaints {
				t.Fatalf("client %d's complaints went from %d to %d after Stop returned", i+1, before[i].Complaints, after.Complaints)
			}
		}
	})
}
