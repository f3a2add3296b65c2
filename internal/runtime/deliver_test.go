package runtime_test

import (
	"strings"
	"sync"
	"testing"
	"time"

	"prestigebft/internal/consensus"
	"prestigebft/internal/crypto"
	"prestigebft/internal/metrics"
	"prestigebft/internal/runtime"
	"prestigebft/internal/transport"
	"prestigebft/internal/types"
)

// recorder is a replica that reports every message its event loop hands it.
type recorder struct{ got chan types.Message }

func (p *recorder) ID() types.ServerID                    { return 1 }
func (p *recorder) Init(time.Duration) []consensus.Effect { return nil }
func (p *recorder) OnMessage(_ time.Duration, _ consensus.Origin, msg types.Message) []consensus.Effect {
	p.got <- msg
	return nil
}
func (p *recorder) OnTimer(time.Duration, consensus.TimerKind, uint64) []consensus.Effect {
	return nil
}
func (p *recorder) OnPuzzleSolved(time.Duration, uint64, []byte, types.Digest) []consensus.Effect {
	return nil
}

// recordingRuntime hosts a recorder behind a runtime that pre-verifies
// against a fresh deployment's registry (verified-fact cache on). The loop
// is not started.
func recordingRuntime(t *testing.T, buffer int) (*runtime.Runtime, *recorder, *crypto.Registry, map[types.ServerID]*crypto.KeyPair) {
	t.Helper()
	reg, servers, _ := crypto.GenerateDeployment(0x5eed, 4, 2)
	reg.EnableVerifiedCache(0)
	rec := &recorder{got: make(chan types.Message, buffer)}
	rt := runtime.New(runtime.Config{
		Replica:   rec,
		Peers:     map[types.ServerID]string{},
		Transport: transport.NewServerTransport(1),
		Registry:  reg,
		Logf:      func(string, ...any) {},
	})
	t.Cleanup(rt.Stop)
	return rt, rec, reg, servers
}

func vote(from types.ServerID, n types.SeqNum, key *crypto.KeyPair) *types.OrdReply {
	m := &types.OrdReply{From: from, V: 1, N: n, D: types.Digest{7}}
	m.Sig = key.Sign(m.SigningBytes())
	return m
}

func awaitMsg(t *testing.T, rec *recorder) types.Message {
	t.Helper()
	select {
	case m := <-rec.got:
		return m
	case <-time.After(5 * time.Second):
		t.Fatal("the event loop never saw the message")
		return nil
	}
}

// awaitLoop waits for rt's event loop to report itself alive (rt needs a
// metrics registry).
func awaitLoop(tb testing.TB, rt *runtime.Runtime) {
	tb.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, _, _, ok := rt.HealthSnapshot(); ok {
			return
		}
		if time.Now().After(deadline) {
			tb.Fatal("the event loop never started")
		}
	}
}

// TestDeliverWarmsBeforeEnqueue: pre-verification is synchronous on the
// caller. When Deliver returns — the loop is not even running yet — the
// signature's fact is cached and the envelope is queued.
func TestDeliverWarmsBeforeEnqueue(t *testing.T) {
	rt, rec, reg, servers := recordingRuntime(t, 1)
	m := vote(2, 3, servers[2])
	rt.Deliver(&transport.Envelope{FromServer: 2, Msg: m})

	h0, _ := reg.CacheStats()
	if !reg.VerifyServer(m.From, m.SigningBytes(), m.Sig) {
		t.Fatal("valid signature rejected")
	}
	if h1, _ := reg.CacheStats(); h1 != h0+1 {
		t.Fatalf("the fact was not cached when Deliver returned (hits %d -> %d)", h0, h1)
	}
	go rt.Run()
	if got := awaitMsg(t, rec); got != m {
		t.Fatalf("the loop saw %#v, want the delivered vote", got)
	}
}

// TestBadSignatureStillDelivered: Deliver never filters — a message with a
// garbage signature reaches the replica, whose own verification still fails.
func TestBadSignatureStillDelivered(t *testing.T) {
	rt, rec, reg, _ := recordingRuntime(t, 1)
	go rt.Run()
	m := &types.OrdReply{From: 2, V: 1, N: 3, D: types.Digest{7}, Sig: []byte("garbage")}
	rt.Deliver(&transport.Envelope{FromServer: 2, Msg: m})
	if got := awaitMsg(t, rec); got != m {
		t.Fatalf("the loop saw %#v, want the garbage-signed vote", got)
	}
	if reg.VerifyServer(m.From, m.SigningBytes(), m.Sig) {
		t.Fatal("garbage signature accepted")
	}
}

// TestPerConnectionFIFOThroughDeliver: three peers send over real TCP at
// once; each connection's reader verifies and enqueues on its own goroutine,
// so the loop sees every sender's messages in the order they were sent.
func TestPerConnectionFIFOThroughDeliver(t *testing.T) {
	const perSender = 200
	senders := []types.ServerID{2, 3, 4}
	rt, rec, _, servers := recordingRuntime(t, perSender*len(senders))
	go rt.Run()
	srv := transport.NewServerTransport(1)
	if err := srv.Listen("127.0.0.1:0", rt.Deliver); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var wg sync.WaitGroup
	for _, id := range senders {
		tr := transport.NewServerTransport(id)
		defer tr.Close()
		wg.Add(1)
		go func(id types.ServerID) {
			defer wg.Done()
			for i := 1; i <= perSender; i++ {
				if err := tr.Send(srv.Addr(), vote(id, types.SeqNum(i), servers[id])); err != nil {
					t.Errorf("send from %d: %v", id, err)
					return
				}
			}
		}(id)
	}
	wg.Wait()

	last := map[types.ServerID]types.SeqNum{}
	for i := 0; i < perSender*len(senders); i++ {
		m := awaitMsg(t, rec).(*types.OrdReply)
		if m.N != last[m.From]+1 {
			t.Fatalf("server %d: message %d arrived after %d", m.From, m.N, last[m.From])
		}
		last[m.From] = m.N
	}
}

func scrape(t *testing.T, reg *metrics.Registry, series string) string {
	t.Helper()
	for _, line := range strings.Split(string(reg.Gather()), "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			return v
		}
	}
	t.Fatalf("no series %s", series)
	return ""
}

// TestFollowerPreverifiesStrayProps: Deliver has no notion of leadership.
// A client proposal that reaches a follower — a client without a leader
// hint broadcasts — is pre-verified there like any envelope, while the
// follower's core drops it unverified, and the leader's copy commits.
func TestFollowerPreverifiesStrayProps(t *testing.T) {
	if testing.Short() {
		t.Skip("live TCP test")
	}
	const follower, txs = types.ServerID(3), 4
	// The follower verifies against a private registry (same deployment
	// keys): a fact cached there was verified by the follower, nobody else.
	own, _, _ := crypto.GenerateDeployment(77, 4, 2)
	own.EnableVerifiedCache(0)
	mreg := metrics.NewRegistry()
	c := bootCluster(t, func(ns *nodeSetup) {
		if ns.core.ID == follower {
			ns.core.Registry, ns.rt.Registry, ns.rt.Metrics = own, own, mreg
		}
	})
	props := c.submitAndWait(t, txs)

	if got := scrape(t, mreg, "prestige_verifier_bypassed_total"); got != "0" {
		t.Errorf("the follower passed %s envelopes unverified, want 0", got)
	}
	// The follower's core drops the proposals unverified, so a fact in its
	// cache was put there by its Deliver.
	for _, p := range props {
		h0, _ := own.CacheStats()
		if !own.VerifyClient(p.Tx.Client, p.SigningBytes(), p.Sig) {
			t.Fatal("committed proposal does not verify")
		}
		if h1, _ := own.CacheStats(); h1 != h0+1 {
			t.Errorf("the follower never pre-verified proposal %x", p.D[:4])
		}
	}
}
