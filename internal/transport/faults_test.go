package transport

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"prestigebft/internal/types"
)

// ref builds a small distinct message for traffic tests.
func ref(v int) types.Message {
	return &types.Ref{From: 1, V: types.View(v), Sig: []byte("s")}
}

// TestKillAndRestartPeer is the connection-eviction regression test: a peer
// dies, the established connection must be evicted (sends are counted lost
// instead of vanishing into a dead socket forever), redials must back off
// instead of hammering the dead address, and once the peer restarts on the
// same address the transport must recover without any process restart.
func TestKillAndRestartPeer(t *testing.T) {
	h, ch := collect()
	srv := NewServerTransport(2)
	if err := srv.Listen("127.0.0.1:0", h); err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	cli := NewServerTransport(1)
	defer cli.Close()
	stats := func() PeerStats { return cli.PeerStats()[addr] }

	if err := cli.Send(addr, ref(1)); err != nil {
		t.Fatal(err)
	}
	<-ch

	// Kill the peer. The next write may succeed into the kernel buffer,
	// but within a bounded window a write must fail and evict the conn.
	srv.Close()
	eventually(t, "the dead peer's connection to be evicted and a send dropped", func() bool {
		cli.Send(addr, ref(2))
		time.Sleep(10 * time.Millisecond)
		return stats().Evictions > 0 && stats().Dropped > 0
	})
	eventually(t, "the dead peer to be listed unreachable", func() bool {
		cli.Send(addr, ref(2)) // a send after a window expires re-opens it, longer
		dead := cli.Unreachable()
		return len(dead) == 1 && dead[0] == addr
	})

	// While the peer stays dead, redials are rate-limited: messages sent
	// inside the backoff window are dropped without a dial.
	dials := stats().Dials
	eventually(t, "a send to be refused by the redial backoff", func() bool {
		cli.Send(addr, ref(3))
		return stats().BackoffRefused > 0
	})
	if d := stats().Dials; d != dials {
		t.Fatalf("dials went %d -> %d while the peer was dead", dials, d)
	}

	// Restart the peer on the same address: the transport must redial
	// (after at most the capped backoff) and deliver again.
	srv2 := NewServerTransport(2)
	if err := srv2.Listen(addr, h); err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer srv2.Close()
	eventually(t, "the transport to recover after the peer restarted", func() bool {
		cli.Send(addr, ref(4))
		select {
		case <-ch:
			return true
		case <-time.After(20 * time.Millisecond):
			return false
		}
	})
	if dead := cli.Unreachable(); len(dead) != 0 {
		t.Fatalf("unreachable = %v after recovery", dead)
	}
}

// TestSendAfterCloseFails: a closed transport refuses sends instead of
// panicking on its torn-down connection cache (a crashed replica's event
// loop can race one last send against the teardown).
func TestSendAfterCloseFails(t *testing.T) {
	cli := NewServerTransport(1)
	cli.Close()
	if err := cli.Send("127.0.0.1:1", ref(1)); err == nil {
		t.Fatal("send on a closed transport succeeded")
	}
	if n, st := cli.SendsAfterClose(), cli.Stats(); n != 1 || st.Sent != 1 || st.Dropped != 1 {
		t.Fatalf("SendsAfterClose = %d, stats %+v; want 1 send, refused and dropped", n, st)
	}
	cli.Close() // double Close must be a no-op
}

// TestLinkFaultsBlock: a blocked link eats every message silently (nil
// error — the fabric, not the caller, lost it) and counts it as dropped;
// unblocking restores delivery.
func TestLinkFaultsBlock(t *testing.T) {
	h, ch := collect()
	srv := NewServerTransport(2)
	if err := srv.Listen("127.0.0.1:0", h); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := NewServerTransport(1)
	defer cli.Close()
	lf := NewLinkFaults(1)
	cli.SetFaults(lf)

	lf.SetBlocked(srv.Addr(), true)
	for i := 0; i < 5; i++ {
		if err := cli.Send(srv.Addr(), ref(i)); err != nil {
			t.Fatalf("blocked send returned error %v, want silent loss", err)
		}
	}
	select {
	case env := <-ch:
		t.Fatalf("blocked link delivered %T", env.Msg)
	case <-time.After(200 * time.Millisecond):
	}
	if st := cli.Stats(); st.Dropped != 5 || st.Sent != 5 {
		t.Fatalf("stats = %+v, want Sent=5 Dropped=5", st)
	}

	lf.SetBlocked(srv.Addr(), false)
	if err := cli.Send(srv.Addr(), ref(9)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatal("healed link did not deliver")
	}
}

// TestLinkFaultsDropRate: a degraded link loses roughly the configured
// fraction of messages, and Restore returns it to lossless.
func TestLinkFaultsDropRate(t *testing.T) {
	h, ch := collect()
	srv := NewServerTransport(2)
	if err := srv.Listen("127.0.0.1:0", h); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := NewServerTransport(1)
	defer cli.Close()
	lf := NewLinkFaults(42)
	cli.SetFaults(lf)
	lf.Degrade(0, 0, 0.5)

	const sends = 400
	for i := 0; i < sends; i++ {
		cli.Send(srv.Addr(), ref(i))
	}
	dropped := cli.Stats().Dropped
	if dropped < sends/4 || dropped > sends*3/4 {
		t.Fatalf("50%% drop rate lost %d of %d", dropped, sends)
	}
	// Drain what survived.
	for i := uint64(0); i < sends-dropped; i++ {
		select {
		case <-ch:
		case <-time.After(5 * time.Second):
			t.Fatalf("only drained %d of %d surviving messages", i, sends-dropped)
		}
	}

	lf.Restore()
	before := cli.Stats().Dropped
	for i := 0; i < 50; i++ {
		if err := cli.Send(srv.Addr(), ref(i)); err != nil {
			t.Fatal(err)
		}
	}
	if after := cli.Stats().Dropped; after != before {
		t.Fatalf("restored link still dropped %d messages", after-before)
	}
}

// TestLinkFaultsLatencyOrdering: injected jittery latency delays messages
// but per-peer delivery stays in send order, matching the simulator's TCP
// in-order semantics — also across the moment the latency goes away, when
// undelayed messages are sent while delayed ones are still waiting.
func TestLinkFaultsLatencyOrdering(t *testing.T) {
	h, ch := collect()
	srv := NewServerTransport(2)
	if err := srv.Listen("127.0.0.1:0", h); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := NewServerTransport(1)
	defer cli.Close()
	lf := NewLinkFaults(7)
	cli.SetFaults(lf)
	lf.Degrade(20*time.Millisecond, 15*time.Millisecond, 0)

	const delayed, sends = 30, 2000
	start := time.Now()
	go func() {
		for i := 0; i < sends; i++ {
			if i == delayed {
				lf.Restore()
			}
			if err := cli.Send(srv.Addr(), ref(i)); err != nil {
				t.Error(err)
				return
			}
			if i > delayed {
				// Keep sending across the instant the last delayed message
				// is released.
				time.Sleep(50 * time.Microsecond)
			}
		}
	}()
	for i := 0; i < sends; i++ {
		select {
		case env := <-ch:
			if v := int(env.Msg.(*types.Ref).V); v != i {
				t.Fatalf("delivery out of order: got %d, want %d", v, i)
			}
			if i == delayed-1 && time.Since(start) < 15*time.Millisecond {
				t.Fatalf("%d messages with ~20ms injected latency arrived in %v — latency not applied", delayed, time.Since(start))
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("timed out after %d deliveries", i)
		}
	}
}

// TestLinkDelayPrecision: an injected link delay costs the delay and the
// alarm's wake-up, not the delay rounded up to the netpoller's next
// millisecond. Delays are drawn from 2–3 ms because a time.Timer's lateness
// depends on the sub-millisecond part of what it waits for (an idle process
// sleeps the whole milliseconds, then one more for the rest): a sender
// sleeping on one delivered a median ≈ 0.7 ms late here. Sends are sequential,
// so the process is idle while each one waits: the state a latency-bound
// replica is in.
func TestLinkDelayPrecision(t *testing.T) {
	if runtime.GOOS != "linux" || raceEnabled || testing.Short() {
		t.Skip("timing: needs the timerfd alarm, no race instrumentation, and time")
	}
	arrived := make(chan time.Time, 1)
	srv := NewServerTransport(2)
	if err := srv.Listen("127.0.0.1:0", func(*Envelope) { arrived <- time.Now() }); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := NewServerTransport(1)
	defer cli.Close()
	lf := NewLinkFaults(1)
	var delay time.Duration // of the message in flight
	lf.SetBase(func(rng *rand.Rand) time.Duration {
		delay = 2*time.Millisecond + time.Duration(rng.Int63n(int64(time.Millisecond)))
		return delay
	}, 0)
	cli.SetFaults(lf)

	const n = 300
	late := make([]time.Duration, 0, n)
	for i := 0; i <= n; i++ {
		sent := time.Now()
		if err := cli.Send(srv.Addr(), ref(i)); err != nil {
			t.Fatal(err)
		}
		select {
		case at := <-arrived:
			if i > 0 { // the first send also dials
				late = append(late, at.Sub(sent)-delay)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("message %d never arrived", i)
		}
	}
	slices.Sort(late)
	t.Logf("handler − (send + delay): min %v p50 %v p90 %v max %v", late[0], late[n/2], late[n*9/10], late[n-1])
	if late[0] < 0 {
		t.Fatalf("a message arrived %v before its delay was up", -late[0])
	}
	if med := late[n/2]; med > 400*time.Microsecond {
		t.Fatalf("median delivery %v after the delay, want ≤ 400µs", med)
	}
}

// TestLinkFaultsPerPeer: a block is per peer — it cuts one link without
// touching the others (a partition's shape).
func TestLinkFaultsPerPeer(t *testing.T) {
	h1, ch1 := collect()
	srvA := NewServerTransport(2)
	if err := srvA.Listen("127.0.0.1:0", h1); err != nil {
		t.Fatal(err)
	}
	defer srvA.Close()
	h2, ch2 := collect()
	srvB := NewServerTransport(3)
	if err := srvB.Listen("127.0.0.1:0", h2); err != nil {
		t.Fatal(err)
	}
	defer srvB.Close()

	cli := NewServerTransport(1)
	defer cli.Close()
	lf := NewLinkFaults(3)
	cli.SetFaults(lf)
	lf.SetBlocked(srvA.Addr(), true)

	for i := 0; i < 10; i++ {
		cli.Send(srvA.Addr(), ref(i))
		cli.Send(srvB.Addr(), ref(i))
	}
	for i := 0; i < 10; i++ {
		select {
		case <-ch2:
		case <-time.After(5 * time.Second):
			t.Fatal("unaffected peer missed deliveries")
		}
	}
	select {
	case <-ch1:
		t.Fatal("blocked peer still received a message")
	case <-time.After(100 * time.Millisecond):
	}
	lf.SetBlocked(srvA.Addr(), false)
	if err := cli.Send(srvA.Addr(), ref(99)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ch1:
	case <-time.After(5 * time.Second):
		t.Fatal("unblocking the peer did not restore delivery")
	}
}

// TestLatencySamplerAdapts: the sampler seam accepts any distribution.
func TestLatencySamplerAdapts(t *testing.T) {
	lf := NewLinkFaults(1)
	lf.SetBase(func(rng *rand.Rand) time.Duration { return 3 * time.Millisecond }, 0)
	drop, delay := lf.plan("x")
	if drop || delay < 3*time.Millisecond {
		t.Fatalf("base sampler ignored: drop=%v delay=%v", drop, delay)
	}
}
