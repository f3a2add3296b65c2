package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
	"unsafe"

	"prestigebft/internal/alarm"
	"prestigebft/internal/types"
)

// collect returns a handler that forwards envelopes to a channel.
func collect() (Handler, chan *Envelope) {
	ch := make(chan *Envelope, 16)
	return func(env *Envelope) { ch <- env }, ch
}

// eventually polls cond until it holds, failing the test after five seconds.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// leakCheck returns a function that waits for the goroutine count to fall
// back to what it was when leakCheck was called. The alarm goroutine is
// permanent, so it is started before the count is taken.
func leakCheck(t *testing.T) func() {
	alarm.At(time.Now(), func() {})
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		eventually(t, "the transports' goroutines to exit", func() bool { return runtime.NumGoroutine() <= before })
	}
}

// TestRoundtrip: replication, view-change and sync messages all cross a real
// TCP link in order, with sender identity and payloads intact.
func TestRoundtrip(t *testing.T) {
	h, ch := collect()
	srv := NewServerTransport(2)
	if err := srv.Listen("127.0.0.1:0", h); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cli := NewServerTransport(1)
	defer cli.Close()

	qc := types.QC{Kind: types.QCOrdering, View: 1, Seq: 2, Digest: types.Digest{3},
		Signers: []types.ServerID{1, 2, 3}, Sigs: [][]byte{{1}, {2}, {3}}}
	msgs := []types.Message{
		&types.Prop{Tx: types.Transaction{Timestamp: 5, Client: 3, Data: []byte("abc")}, D: types.Digest{1}, Sig: []byte("s")},
		&types.Ord{From: 1, V: 2, N: 3, Txs: []types.Transaction{{Timestamp: 9, Client: 1, Data: []byte("x")}}, Sig: []byte("s")},
		&types.Cmt{From: 1, V: 1, N: 2, OrderingQC: qc, Sig: []byte("s")},
		&types.CampVC{From: 1, VPrime: 7, RP: 4, Nonce: []byte{1, 2}, Sig: []byte("s")},
		&types.VcBlockMsg{From: 1, Block: *types.GenesisVcBlock(4, 1, 1, 1), Sig: []byte("s")},
		&types.SyncResp{From: 1, Kind: types.SyncTx, TxBlocks: []types.TxBlock{*types.GenesisTxBlock()}},
	}
	for _, m := range msgs {
		if err := cli.Send(srv.Addr(), m); err != nil {
			t.Fatalf("send %T: %v", m, err)
		}
	}
	for _, want := range msgs {
		select {
		case env := <-ch:
			if env.FromServer != 1 {
				t.Fatalf("sender identity lost: %+v", env)
			}
			if reflect.TypeOf(env.Msg) != reflect.TypeOf(want) {
				t.Fatalf("got %T, want %T (in-order delivery)", env.Msg, want)
			}
			if cmt, ok := env.Msg.(*types.Cmt); ok {
				if cmt.OrderingQC.Len() != 3 || string(cmt.OrderingQC.Sigs[1]) != "\x02" {
					t.Fatalf("QC mangled in transit: %+v", cmt.OrderingQC)
				}
			}
			if vcb, ok := env.Msg.(*types.VcBlockMsg); ok {
				if !reflect.DeepEqual(vcb, want) {
					t.Fatalf("vcBlock mangled in transit:\n got %+v\nwant %+v", vcb, want)
				}
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out waiting for %T", want)
		}
	}
	// Counted when the write returns, which may be after the delivery.
	eventually(t, "the written bytes to be counted", func() bool { return cli.Stats().Bytes > 0 })

	// Payload integrity on a representative message.
	cli2 := NewClientTransport(9)
	defer cli2.Close()
	orig := &types.Prop{Tx: types.Transaction{Timestamp: 42, Client: 9, Data: []byte("payload")}, Sig: []byte("sig")}
	orig.D = orig.Tx.Digest()
	if err := cli2.Send(srv.Addr(), orig); err != nil {
		t.Fatal(err)
	}
	select {
	case env := <-ch:
		if env.FromClient != 9 {
			t.Fatalf("client identity lost: %+v", env)
		}
		got := env.Msg.(*types.Prop)
		if got.Tx.Timestamp != 42 || string(got.Tx.Data) != "payload" || got.D != orig.D {
			t.Fatalf("payload mangled: %+v", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timed out")
	}
}

// TestNonWireMessageRefused: a message the codec has no kind for fails the
// send and counts as dropped; it never reaches the socket.
func TestNonWireMessageRefused(t *testing.T) {
	h, ch := collect()
	srv := NewServerTransport(2)
	if err := srv.Listen("127.0.0.1:0", h); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := NewServerTransport(1)
	defer cli.Close()
	if err := cli.Send(srv.Addr(), foreignMsg{}); err == nil {
		t.Fatal("send of a non-wire message succeeded")
	}
	if st := cli.Stats(); st.Dropped != 1 || st.Bytes != 0 {
		t.Fatalf("stats = %+v, want Dropped=1 Bytes=0", st)
	}
	select {
	case env := <-ch:
		t.Fatalf("delivered %+v", env)
	case <-time.After(50 * time.Millisecond):
	}
}

type foreignMsg struct{}

func (foreignMsg) ProtocolMessage() {}

// TestGarbageConnectionClosed: a connection that opens with bytes that are
// not a frame — an HTTP request, the retired "PBW1" preamble, a runaway
// length, an unknown message kind — is
// closed by the receiver without a delivery. There is no second format to
// fall back to.
func TestGarbageConnectionClosed(t *testing.T) {
	h, ch := collect()
	srv := NewServerTransport(2)
	if err := srv.Listen("127.0.0.1:0", h); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	for _, garbage := range []string{
		// 'G' reads as a 71-byte frame length; the request is longer.
		"GET /metrics HTTP/1.1\r\nHost: replica-2.example\r\nUser-Agent: probe/1.0\r\nAccept: */*\r\n\r\n",
		"PBW1" + strings.Repeat("\x00", 96),            // the retired preamble: 'P' reads as an 80-byte frame
		"\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff", // overlong length varint
		"\x03\x01\x00\xee",                             // well-framed, unknown kind
	} {
		c, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Write([]byte(garbage)); err != nil {
			t.Fatal(err)
		}
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := c.Read(make([]byte, 1)); err != io.EOF && !errors.Is(err, syscall.ECONNRESET) {
			t.Fatalf("%q: read = %v, want the receiver to close the connection", garbage, err)
		}
		c.Close()
	}
	select {
	case env := <-ch:
		t.Fatalf("garbage produced a delivery: %+v", env)
	default:
	}
	if d := srv.Stats().Delivered; d != 0 {
		t.Fatalf("Delivered = %d, want 0", d)
	}
}

// failingListener fails every Accept immediately, like a process out of file
// descriptors, until closed.
type failingListener struct {
	calls  atomic.Int64
	closed chan struct{}
}

func (l *failingListener) Accept() (net.Conn, error) {
	l.calls.Add(1)
	return nil, syscall.EMFILE
}
func (l *failingListener) Close() error   { close(l.closed); return nil }
func (l *failingListener) Addr() net.Addr { return &net.TCPAddr{} }

// TestAcceptBackoff: a persistent Accept error is retried on a doubling
// pause, not in a hot spin. 5+10+20+40 ms fit in 100 ms, so the loop gets
// about five calls in; a spinning loop makes millions.
func TestAcceptBackoff(t *testing.T) {
	ln := &failingListener{closed: make(chan struct{})}
	tr := NewServerTransport(1)
	tr.serve(ln, nil)
	time.Sleep(100 * time.Millisecond)
	calls := ln.calls.Load()
	tr.Close()
	if calls < 2 || calls > 8 {
		t.Fatalf("Accept called %d times in 100ms, want a handful (backoff 5ms doubling)", calls)
	}
	select {
	case <-ln.closed:
	default:
		t.Fatal("Close did not close the listener")
	}
}

// TestDialIsBounded: a black-holed peer costs the sending goroutine — a
// replica's event loop — nothing, and its own sender at most backoffCap per
// attempt. While that dial hangs, traffic to a healthy peer flows.
func TestDialIsBounded(t *testing.T) {
	h, ch := collect()
	srv := NewServerTransport(2)
	if err := srv.Listen("127.0.0.1:0", h); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	tr := NewServerTransport(1)
	defer tr.Close()
	const peer = "192.0.2.1:7001"
	gaveUp := make(chan struct{})
	tr.BlackHole(peer, gaveUp)
	start := time.Now()
	if err := tr.Send(peer, ref(1)); err != nil {
		t.Fatal(err)
	}
	// Microseconds in practice; the bound leaves room for a loaded test host.
	if took := time.Since(start); took > 10*time.Millisecond {
		t.Fatalf("send to a black-holed peer parked the caller for %v", took)
	}
	if err := tr.Send(srv.Addr(), ref(2)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ch:
	case <-gaveUp:
		t.Fatal("the healthy peer's message waited for the black-holed peer's dial")
	}
	// The failed dial is an ordinary failure: counted, and backed off.
	<-gaveUp
	eventually(t, "the black-holed message to count as dropped", func() bool {
		return tr.PeerStats()[peer].Dropped == 1
	})
	if took := time.Since(start); took < backoffCap || took > backoffCap+time.Second {
		t.Fatalf("dial gave up after %v, want about backoffCap (%v)", took, backoffCap)
	}
	if st := tr.PeerStats()[peer]; st.Sent != 1 {
		t.Fatalf("peer stats after the failed dial: %+v, want 1 sent, 1 dropped", st)
	}
	if dead := tr.Unreachable(); len(dead) != 1 || dead[0] != peer {
		t.Fatalf("unreachable = %v, want [%s]", dead, peer)
	}
}

// stuckConn is a connection to a peer that stopped reading with its socket
// buffers full: Write blocks until Close.
type stuckConn struct {
	net.Conn
	closed chan struct{}
	once   sync.Once
}

func (c *stuckConn) Write([]byte) (int, error) {
	<-c.closed
	return 0, net.ErrClosed
}
func (c *stuckConn) Close() error { c.once.Do(func() { close(c.closed) }); return nil }

// TestStuckPeerOverflowsItsQueue: when a peer's sender is parked in write,
// sends toward it never block — the queue fills to queueCap and the overflow
// is a counted tail drop. Close then counts what was still queued, stops the
// sender, and refuses later sends.
func TestStuckPeerOverflowsItsQueue(t *testing.T) {
	noLeak := leakCheck(t)
	tr := NewServerTransport(1)
	writing := make(chan struct{})
	tr.dial = func(context.Context, string) (net.Conn, error) {
		close(writing)
		return &stuckConn{closed: make(chan struct{})}, nil
	}
	const peer = "192.0.2.1:7001"
	tr.Send(peer, ref(0))
	<-writing
	// The sender holds message 0; the queue takes the next queueCap.
	const over = 100
	start := time.Now()
	var refused int
	for i := 1; i <= queueCap+over; i++ {
		if err := tr.Send(peer, ref(i)); err != nil {
			refused++
		}
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("%d sends toward a stuck peer took %v", queueCap+over, took)
	}
	if st := tr.PeerStats()[peer]; refused != over || st.Dropped != over || st.Sent != 1+queueCap+over {
		t.Fatalf("refused %d, peer stats %+v; want %d refused and dropped of %d sent", refused, st, over, 1+queueCap+over)
	}

	tr.Close()
	if st := tr.PeerStats()[peer]; st.Dropped != 1+queueCap+over {
		t.Fatalf("after Close: %+v, want all %d messages dropped", st, 1+queueCap+over)
	}
	if err := tr.Send(peer, ref(0)); err == nil || tr.SendsAfterClose() != 1 {
		t.Fatalf("send after Close: err=%v SendsAfterClose=%d, want an error and 1", err, tr.SendsAfterClose())
	}
	noLeak()
}

// TestStalledLengthPrefixHoldsOneChunk: an unauthenticated peer that sends
// only a 64 MiB length prefix and then stalls reserves one frameChunk, not
// the announced size.
func TestStalledLengthPrefixHoldsOneChunk(t *testing.T) {
	srv := NewServerTransport(2)
	if err := srv.Listen("127.0.0.1:0", func(*Envelope) {}); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	const stalled = 8
	for i := 0; i < stalled; i++ {
		c, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.Write(binary.AppendUvarint(nil, maxFrame)); err != nil {
			t.Fatal(err)
		}
	}
	// Wait until every stalled connection is parked inside readFrame.
	deadline := time.Now().Add(5 * time.Second)
	for {
		srv.mu.Lock()
		n := len(srv.accepted)
		srv.mu.Unlock()
		if n == stalled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d connections accepted", n, stalled)
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	// Budget: the chunk plus the bufio reader and goroutine per connection,
	// doubled for slack — three orders of magnitude under 8 × 64 MiB.
	if grew, budget := int64(heap())-int64(before), int64(stalled*2*(frameChunk+8<<10)); grew > budget {
		t.Fatalf("heap grew %d bytes for %d stalled length prefixes, budget %d", grew, stalled, budget)
	}
}

// TestLargeFrameZeroCopy: a frame far larger than frameChunk is reassembled
// into one contiguous buffer that the decoded payload aliases — growing the
// buffer incrementally did not cost the zero-copy decode.
func TestLargeFrameZeroCopy(t *testing.T) {
	h, ch := collect()
	srv := NewServerTransport(2)
	if err := srv.Listen("127.0.0.1:0", h); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := NewServerTransport(1)
	defer cli.Close()

	big := make([]byte, 5*frameChunk+123)
	for i := range big {
		big[i] = byte(i * 7)
	}
	ord := &types.Ord{From: 1, V: 1, N: 1, Sig: []byte("s"), Txs: []types.Transaction{
		{Timestamp: 1, Client: 1, Data: big},
		{Timestamp: 2, Client: 1, Data: []byte("tail")},
	}}
	if err := cli.Send(srv.Addr(), ord); err != nil {
		t.Fatal(err)
	}
	select {
	case env := <-ch:
		got := env.Msg.(*types.Ord)
		if !reflect.DeepEqual(got, ord) {
			t.Fatal("large Ord mangled in transit")
		}
		// Both payloads live in the same frame buffer, in wire order: the
		// second starts a few header bytes past the end of the first.
		a, b := got.Txs[0].Data, got.Txs[1].Data
		gap := uintptr(unsafe.Pointer(&b[0])) - uintptr(unsafe.Pointer(&a[len(a)-1]))
		if gap == 0 || gap > 8 {
			t.Fatalf("payloads are %d bytes apart: decoded data was copied out of the frame", gap)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timed out")
	}
}

func TestSendToDeadPeerFails(t *testing.T) {
	cli := NewServerTransport(1)
	defer cli.Close()
	cli.Send("127.0.0.1:1", &types.Ref{From: 1, Sig: []byte("s")})
	// The loss is visible in the counters: nobody reads a send's error.
	eventually(t, "the refused dial to count as a drop", func() bool { return cli.Stats().Dropped == 1 })
	st := cli.Stats()
	if st.Sent != 1 || st.Bytes != 0 || st.Delivered != 0 {
		t.Fatalf("stats after dial failure = %+v, want Sent=1 and no bytes or deliveries", st)
	}
}

// TestStatsAccounting: successful traffic shows up in both endpoints'
// counters — Sent/Bytes on the sender, Delivered on the receiver — mirroring
// sim.Network's delivery stats. Close leaves no goroutine of either behind.
func TestStatsAccounting(t *testing.T) {
	noLeak := leakCheck(t)
	h, ch := collect()
	srv := NewServerTransport(2)
	if err := srv.Listen("127.0.0.1:0", h); err != nil {
		t.Fatal(err)
	}
	cli := NewServerTransport(1)
	defer func() {
		cli.Close()
		srv.Close()
		noLeak()
	}()

	const sends = 5
	for i := 0; i < sends; i++ {
		if err := cli.Send(srv.Addr(), &types.Ref{From: 1, V: types.View(i), Sig: []byte("s")}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < sends; i++ {
		select {
		case <-ch:
		case <-time.After(5 * time.Second):
			t.Fatal("timed out draining")
		}
	}
	cs := cli.Stats()
	if cs.Sent != sends || cs.Dropped != 0 {
		t.Fatalf("client stats = %+v, want Sent=%d Dropped=0", cs, sends)
	}
	// Counted when the write returns, which may be after the delivery.
	eventually(t, "the written bytes to be counted", func() bool { return cli.Stats().Bytes > 0 })
	ss := srv.Stats()
	if ss.Delivered != sends {
		t.Fatalf("server stats = %+v, want Delivered=%d", ss, sends)
	}
}

// TestConcurrentFirstSends: many goroutines racing the first send to a peer
// share one queue, one sender and therefore one dial.
func TestConcurrentFirstSends(t *testing.T) {
	h, ch := collect()
	srv := NewServerTransport(2)
	if err := srv.Listen("127.0.0.1:0", h); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := NewServerTransport(1)
	defer cli.Close()

	const senders = 16
	var wg sync.WaitGroup
	wg.Add(senders)
	for i := 0; i < senders; i++ {
		i := i
		go func() {
			defer wg.Done()
			if err := cli.Send(srv.Addr(), &types.Ref{From: 1, V: types.View(i), Sig: []byte("s")}); err != nil {
				t.Errorf("send %d: %v", i, err)
			}
		}()
	}
	wg.Wait()
	for i := 0; i < senders; i++ {
		select {
		case <-ch:
		case <-time.After(5 * time.Second):
			t.Fatal("timed out draining")
		}
	}
	ps := cli.PeerStats()[srv.Addr()]
	if ps.Dials != 1 || ps.Redials != 0 {
		t.Fatalf("peer stats after concurrent first sends = %+v, want Dials=1 Redials=0", ps)
	}
	if ps.Sent != senders || ps.Dropped != 0 {
		t.Fatalf("peer stats = %+v, want Sent=%d Dropped=0", ps, senders)
	}
}

// TestCachedConnRetryAfterPeerRestart: when the peer restarts, the sender's
// connection is a stale corpse whose write eventually fails; the sender must
// redial and resend that same batch once instead of losing it, and the retry
// must be visible in the per-peer counters.
func TestCachedConnRetryAfterPeerRestart(t *testing.T) {
	h, ch := collect()
	srv := NewServerTransport(2)
	if err := srv.Listen("127.0.0.1:0", h); err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	cli := NewServerTransport(1)
	defer cli.Close()

	if err := cli.Send(addr, &types.Ref{From: 1, V: 1, Sig: []byte("s")}); err != nil {
		t.Fatal(err)
	}
	<-ch
	// Restart the peer: the old listener and its accepted conns die, a new
	// listener takes over the address, and the client still holds the corpse.
	srv.Close()
	h2, ch2 := collect()
	srv2 := NewServerTransport(2)
	if err := srv2.Listen(addr, h2); err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer srv2.Close()

	// The first write after a peer restart may still land in the kernel
	// buffer before the RST arrives, so keep sending until a write fails and
	// its batch takes the redial-and-resend path.
	eventually(t, "a send to exercise the redial-and-resend path", func() bool {
		if err := cli.Send(addr, &types.Ref{From: 1, V: 7, Sig: []byte("s")}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
		return cli.PeerStats()[addr].Retries > 0
	})
	// The retried message really arrived at the restarted peer.
	gotV7 := false
	for !gotV7 {
		select {
		case env := <-ch2:
			if ref, ok := env.Msg.(*types.Ref); ok && ref.V == 7 {
				gotV7 = true
			}
		case <-time.After(5 * time.Second):
			t.Fatal("retried message never delivered to restarted peer")
		}
	}
	ps := cli.PeerStats()[addr]
	if ps.Retries == 0 || ps.Evictions == 0 || ps.Dropped != 0 {
		t.Fatalf("peer stats = %+v, want Retries>0, Evictions>0 and nothing dropped", ps)
	}
}

func TestConnectionReuseAndRecovery(t *testing.T) {
	h, ch := collect()
	srv := NewServerTransport(2)
	if err := srv.Listen("127.0.0.1:0", h); err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	cli := NewServerTransport(1)
	defer cli.Close()

	if err := cli.Send(addr, &types.Ref{From: 1, V: 1, Sig: []byte("s")}); err != nil {
		t.Fatal(err)
	}
	<-ch
	// Kill the server: sends start being lost (possibly after one buffered
	// write), then get through again once a new listener appears.
	srv.Close()
	eventually(t, "sends to the dead server to be dropped", func() bool {
		cli.Send(addr, &types.Ref{From: 1, V: 2, Sig: []byte("s")})
		time.Sleep(10 * time.Millisecond)
		return cli.Stats().Dropped > 0
	})
	srv2 := NewServerTransport(2)
	if err := srv2.Listen(addr, h); err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer srv2.Close()
	eventually(t, "the transport to recover after the listener restart", func() bool {
		cli.Send(addr, &types.Ref{From: 1, V: 3, Sig: []byte("s")})
		select {
		case <-ch:
			return true
		case <-time.After(10 * time.Millisecond):
			return false
		}
	})
}
