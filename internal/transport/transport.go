// Package transport carries protocol messages over TCP for live
// deployments (cmd/prestige-server, cmd/prestige-client, liveharness). There
// is one wire format and no negotiation: a connection is a sequence of
// frames, each a uvarint body length followed by the body — the sender's
// server and client IDs as uvarints, then one transport/codec message
// (DESIGN.md §14). Anything else on the socket closes it. Identity inside the
// payload is authenticated by signatures, not by the connection. The
// discrete-event simulator bypasses the package entirely.
//
// # Outbound path
//
// Broadcast (Send is the one-destination case) encodes the frame once, asks
// the optional LinkFaults layer (faults.go) for each destination's fate, and
// appends {release time, frame} to that peer's queue. It never dials, writes
// or waits. Each peer has one sender goroutine that alone owns the peer's
// connection: it dials on demand, writes every queued frame whose release
// time has passed in one write, and keeps the peer's redial backoff. A
// message with no injected latency has a zero release time, so delayed and
// undelayed traffic share the queue and leave it in send order. A sender
// whose queue's head is not yet due sleeps until an alarm (internal/alarm)
// pokes it at the release time, which keeps an emulated 2 ms hop at 2 ms.
//
// A queue holds at most queueCap frames; a send to a full queue is dropped
// and counted (tail drop). A frame whose dial fails, or that is dequeued
// while the peer's backoff window is open, is dropped and counted rather than
// held: BFT consensus tolerates loss, and stale votes are worth less than
// none. A write error on an established connection usually means the peer
// restarted, so the batch in hand gets exactly one redial-and-resend. All of
// this is inside the protocol's fault model — clients re-broadcast, timers
// complain, SyncReq catches a lagging replica up.
//
// Because callers only enqueue, a replica's event loop keeps handling
// view-change traffic while a peer is dead, slow or black-holed, and two
// replicas with full event queues can no longer park each other in write.
package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"prestigebft/internal/transport/codec"
	"prestigebft/internal/types"
)

// Envelope frames every message with its sender.
type Envelope struct {
	FromServer types.ServerID
	FromClient types.ClientID
	Msg        types.Message
}

// Handler consumes inbound envelopes.
type Handler func(env *Envelope)

// Stats is a snapshot of a transport's traffic counters, mirroring
// sim.Network's so live deployments are observable the same way simulated
// ones are: Sent counts send attempts (one per destination), Delivered
// inbound envelopes handed to the handler, Dropped messages that never reached
// the wire (encode, dial and write failures, a full or closed queue, losses
// injected by a LinkFaults layer), and Bytes the outbound wire bytes actually
// written.
type Stats struct {
	Sent      uint64
	Delivered uint64
	Dropped   uint64
	Bytes     uint64
}

// Transport is one process's TCP endpoint.
type Transport struct {
	self     Envelope // sender identity stamped on outbound frames
	listener net.Listener
	handler  Handler

	sent            atomic.Uint64
	delivered       atomic.Uint64
	dropped         atomic.Uint64
	bytes           atomic.Uint64
	sendsAfterClose atomic.Uint64

	peers  sync.Map // addr -> *peer
	faults atomic.Pointer[LinkFaults]
	// onRelease, when set, is told how long after its release time each
	// delayed frame left its queue.
	onRelease atomic.Pointer[func(late time.Duration)]
	// dial opens an outbound connection, giving up when ctx ends; tests swap
	// it for a hook.
	dial func(ctx context.Context, addr string) (net.Conn, error)

	// ctx ends at Close: that fails pending dials and closes every outbound
	// connection, which frees a sender parked in either.
	ctx     context.Context
	cancel  context.CancelFunc
	senders sync.WaitGroup

	mu       sync.Mutex // guards logf and accepted, and orders starting a sender against Close
	logf     func(format string, args ...any)
	accepted map[net.Conn]struct{}
}

// WireCodec, CodecBinary and SetWireCodec are a one-value shim for
// benchmark/replay.go, which names them and cannot change in the PR that
// removed the second format. Delete with the next benchmark PR.
type WireCodec int

// CodecBinary is the only wire format.
const CodecBinary WireCodec = 1

// SetWireCodec is a no-op: there is nothing left to select.
func (t *Transport) SetWireCodec(WireCodec) {}

// maxFrame bounds one frame (64 MiB) so a corrupt or hostile length prefix
// is refused outright.
const maxFrame = 1 << 26

// frameChunk is the most a frame's buffer grows ahead of the bytes that have
// actually arrived: a peer that announces a large frame and stalls holds this
// much, not the announced size.
const frameChunk = 64 << 10

// Stats returns a consistent-enough snapshot of the traffic counters (each
// counter is individually atomic).
func (t *Transport) Stats() Stats {
	return Stats{
		Sent:      t.sent.Load(),
		Delivered: t.delivered.Load(),
		Dropped:   t.dropped.Load(),
		Bytes:     t.bytes.Load(),
	}
}

// encode builds msg's frame: the uvarint body length, then the sender IDs
// and the message.
func (t *Transport) encode(msg types.Message) ([]byte, error) {
	// Build the body after a MaxVarintLen64 hole, then back-fill the length
	// prefix so the frame is one contiguous slice.
	const hole = binary.MaxVarintLen64
	buf := make([]byte, hole, hole+16+msg.WireSize())
	buf = binary.AppendUvarint(buf, uint64(t.self.FromServer))
	buf = binary.AppendUvarint(buf, uint64(t.self.FromClient))
	buf, ok := codec.Append(buf, msg)
	if !ok {
		return nil, fmt.Errorf("transport: %T is not a wire message", msg)
	}
	var hdr [hole]byte
	n := binary.PutUvarint(hdr[:], uint64(len(buf)-hole))
	copy(buf[hole-n:], hdr[:n])
	return buf[hole-n:], nil
}

// decodeEnvelope parses one frame body. The decoded message aliases buf (the
// codec is zero-copy), so each frame gets its own buffer.
func decodeEnvelope(buf []byte) (*Envelope, error) {
	fromServer, n := binary.Uvarint(buf)
	if n <= 0 {
		return nil, fmt.Errorf("transport: bad frame sender")
	}
	buf = buf[n:]
	fromClient, n := binary.Uvarint(buf)
	if n <= 0 {
		return nil, fmt.Errorf("transport: bad frame sender")
	}
	msg, err := codec.Decode(buf[n:])
	if err != nil {
		return nil, err
	}
	return &Envelope{FromServer: types.ServerID(fromServer), FromClient: types.ClientID(fromClient), Msg: msg}, nil
}

func newTransport(self Envelope) *Transport {
	t := &Transport{self: self, dial: dialTCP, accepted: make(map[net.Conn]struct{})}
	t.ctx, t.cancel = context.WithCancel(context.Background())
	return t
}

// SetLogf installs a logger for connection-lifecycle transitions (peer
// unreachable, backoff capped, peer recovered). Transitions log once per
// episode, not once per attempt; nil (the default) silences them.
func (t *Transport) SetLogf(logf func(format string, args ...any)) {
	t.mu.Lock()
	t.logf = logf
	t.mu.Unlock()
}

func (t *Transport) log(format string, args ...any) {
	t.mu.Lock()
	logf := t.logf
	t.mu.Unlock()
	if logf != nil {
		logf(format, args...)
	}
}

// dialTCP is the production dialer.
func dialTCP(ctx context.Context, addr string) (net.Conn, error) {
	var d net.Dialer
	return d.DialContext(ctx, "tcp", addr)
}

// peer returns addr's queue and counters, creating them and starting the
// sender on first touch.
func (t *Transport) peer(addr string) *peer {
	if p, ok := t.peers.Load(addr); ok {
		return p.(*peer)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if p, ok := t.peers.Load(addr); ok {
		return p.(*peer)
	}
	p := &peer{t: t, addr: addr, wake: make(chan struct{}, 1), closed: t.ctx.Err() != nil}
	if !p.closed {
		t.senders.Add(1)
		go p.run()
	}
	t.peers.Store(addr, p)
	return p
}

// PeerStats snapshots the per-peer counters, keyed by peer address.
func (t *Transport) PeerStats() map[string]PeerStats {
	out := make(map[string]PeerStats)
	t.peers.Range(func(addr, v any) bool {
		out[addr.(string)] = v.(*peer).stats()
		return true
	})
	return out
}

// SendsAfterClose counts sends refused because the transport was already
// closed — nonzero means some component kept sending past shutdown.
func (t *Transport) SendsAfterClose() uint64 { return t.sendsAfterClose.Load() }

// Unreachable lists the peers currently inside a redial-backoff window —
// the transport's view of "who looks dead right now", which /healthz folds
// into peer connectivity.
func (t *Transport) Unreachable() []string {
	now := time.Now().UnixNano()
	var out []string
	t.peers.Range(func(addr, v any) bool {
		if now < v.(*peer).deadUntil.Load() {
			out = append(out, addr.(string))
		}
		return true
	})
	return out
}

// NewServerTransport creates a transport that stamps outbound messages with
// a server identity.
func NewServerTransport(id types.ServerID) *Transport {
	return newTransport(Envelope{FromServer: id})
}

// NewClientTransport creates a transport that stamps outbound messages with
// a client identity.
func NewClientTransport(id types.ClientID) *Transport {
	return newTransport(Envelope{FromClient: id})
}

// SetFaults routes outbound sends through a fault-injection layer (nil
// removes it). Install before traffic starts; swapping mid-flight is safe.
func (t *Transport) SetFaults(f *LinkFaults) { t.faults.Store(f) }

// Faults returns the installed fault layer (nil when none).
func (t *Transport) Faults() *LinkFaults { return t.faults.Load() }

// ObserveReleases installs fn to receive, for every frame that carried a
// release time, how long after it the peer's sender took the frame off the
// queue. fn runs on sender goroutines.
func (t *Transport) ObserveReleases(fn func(late time.Duration)) { t.onRelease.Store(&fn) }

// Listen accepts inbound connections on addr and feeds envelopes to h.
func (t *Transport) Listen(addr string, h Handler) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	t.serve(ln, h)
	return nil
}

// serve starts the accept loop on an already-bound listener.
func (t *Transport) serve(ln net.Listener, h Handler) {
	t.listener = ln
	t.handler = h
	go t.acceptLoop()
}

// Accept-error backoff: a persistent Accept failure (EMFILE, ENFILE, ...)
// retries after a pause that doubles from acceptBackoffBase to
// acceptBackoffCap and resets on the first success, like net/http's Serve.
const (
	acceptBackoffBase = 5 * time.Millisecond
	acceptBackoffCap  = time.Second
)

func (t *Transport) acceptLoop() {
	var pause time.Duration
	for {
		c, err := t.listener.Accept()
		if err == nil {
			pause = 0
			go t.readLoop(c)
			continue
		}
		if pause == 0 {
			pause = acceptBackoffBase
		} else if pause *= 2; pause > acceptBackoffCap {
			pause = acceptBackoffCap
		}
		select {
		case <-t.ctx.Done():
			return
		case <-time.After(pause):
		}
	}
}

// readLoop drains length-prefixed frames from an accepted connection until
// it fails, misframes, or carries an undecodable message — any of which
// closes it. Each frame is read into its own buffer, which the decoded
// message then owns (the codec aliases it instead of copying).
func (t *Transport) readLoop(c net.Conn) {
	t.mu.Lock()
	if t.ctx.Err() != nil {
		t.mu.Unlock()
		c.Close()
		return
	}
	t.accepted[c] = struct{}{}
	t.mu.Unlock()
	defer func() {
		t.mu.Lock()
		delete(t.accepted, c)
		t.mu.Unlock()
		c.Close()
	}()
	br := bufio.NewReader(c)
	for {
		size, err := binary.ReadUvarint(br)
		if err != nil || size > maxFrame {
			return
		}
		buf, err := readFrame(br, int(size))
		if err != nil {
			return
		}
		env, err := decodeEnvelope(buf)
		if err != nil {
			return
		}
		if t.handler != nil {
			t.delivered.Add(1)
			t.handler(env)
		}
	}
}

// readFrame reads a size-byte frame body into one contiguous buffer without
// trusting size up front: the buffer starts at frameChunk and doubles only
// as bytes arrive, so memory held tracks data received, not data announced.
func readFrame(r io.Reader, size int) ([]byte, error) {
	buf := make([]byte, min(size, frameChunk))
	for n := 0; ; {
		if _, err := io.ReadFull(r, buf[n:]); err != nil {
			return nil, err
		}
		if n = len(buf); n == size {
			return buf, nil
		}
		grown := make([]byte, n+min(n, size-n))
		copy(grown, buf)
		buf = grown
	}
}

// Send queues msg for the peer at addr: Broadcast to one destination.
func (t *Transport) Send(addr string, msg types.Message) error {
	return t.Broadcast([]string{addr}, msg)
}

// Broadcast queues msg for every peer in addrs, encoding it once. It never
// touches a socket: what happens to a queued frame afterwards (dial failure,
// backoff, write error) shows only in the counters and the lifecycle log.
// The returned error is the first synchronous refusal — msg is not a wire
// message, the transport is closed, or a peer's queue is full — and may be
// ignored: every refusal also counts as Dropped, and loss is within the fault
// model. Losses injected by a LinkFaults layer return nil (the fabric ate the
// message, not the caller).
func (t *Transport) Broadcast(addrs []string, msg types.Message) error {
	frame, err := t.encode(msg)
	faults := t.Faults()
	t.sent.Add(uint64(len(addrs)))
	// The send instant, read when the first delay is drawn: every copy of msg
	// delayed by the same amount comes due together, and one alarm wake-up
	// releases them all.
	var now time.Time
	for _, addr := range addrs {
		p := t.peer(addr)
		p.sent.Add(1)
		if frame == nil {
			p.drop(1)
			continue
		}
		var releaseAt time.Time
		if faults != nil {
			lost, delay := faults.plan(addr)
			if lost {
				p.drop(1)
				continue
			}
			if delay > 0 {
				if now.IsZero() {
					now = time.Now()
				}
				releaseAt = now.Add(delay)
			}
		}
		if qerr := p.enqueue(queued{releaseAt, frame}); err == nil {
			err = qerr
		}
	}
	return err
}

// Close shuts the listener, every connection — outbound and accepted inbound
// alike, so a closed transport looks like a dead process to its peers — and
// every sender, counting what was still queued as dropped. It returns once
// the senders have exited. Sends after Close fail.
func (t *Transport) Close() {
	t.mu.Lock()
	// Queues first, so a sender that the cancel frees finds nothing to redial for.
	t.peers.Range(func(_, p any) bool { p.(*peer).close(); return true })
	t.cancel()
	accepted := make([]net.Conn, 0, len(t.accepted))
	for c := range t.accepted {
		accepted = append(accepted, c)
	}
	t.mu.Unlock()
	if t.listener != nil {
		t.listener.Close()
	}
	for _, c := range accepted {
		c.Close()
	}
	t.senders.Wait()
}

// Addr returns the bound listen address (useful with ":0").
func (t *Transport) Addr() string {
	if t.listener == nil {
		return ""
	}
	return t.listener.Addr().String()
}
