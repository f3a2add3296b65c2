// Package transport carries protocol messages over TCP for live
// deployments (cmd/prestige-server, cmd/prestige-client, liveharness). There
// is one wire format and no negotiation: a connection is a sequence of
// frames, each a uvarint body length followed by the body — the sender's
// server and client IDs as uvarints, then one transport/codec message
// (DESIGN.md §14). Anything else on the socket closes it. The discrete-event
// simulator bypasses the package entirely.
//
// Connections are lazy and cached: the first send to a peer dials it;
// failures drop the message (BFT consensus tolerates loss — retransmission
// pressure comes from clients and timeouts), evict the cached connection,
// and arm a capped backoff so a dead peer costs one failed dial per backoff
// window instead of one per message. Identity inside the payload is
// authenticated by signatures, not by the connection.
//
// A Transport optionally routes outbound traffic through a LinkFaults layer
// (faults.go) so chaos harnesses can inject drops, latency, and partitions
// without touching the protocol stack.
package transport

import (
	"bufio"
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
// ones are: Sent counts send attempts, Delivered inbound envelopes handed to
// the handler, Dropped messages lost to dial or encode failures (including
// losses injected by a LinkFaults layer), and Bytes the outbound wire bytes
// actually written.
type Stats struct {
	Sent      uint64
	Delivered uint64
	Dropped   uint64
	Bytes     uint64
}

// PeerStats is the per-peer slice of the traffic counters, plus the
// connection-lifecycle events that used to be invisible: dials (successful
// dials of connections actually installed in the cache — a concurrent-dial
// race loser counts nothing), redials (installed dials after the first),
// evictions (cached connections discarded on encode failure), retries
// (messages re-sent over a fresh dial after their cached connection turned
// out to be a stale corpse), and backoff-refused sends (dropped without
// dialing because the peer's redial backoff window was still open).
type PeerStats struct {
	Sent           uint64
	Dropped        uint64
	Bytes          uint64
	Dials          uint64
	Redials        uint64
	Evictions      uint64
	Retries        uint64
	BackoffRefused uint64
}

// peerCounters is the mutable form of PeerStats. Every field is atomic, so
// a send resolves its peer's counters once (Transport.peer) and bumps them
// without the transport-wide lock.
type peerCounters struct {
	sent           atomic.Uint64
	dropped        atomic.Uint64
	dials          atomic.Uint64
	redials        atomic.Uint64
	evictions      atomic.Uint64
	retries        atomic.Uint64
	backoffRefused atomic.Uint64
	bytes          atomic.Uint64
}

// Redial backoff: after a send to a peer fails, further sends fail fast
// (without dialing) until the backoff window expires. The window doubles
// per consecutive failure from backoffBase up to backoffCap, and resets on
// the first successful send.
const (
	backoffBase = 25 * time.Millisecond
	backoffCap  = 500 * time.Millisecond
)

type backoffState struct {
	failures int
	until    time.Time
	capped   bool // whether the cap transition was logged this episode
}

// Transport is one process's TCP endpoint.
type Transport struct {
	self     Envelope // sender identity stamped on outbound envelopes
	listener net.Listener
	handler  Handler

	sent            atomic.Uint64
	delivered       atomic.Uint64
	dropped         atomic.Uint64
	bytes           atomic.Uint64
	sendsAfterClose atomic.Uint64

	peers  sync.Map // addr -> *peerCounters
	faults atomic.Pointer[LinkFaults]
	// dial opens an outbound connection; tests swap it for a hook.
	dial func(addr string, timeout time.Duration) (net.Conn, error)

	mu       sync.Mutex
	conns    map[string]*conn
	backoff  map[string]*backoffState
	logf     func(format string, args ...any)
	delayq   map[string]chan delayedMsg
	accepted map[net.Conn]struct{}
	closed   bool
	done     chan struct{}
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

// delayedMsg is one latency-injected message waiting in a per-peer queue.
type delayedMsg struct {
	at  time.Time
	msg types.Message
}

// delayQueueCap bounds each per-peer latency queue; overflow is dropped
// (a saturated slow link loses packets, like the real thing).
const delayQueueCap = 4096

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

type conn struct {
	mu sync.Mutex
	c  net.Conn
	cw *countingWriter
	// scratch is the reusable frame buffer; it grows to the largest frame
	// the connection has sent.
	scratch []byte
}

// encode writes env to the connection as one frame.
func (cn *conn) encode(env *Envelope) error {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	// Build the body after a MaxVarintLen64 hole, then back-fill the length
	// prefix so header+body go out in one write.
	if cap(cn.scratch) < binary.MaxVarintLen64 {
		cn.scratch = make([]byte, 0, 512)
	}
	full, err := appendEnvelope(cn.scratch[:binary.MaxVarintLen64], env)
	if err != nil {
		return err
	}
	body := full[binary.MaxVarintLen64:]
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(body)))
	start := binary.MaxVarintLen64 - n
	copy(full[start:], hdr[:n])
	cn.scratch = full[:0]
	_, err = cn.cw.Write(full[start:])
	return err
}

// appendEnvelope appends env's frame body: the sender IDs, then the message.
func appendEnvelope(buf []byte, env *Envelope) ([]byte, error) {
	buf = binary.AppendUvarint(buf, uint64(env.FromServer))
	buf = binary.AppendUvarint(buf, uint64(env.FromClient))
	out, ok := codec.Append(buf, env.Msg)
	if !ok {
		return nil, fmt.Errorf("transport: %T is not a wire message", env.Msg)
	}
	return out, nil
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

// countingWriter counts the bytes actually put on the wire, both globally
// and against the destination peer.
type countingWriter struct {
	w  net.Conn
	n  *atomic.Uint64
	pn *atomic.Uint64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n.Add(uint64(n))
	if cw.pn != nil {
		cw.pn.Add(uint64(n))
	}
	return n, err
}

func newTransport(self Envelope) *Transport {
	return &Transport{
		self:     self,
		dial:     dialTCP,
		conns:    make(map[string]*conn),
		backoff:  make(map[string]*backoffState),
		delayq:   make(map[string]chan delayedMsg),
		accepted: make(map[net.Conn]struct{}),
		done:     make(chan struct{}),
	}
}

// SetLogf installs a logger for connection-lifecycle transitions (peer
// unreachable, backoff capped, peer recovered). Transitions log once per
// episode, not once per attempt; nil (the default) silences them.
func (t *Transport) SetLogf(logf func(format string, args ...any)) {
	t.mu.Lock()
	t.logf = logf
	t.mu.Unlock()
}

// dialTCP is the production dialer: a TCP connect bounded by timeout.
func dialTCP(addr string, timeout time.Duration) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, timeout)
}

// peer returns addr's counters, creating them on first touch.
func (t *Transport) peer(addr string) *peerCounters {
	if pc, ok := t.peers.Load(addr); ok {
		return pc.(*peerCounters)
	}
	pc, _ := t.peers.LoadOrStore(addr, &peerCounters{})
	return pc.(*peerCounters)
}

// PeerStats snapshots the per-peer counters, keyed by peer address.
func (t *Transport) PeerStats() map[string]PeerStats {
	out := make(map[string]PeerStats)
	t.peers.Range(func(addr, v any) bool {
		pc := v.(*peerCounters)
		out[addr.(string)] = PeerStats{
			Sent:           pc.sent.Load(),
			Dropped:        pc.dropped.Load(),
			Bytes:          pc.bytes.Load(),
			Dials:          pc.dials.Load(),
			Redials:        pc.redials.Load(),
			Evictions:      pc.evictions.Load(),
			Retries:        pc.retries.Load(),
			BackoffRefused: pc.backoffRefused.Load(),
		}
		return true
	})
	return out
}

// SendsAfterClose counts sends refused because the transport was already
// closed — nonzero means some component kept transmitting past shutdown.
func (t *Transport) SendsAfterClose() uint64 { return t.sendsAfterClose.Load() }

// Unreachable lists the peers currently inside a redial-backoff window —
// the transport's view of "who looks dead right now", which /healthz folds
// into peer connectivity.
func (t *Transport) Unreachable() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := time.Now()
	var out []string
	for addr, bo := range t.backoff {
		if bo.failures > 0 && now.Before(bo.until) {
			out = append(out, addr)
		}
	}
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
		case <-t.done:
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
	if t.closed {
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

// Send transmits msg to the peer at addr, dialing lazily. Errors are
// returned for observability but senders may ignore them: loss is within
// the fault model. Every failure also increments the Dropped counter, so a
// deployment where sends silently vanish shows up in Stats even when the
// caller discards the error.
//
// When a LinkFaults layer is installed, injected losses return nil (the
// message was "sent" as far as the caller is concerned — the fabric ate it)
// and injected latency hands the message to a per-peer delay queue whose
// drainer transmits in send order (TCP in-order semantics preserved).
func (t *Transport) Send(addr string, msg types.Message) error {
	pc := t.peer(addr)
	t.sent.Add(1)
	pc.sent.Add(1)
	if f := t.Faults(); f != nil {
		drop, delay := f.plan(addr)
		if drop {
			t.drop(pc)
			return nil
		}
		if delay > 0 {
			t.enqueueDelayed(addr, pc, delayedMsg{at: time.Now().Add(delay), msg: msg})
			return nil
		}
	}
	return t.transmit(addr, pc, msg)
}

// drop records one dropped message globally and against the peer.
func (t *Transport) drop(pc *peerCounters) {
	t.dropped.Add(1)
	pc.dropped.Add(1)
}

// enqueueDelayed appends a latency-injected message to addr's FIFO delay
// queue, spawning its drainer on first use.
func (t *Transport) enqueueDelayed(addr string, pc *peerCounters, dm delayedMsg) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		t.drop(pc)
		t.sendsAfterClose.Add(1)
		return
	}
	q, ok := t.delayq[addr]
	if !ok {
		q = make(chan delayedMsg, delayQueueCap)
		t.delayq[addr] = q
		go t.drainDelayed(addr, pc, q)
	}
	t.mu.Unlock()
	select {
	case q <- dm:
	default:
		t.drop(pc) // saturated slow link: tail drop
	}
}

// drainDelayed transmits one peer's delayed messages in order, sleeping
// until each release time. Exits when the transport closes.
func (t *Transport) drainDelayed(addr string, pc *peerCounters, q chan delayedMsg) {
	timer := time.NewTimer(0)
	defer timer.Stop()
	for {
		select {
		case <-t.done:
			return
		case dm := <-q:
			if wait := time.Until(dm.at); wait > 0 {
				if !timer.Stop() {
					select {
					case <-timer.C:
					default:
					}
				}
				timer.Reset(wait)
				select {
				case <-t.done:
					return
				case <-timer.C:
				}
			}
			t.transmit(addr, pc, dm.msg)
		}
	}
}

// transmit performs the actual dial-and-encode, maintaining the connection
// cache and the redial backoff.
//
// An encode failure on a *cached* connection usually means the peer
// restarted since the last send and the cache held a stale corpse; an
// immediate redial would succeed, so the message gets exactly one
// redial-and-resend attempt. Fresh dials never retry (the peer just proved
// reachable — an immediate encode failure there is a real loss), and the
// retry itself never retries, so there is no loop. Dropped is counted only
// when the message is finally lost.
func (t *Transport) transmit(addr string, pc *peerCounters, msg types.Message) error {
	cn, cached, err := t.getConn(addr, pc, true)
	if err != nil {
		return err
	}
	env := t.self
	env.Msg = msg
	if err := cn.encode(&env); err == nil {
		t.noteSuccess(addr)
		return nil
	} else if !cached {
		t.dropConn(addr, pc, cn, true)
		t.noteFailure(addr)
		return fmt.Errorf("send %s: %w", addr, err)
	}
	// Stale cached connection: evict it (no drop counted yet — the message
	// is still in hand) and retry once over a fresh connection.
	t.dropConn(addr, pc, cn, false)
	pc.retries.Add(1)
	cn, _, err = t.getConn(addr, pc, false)
	if err != nil {
		return fmt.Errorf("send %s: retry: %w", addr, err)
	}
	if err := cn.encode(&env); err != nil {
		t.dropConn(addr, pc, cn, true)
		t.noteFailure(addr)
		return fmt.Errorf("send %s: retry: %w", addr, err)
	}
	t.noteSuccess(addr)
	return nil
}

// getConn returns addr's cached connection or dials a new one, installing it
// in the cache. cached reports whether the connection pre-existed this call
// (including losing a concurrent-dial race to another goroutine — only the
// installed connection's dial is counted). Dial failures count the message
// as dropped and advance the backoff window; respectBackoff=false skips the
// backoff refusal for the retry path, which must attempt its single redial
// unconditionally.
func (t *Transport) getConn(addr string, pc *peerCounters, respectBackoff bool) (cn *conn, cached bool, err error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		t.drop(pc)
		t.sendsAfterClose.Add(1)
		return nil, false, fmt.Errorf("send %s: transport closed", addr)
	}
	if cn := t.conns[addr]; cn != nil {
		t.mu.Unlock()
		return cn, true, nil
	}
	if respectBackoff {
		if bo := t.backoff[addr]; bo != nil && time.Now().Before(bo.until) {
			failures := bo.failures
			t.mu.Unlock()
			t.drop(pc)
			pc.backoffRefused.Add(1)
			return nil, false, fmt.Errorf("send %s: backing off after %d failures", addr, failures)
		}
	}
	t.mu.Unlock()

	// The caller may be a replica's event loop: a black-holed peer (SYNs
	// dropped, not refused) must cost it at most one backoff window, not the
	// OS connect timeout.
	raw, err := t.dial(addr, backoffCap)
	if err != nil {
		t.drop(pc)
		t.noteFailure(addr)
		return nil, false, fmt.Errorf("dial %s: %w", addr, err)
	}
	t.mu.Lock()
	cn = &conn{c: raw, cw: &countingWriter{w: raw, n: &t.bytes, pn: &pc.bytes}}
	switch {
	case t.closed:
		t.mu.Unlock()
		cn.c.Close()
		t.drop(pc)
		t.sendsAfterClose.Add(1)
		return nil, false, fmt.Errorf("send %s: transport closed", addr)
	case t.conns[addr] != nil:
		// Raced with a concurrent dial; use the winner. The discarded
		// connection counts nothing — only installed dials are dials.
		existing := t.conns[addr]
		t.mu.Unlock()
		cn.c.Close()
		return existing, true, nil
	default:
		if pc.dials.Add(1) > 1 {
			pc.redials.Add(1)
		}
		t.conns[addr] = cn
		t.mu.Unlock()
		return cn, false, nil
	}
}

// dropConn evicts cn from the cache (if it is still the cached connection
// for addr) and closes it. countLoss additionally records one dropped
// message globally and against the peer — false on the retry path, where
// the message is not lost yet.
func (t *Transport) dropConn(addr string, pc *peerCounters, cn *conn, countLoss bool) {
	t.mu.Lock()
	if t.conns != nil && t.conns[addr] == cn {
		delete(t.conns, addr)
		pc.evictions.Add(1)
	}
	t.mu.Unlock()
	if countLoss {
		t.drop(pc)
	}
	cn.c.Close()
}

// noteFailure advances addr's backoff window (doubling, capped), logging
// the two one-way transitions of an episode: entering backoff on the first
// failure, and hitting the cap.
func (t *Transport) noteFailure(addr string) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	bo := t.backoff[addr]
	if bo == nil {
		bo = &backoffState{}
		t.backoff[addr] = bo
	}
	bo.failures++
	d := backoffBase << (bo.failures - 1)
	if d > backoffCap || d <= 0 {
		d = backoffCap
	}
	bo.until = time.Now().Add(d)
	logf := t.logf
	entered := bo.failures == 1
	hitCap := d == backoffCap && !bo.capped
	if hitCap {
		bo.capped = true
	}
	t.mu.Unlock()
	if logf == nil {
		return
	}
	if entered {
		logf("transport: peer %s unreachable, backing off from %v", addr, backoffBase)
	}
	if hitCap {
		logf("transport: peer %s backoff capped at %v", addr, backoffCap)
	}
}

// noteSuccess clears addr's backoff state after a delivered send, logging
// the recovery transition when the peer had been failing.
func (t *Transport) noteSuccess(addr string) {
	t.mu.Lock()
	var recovered int
	if bo := t.backoff[addr]; bo != nil {
		recovered = bo.failures
		delete(t.backoff, addr)
	}
	logf := t.logf
	t.mu.Unlock()
	if recovered > 0 && logf != nil {
		logf("transport: peer %s recovered after %d failed attempts", addr, recovered)
	}
}

// Close shuts the listener and all connections — outbound and accepted
// inbound alike, so a closed transport looks like a dead process to its
// peers (their cached connections fail and evict). Sends after Close fail.
func (t *Transport) Close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	conns := t.conns
	t.conns = nil
	accepted := make([]net.Conn, 0, len(t.accepted))
	for c := range t.accepted {
		accepted = append(accepted, c)
	}
	t.mu.Unlock()
	close(t.done)
	if t.listener != nil {
		t.listener.Close()
	}
	for _, cn := range conns {
		cn.c.Close()
	}
	for _, c := range accepted {
		c.Close()
	}
}

// Addr returns the bound listen address (useful with ":0").
func (t *Transport) Addr() string {
	if t.listener == nil {
		return ""
	}
	return t.listener.Addr().String()
}
