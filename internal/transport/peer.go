package transport

import (
	"context"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"prestigebft/internal/alarm"
)

// PeerStats is the per-peer slice of the traffic counters, plus the
// connection-lifecycle events: dials (successful dials), redials (dials after
// the first), evictions (established connections discarded on a write
// failure), retries (messages re-sent over a fresh dial after their
// connection turned out to be a stale corpse), and backoff-refused messages
// (dropped without dialing because the peer's redial backoff window was
// still open).
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

// peerCounters is the mutable form of PeerStats.
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

// Redial backoff: after a dial or write to a peer fails, its sender drops
// what it dequeues (without dialing) until the backoff window expires. The
// window doubles per consecutive failure from backoffBase up to backoffCap,
// and resets on the first successful write. backoffCap also bounds one dial,
// so a black-holed peer (SYNs dropped, not refused) holds its sender for one
// window per attempt, not the OS connect timeout.
const (
	backoffBase = 25 * time.Millisecond
	backoffCap  = 500 * time.Millisecond
)

// queueCap bounds each peer's queue; overflow is dropped (a saturated link
// loses packets, like the real thing).
const queueCap = 4096

// queued is one frame waiting for its peer's sender.
type queued struct {
	releaseAt time.Time // when injected latency lets it go; zero when none
	frame     []byte    // shared by every destination of one Broadcast: read-only
}

// peer is one destination: a bounded FIFO of frames and the sender goroutine
// (run) that drains it. Everything below the queue belongs to that goroutine.
type peer struct {
	t    *Transport
	addr string
	peerCounters

	mu     sync.Mutex // guards queue and closed; never held across I/O
	queue  []queued
	closed bool          // the transport has closed
	wake   chan struct{} // tells the sender to look at the queue again

	// deadUntil is the end of the open backoff window (UnixNano), zero when
	// the peer is healthy. Written by the sender, read by Unreachable.
	deadUntil atomic.Int64

	late     []time.Duration // release lateness of what take just released
	conn     net.Conn
	unhook   func() bool // detaches conn from the transport's ctx
	failures int         // consecutive failed attempts
	capped   bool        // whether the cap transition was logged this episode
}

func (p *peer) stats() PeerStats {
	return PeerStats{
		Sent:           p.sent.Load(),
		Dropped:        p.dropped.Load(),
		Bytes:          p.bytes.Load(),
		Dials:          p.dials.Load(),
		Redials:        p.redials.Load(),
		Evictions:      p.evictions.Load(),
		Retries:        p.retries.Load(),
		BackoffRefused: p.backoffRefused.Load(),
	}
}

// drop records n lost messages globally and against the peer.
func (p *peer) drop(n uint64) {
	p.t.dropped.Add(n)
	p.dropped.Add(n)
}

// enqueue appends q to the queue without blocking; a full or closed queue
// refuses it, counted as dropped.
func (p *peer) enqueue(q queued) error {
	p.mu.Lock()
	closed, full := p.closed, len(p.queue) >= queueCap
	if !closed && !full {
		p.queue = append(p.queue, q)
	}
	p.mu.Unlock()
	switch {
	case closed:
		p.t.sendsAfterClose.Add(1)
		p.drop(1)
		return fmt.Errorf("send %s: transport closed", p.addr)
	case full:
		p.drop(1)
		return fmt.Errorf("send %s: queue full", p.addr)
	}
	p.poke()
	return nil
}

// take moves the frames at the head of the queue whose release time has
// passed into batch, noting in p.late how long ago each passed, and reports
// when the new head is due (zero when the queue is empty) and whether the
// transport has closed. A frame never passes the one queued before it,
// whatever their release times.
func (p *peer) take(batch [][]byte) (_ [][]byte, due time.Time, closed bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var now time.Time // read only if there is a release time to compare it with
	k := 0
	for ; k < len(p.queue); k++ {
		if at := p.queue[k].releaseAt; !at.IsZero() {
			if now.IsZero() {
				now = time.Now()
			}
			if at.After(now) {
				due = at
				break
			}
			p.late = append(p.late, now.Sub(at))
		}
		batch = append(batch, p.queue[k].frame)
	}
	n := copy(p.queue, p.queue[k:])
	clear(p.queue[n:])
	p.queue = p.queue[:n]
	return batch, due, p.closed
}

// run is the sender: it writes what the queue releases and sleeps until the
// queue grows, its head comes due, or the transport closes. The head's release
// is an alarm that pokes the sender, kept for as long as the head stays.
func (p *peer) run() {
	defer p.t.senders.Done()
	var al *alarm.Alarm
	var aimed time.Time // what al was made for; zero when there is none
	defer func() { al.Stop() }()
	var batch [][]byte
	for {
		var due time.Time
		var closed bool
		batch, due, closed = p.take(batch[:0])
		p.reportLate()
		switch {
		case closed:
			return
		case len(batch) > 0:
			p.flush(batch)
			clear(batch)
			continue
		case !due.Equal(aimed):
			al.Stop()
			al, aimed = nil, due
			if !due.IsZero() {
				al = alarm.At(due, p.poke)
			}
		}
		<-p.wake
	}
}

// reportLate tells the transport's observer how late take found each released
// frame, outside the queue's lock.
func (p *peer) reportLate() {
	if len(p.late) == 0 {
		return
	}
	if fn := p.t.onRelease.Load(); fn != nil {
		for _, d := range p.late {
			(*fn)(d)
		}
	}
	p.late = p.late[:0]
}

// poke wakes the sender if it sleeps.
func (p *peer) poke() {
	select {
	case p.wake <- struct{}{}:
	default: // a wake-up is already pending
	}
}

// close refuses further sends, counts what was queued as dropped, and tells
// the sender to exit.
func (p *peer) close() {
	p.mu.Lock()
	left := len(p.queue)
	p.queue, p.closed = nil, true
	p.mu.Unlock()
	p.drop(uint64(left))
	p.poke()
}

// flush puts batch on the wire, dialing if there is no connection. A write
// error on a connection that was already established usually means the peer
// restarted and the connection is a stale corpse; an immediate redial would
// succeed, so the batch gets exactly one redial-and-resend (frames that did
// reach the old connection arrive twice; handlers are idempotent). A fresh
// connection never retries — the peer just proved reachable, so a write
// error there is a real loss — which also ends the loop.
func (p *peer) flush(batch [][]byte) {
	n := uint64(len(batch))
	for {
		fresh := p.conn == nil
		if fresh && time.Now().UnixNano() < p.deadUntil.Load() {
			p.backoffRefused.Add(n)
			p.drop(n)
			return
		}
		var err error
		if fresh {
			err = p.connect()
		}
		if err == nil {
			err = p.write(batch)
		}
		if err == nil {
			p.recovered()
			return
		}
		p.evict()
		if fresh {
			p.failed(err)
			p.drop(n)
			return
		}
		p.retries.Add(n)
	}
}

// connect dials the peer, for at most backoffCap.
func (p *peer) connect() error {
	ctx, cancel := context.WithTimeout(p.t.ctx, backoffCap)
	defer cancel()
	c, err := p.t.dial(ctx, p.addr)
	if err != nil {
		return err
	}
	p.conn = c
	// Close reaches a sender parked in write through the connection.
	p.unhook = context.AfterFunc(p.t.ctx, func() { c.Close() })
	if p.dials.Add(1) > 1 {
		p.redials.Add(1)
	}
	return nil
}

// write sends batch in one write and counts the bytes that left: a plain
// write for the usual single frame (measurably cheaper), writev for more.
func (p *peer) write(batch [][]byte) error {
	var n int64
	var err error
	if len(batch) == 1 {
		var m int
		m, err = p.conn.Write(batch[0])
		n = int64(m)
	} else {
		// WriteTo consumes the slice it is given; batch must survive for a
		// resend.
		bufs := net.Buffers(slices.Clone(batch))
		n, err = bufs.WriteTo(p.conn)
	}
	p.bytes.Add(uint64(n))
	p.t.bytes.Add(uint64(n))
	return err
}

// evict discards the connection, if there is one.
func (p *peer) evict() {
	if p.conn == nil {
		return
	}
	p.unhook()
	p.conn.Close()
	p.conn = nil
	p.evictions.Add(1)
}

// failed advances the backoff window (doubling, capped), logging the two
// one-way transitions of an episode: entering backoff on the first failure,
// and hitting the cap. A failure caused by Close is neither.
func (p *peer) failed(cause error) {
	if p.t.ctx.Err() != nil {
		return
	}
	p.failures++
	d := backoffBase << (p.failures - 1)
	if d > backoffCap || d <= 0 {
		d = backoffCap
	}
	p.deadUntil.Store(time.Now().Add(d).UnixNano())
	if p.failures == 1 {
		p.t.log("transport: peer %s unreachable (%v), backing off from %v", p.addr, cause, backoffBase)
	}
	if d == backoffCap && !p.capped {
		p.capped = true
		p.t.log("transport: peer %s backoff capped at %v", p.addr, backoffCap)
	}
}

// recovered clears the backoff state after a successful write, logging the
// transition when the peer had been failing.
func (p *peer) recovered() {
	if p.failures == 0 {
		return
	}
	p.t.log("transport: peer %s recovered after %d failed attempts", p.addr, p.failures)
	p.failures, p.capped = 0, false
	p.deadUntil.Store(0)
}
