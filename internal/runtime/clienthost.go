package runtime

import (
	"sync"
	"time"

	"prestigebft/internal/client"
	"prestigebft/internal/transport"
	"prestigebft/internal/types"
)

// ClientHost drives one client.Client over a transport with wall-clock
// time — the client-side counterpart of Runtime. The client state machine is
// single-threaded by construction: notifications, timer callbacks and
// lifecycle calls all run under the host's lock.
type ClientHost struct {
	tr      *transport.Transport
	servers []string
	epoch   time.Time

	mu      sync.Mutex
	cl      *client.Client
	stopped bool
}

var _ client.Env = (*ClientHost)(nil)

// NewClientHost hosts a client built from cfg on tr. servers is every
// replica's address in server ID order: server i listens at servers[i-1].
// Pass Deliver to tr.Listen as the handler.
func NewClientHost(tr *transport.Transport, servers []string, cfg client.Config) *ClientHost {
	h := &ClientHost{tr: tr, servers: servers, epoch: time.Now()}
	h.cl = client.New(cfg, h)
	return h
}

// Deliver is the transport handler: server notifications reach the client,
// anything else is dropped.
func (h *ClientHost) Deliver(env *transport.Envelope) {
	notif, ok := env.Msg.(*types.Notif)
	if !ok || env.FromServer == 0 {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.cl.OnNotif(env.FromServer, notif)
}

// Start submits the client's first request.
func (h *ClientHost) Start() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.cl.Start()
}

// Stop halts the request loop and disarms pending timers: once Stop has
// returned, no client callback runs.
func (h *ClientHost) Stop() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.stopped = true
	h.cl.Stop()
}

// Stats returns a copy of the client's results so far.
func (h *ClientHost) Stats() client.Stats {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := h.cl.Stats
	st.Latencies = append([]time.Duration(nil), st.Latencies...)
	return st
}

// Now implements client.Env on the wall clock.
func (h *ClientHost) Now() time.Duration { return time.Since(h.epoch) }

// Send implements client.Env: queue msg for one server. An ID the host has
// no address for is dropped, like any other loss.
func (h *ClientHost) Send(to types.ServerID, msg types.Message) {
	if to >= 1 && int(to) <= len(h.servers) {
		_ = h.tr.Send(h.servers[to-1], msg)
	}
}

// Broadcast implements client.Env: queue msg for every server. A dead
// server's listener refuses the dial and the transport backs off, like any
// real client hammering a dead endpoint; loss is part of the fault model and
// the transport counts it, so the error is dropped.
func (h *ClientHost) Broadcast(msg types.Message) {
	_ = h.tr.Broadcast(h.servers, msg)
}

// SetTimer implements client.Env on wall-clock timers. The callback
// re-enters the client under the host's lock; cancellation and Stop are
// checked under the same lock, so a cancelled timer can never fire late.
func (h *ClientHost) SetTimer(d time.Duration, fn func()) func() {
	canceled := false
	tm := time.AfterFunc(d, func() {
		h.mu.Lock()
		defer h.mu.Unlock()
		if !canceled && !h.stopped {
			fn()
		}
	})
	return func() {
		canceled = true
		tm.Stop()
	}
}
