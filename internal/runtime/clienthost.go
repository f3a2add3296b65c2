package runtime

import (
	"sync"
	"time"

	"prestigebft/internal/client"
	"prestigebft/internal/transport"
	"prestigebft/internal/types"
)

// ClientHost drives many client.Clients over one transport with wall-clock
// time — the client-side counterpart of Runtime, shaped like a load
// generator: every hosted client shares one connection per server, so a
// replica writes a block's Notifs for all of them in one batch.
//
// Each hosted client is its own client.Env with its own lock: its
// notifications, timer callbacks and lifecycle calls run under that lock,
// and the transport's reader goroutines (one per server connection) serve
// different clients in parallel.
//
// A Notif names no client, so the host routes it by digest: each client's
// outstanding request is an entry of a route table, set when the client sends
// its Prop (or Compt) and replacing its previous one. A Notif whose digest
// has no entry is dropped — exactly the Notifs client.OnNotif would ignore.
type ClientHost struct {
	tr      *transport.Transport
	servers []string
	epoch   time.Time
	clients []*hostedClient

	mu     sync.Mutex
	routes map[types.Digest]*hostedClient
}

// hostedClient is one client of a host and its client.Env.
type hostedClient struct {
	h *ClientHost

	mu      sync.Mutex
	cl      *client.Client
	stopped bool
	route   types.Digest // this client's key in h.routes; zero before the first send
}

var _ client.Env = (*hostedClient)(nil)

// NewClientHost hosts one client per cfg on tr. servers is every replica's
// address in server ID order: server i listens at servers[i-1]. Pass
// Deliver to tr.Listen as the handler; every server must send every hosted
// client's Notifs to that listener.
func NewClientHost(tr *transport.Transport, servers []string, cfgs ...client.Config) *ClientHost {
	h := &ClientHost{
		tr: tr, servers: servers, epoch: time.Now(),
		routes: make(map[types.Digest]*hostedClient, len(cfgs)),
	}
	for _, cfg := range cfgs {
		hc := &hostedClient{h: h}
		hc.cl = client.New(cfg, hc)
		h.clients = append(h.clients, hc)
	}
	return h
}

// Deliver is the transport handler: a server notification reaches the
// client whose outstanding request it names, anything else is dropped.
func (h *ClientHost) Deliver(env *transport.Envelope) {
	notif, ok := env.Msg.(*types.Notif)
	if !ok || env.FromServer == 0 {
		return
	}
	h.mu.Lock()
	hc := h.routes[notif.TxD]
	h.mu.Unlock()
	if hc == nil {
		return
	}
	hc.mu.Lock()
	defer hc.mu.Unlock()
	if !hc.stopped {
		hc.cl.OnNotif(env.FromServer, notif)
	}
}

// Start submits every client's first request.
func (h *ClientHost) Start() {
	for _, hc := range h.clients {
		hc.mu.Lock()
		hc.cl.Start()
		hc.mu.Unlock()
	}
}

// Stop halts every request loop and disarms pending timers: once Stop has
// returned, no client callback runs.
func (h *ClientHost) Stop() {
	for _, hc := range h.clients {
		hc.mu.Lock()
		hc.stopped = true
		hc.cl.Stop()
		hc.mu.Unlock()
	}
}

// Stats returns a copy of each client's results so far, in config order.
func (h *ClientHost) Stats() []client.Stats {
	stats := make([]client.Stats, len(h.clients))
	for i, hc := range h.clients {
		hc.mu.Lock()
		stats[i] = hc.cl.Stats
		stats[i].Latencies = append([]time.Duration(nil), stats[i].Latencies...)
		hc.mu.Unlock()
	}
	return stats
}

// routeTo makes the digest of the request msg carries (a Prop or a Compt)
// the client's one entry in the route table. Called under hc.mu, before the
// send, so no Notif for that digest can arrive unrouted.
func (hc *hostedClient) routeTo(msg types.Message) {
	var d types.Digest
	switch m := msg.(type) {
	case *types.Prop:
		d = m.D
	case *types.Compt:
		d = m.Prop.D
	default:
		return
	}
	if d == hc.route {
		return
	}
	h := hc.h
	h.mu.Lock()
	delete(h.routes, hc.route) // a digest names its client, so the entry is hc's
	h.routes[d] = hc
	h.mu.Unlock()
	hc.route = d
}

// Now implements client.Env on the wall clock.
func (hc *hostedClient) Now() time.Duration { return time.Since(hc.h.epoch) }

// Send implements client.Env: queue msg for one server. An ID the host has
// no address for is dropped, like any other loss.
func (hc *hostedClient) Send(to types.ServerID, msg types.Message) {
	hc.routeTo(msg)
	if servers := hc.h.servers; to >= 1 && int(to) <= len(servers) {
		_ = hc.h.tr.Send(servers[to-1], msg)
	}
}

// Broadcast implements client.Env: queue msg for every server. A dead
// server's listener refuses the dial and the transport backs off, like any
// real client hammering a dead endpoint; loss is part of the fault model and
// the transport counts it, so the error is dropped.
func (hc *hostedClient) Broadcast(msg types.Message) {
	hc.routeTo(msg)
	_ = hc.h.tr.Broadcast(hc.h.servers, msg)
}

// SetTimer implements client.Env on wall-clock timers. The callback
// re-enters the client under its lock; cancellation and Stop are checked
// under the same lock, so a cancelled timer can never fire late.
func (hc *hostedClient) SetTimer(d time.Duration, fn func()) func() {
	canceled := false
	tm := time.AfterFunc(d, func() {
		hc.mu.Lock()
		defer hc.mu.Unlock()
		if !canceled && !hc.stopped {
			fn()
		}
	})
	return func() {
		canceled = true
		tm.Stop()
	}
}
