package runtime

import "prestigebft/internal/types"

// EventQueueFree is how many more events the queue takes before a sender
// blocks.
func (rt *Runtime) EventQueueFree() int { return cap(rt.events) - len(rt.events) }

// Routed is how many digests the host's route table holds.
func (h *ClientHost) Routed() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.routes)
}

// RouteOf is the client a Notif for d reaches, 0 when none does.
func (h *ClientHost) RouteOf(d types.Digest) types.ClientID {
	h.mu.Lock()
	defer h.mu.Unlock()
	if hc := h.routes[d]; hc != nil {
		return hc.cl.ID()
	}
	return 0
}
