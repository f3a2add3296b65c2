package liveharness

import (
	"prestigebft/internal/transport"
	"prestigebft/internal/types"
)

// ClientTransports is every transport the workload clients send on.
func (e *Env) ClientTransports() []*transport.Transport {
	return []*transport.Transport{e.clientTr}
}

// ServerTransport is server id's current transport and its listen address.
func (e *Env) ServerTransport(id types.ServerID) (*transport.Transport, string) {
	s := e.servers[id-1]
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tr, s.addr
}
