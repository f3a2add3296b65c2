package main

import (
	"testing"

	"prestigebft/internal/transport"
	"prestigebft/internal/types"
)

// TestClientRegisteredOncePerID: N proposals from one client cost one
// registration (the parent paid a runtime lock and an address allocation for
// every one), servers register nothing, and every envelope is delivered.
func TestClientRegisteredOncePerID(t *testing.T) {
	registered := map[types.ClientID][]string{}
	delivered := 0
	h := newHandler(
		func(id types.ClientID, addr string) { registered[id] = append(registered[id], addr) },
		func(*transport.Envelope) { delivered++ },
	)

	const n = 100
	for i := 0; i < n; i++ {
		h(&transport.Envelope{FromClient: 7, Msg: &types.Prop{}})
	}
	h(&transport.Envelope{FromClient: 8, Msg: &types.Prop{}})
	h(&transport.Envelope{FromServer: 2, Msg: &types.OrdReply{}})
	if delivered != n+2 {
		t.Fatalf("delivered %d envelopes, want %d", delivered, n+2)
	}
	if got := registered[7]; len(got) != 1 || got[0] != "127.0.0.1:9007" {
		t.Fatalf("client 7 registrations = %v, want exactly [127.0.0.1:9007]", got)
	}
	if len(registered[8]) != 1 || len(registered) != 2 {
		t.Fatalf("registrations = %v, want one each for clients 7 and 8 and none for the server", registered)
	}
}
