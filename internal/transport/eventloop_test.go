package transport_test

import (
	"sync/atomic"
	"testing"
	"time"

	"prestigebft/internal/consensus"
	"prestigebft/internal/runtime"
	"prestigebft/internal/transport"
	"prestigebft/internal/types"
)

// echoProbe is a replica that answers every inbound message with a
// Broadcast and counts the messages it has handled.
type echoProbe struct{ handled atomic.Int64 }

func (p *echoProbe) ID() types.ServerID                    { return 1 }
func (p *echoProbe) Init(time.Duration) []consensus.Effect { return nil }
func (p *echoProbe) OnMessage(_ time.Duration, _ consensus.Origin, msg types.Message) []consensus.Effect {
	p.handled.Add(1)
	return []consensus.Effect{consensus.Broadcast{Msg: msg}}
}
func (p *echoProbe) OnTimer(time.Duration, consensus.TimerKind, uint64) []consensus.Effect {
	return nil
}
func (p *echoProbe) OnPuzzleSolved(time.Duration, uint64, []byte, types.Digest) []consensus.Effect {
	return nil
}

// TestEventLoopOutlivesBlackHoledPeer: a replica with one black-holed peer
// (SYNs dropped, never refused) keeps handling messages — view-change traffic
// in a real deployment — while the dial to that peer hangs. All 1000 inbound
// messages, each answered with a Broadcast, are handled and reach the healthy
// peer before the first dial to the dead one gives up.
func TestEventLoopOutlivesBlackHoledPeer(t *testing.T) {
	var healthyGot atomic.Int64
	healthy := transport.NewServerTransport(2)
	if err := healthy.Listen("127.0.0.1:0", func(*transport.Envelope) { healthyGot.Add(1) }); err != nil {
		t.Fatal(err)
	}
	defer healthy.Close()

	const dead = "192.0.2.1:7001"
	gaveUp := make(chan struct{})
	tr := transport.NewServerTransport(1)
	defer tr.Close()
	tr.BlackHole(dead, gaveUp)

	p := &echoProbe{}
	rt := runtime.New(runtime.Config{
		Replica:   p,
		Peers:     map[types.ServerID]string{1: "127.0.0.1:1", 2: healthy.Addr(), 3: dead},
		Transport: tr,
		Logf:      func(string, ...any) {},
	})
	go rt.Run()
	defer rt.Stop()

	const msgs = 1000
	for i := 0; i < msgs; i++ {
		rt.Deliver(&transport.Envelope{FromServer: 2, Msg: &types.Ref{From: 2, V: types.View(i), Sig: []byte("s")}})
	}
	for p.handled.Load() < msgs || healthyGot.Load() < msgs {
		select {
		case <-gaveUp:
			t.Fatalf("the black-holed dial gave up with %d of %d messages handled and %d delivered to the healthy peer",
				p.handled.Load(), msgs, healthyGot.Load())
		case <-time.After(time.Millisecond):
		}
	}
	if st := tr.PeerStats()[dead]; st.Sent != msgs {
		t.Fatalf("black-holed peer stats %+v, want %d sent", st, msgs)
	}
}
