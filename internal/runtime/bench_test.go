package runtime_test

import (
	"testing"
	"time"

	"prestigebft/internal/consensus"
	"prestigebft/internal/core"
	"prestigebft/internal/crypto"
	"prestigebft/internal/metrics"
	"prestigebft/internal/runtime"
	"prestigebft/internal/transport"
	"prestigebft/internal/types"
)

// handledNode is a core node that signals the return of every OnMessage and
// keeps that call's effects for the goroutine it signalled.
type handledNode struct {
	*core.Node
	done chan struct{}
	effs []consensus.Effect
}

func (h *handledNode) OnMessage(now time.Duration, from consensus.Origin, msg types.Message) []consensus.Effect {
	h.effs = h.Node.OnMessage(now, from, msg)
	h.done <- struct{}{}
	return h.effs
}

// BenchmarkDeliverToHandled measures one inbound envelope from Deliver (the
// transport reader's call: inline pre-verification, then the event queue) to
// the core handler's return on the event loop, for three sat-small
// envelopes: a client Prop at the leader (verified, queued for a batch), the
// same Prop at a follower (what a client without a leader hint sends:
// pre-verified, passed on to the leader), and a follower's first OrdReply
// for an instance at the leader (verified, collected). No peer is
// reachable, so no effect touches a socket.
//
//	go test -run '^$' -bench DeliverToHandled -benchmem ./internal/runtime
func BenchmarkDeliverToHandled(b *testing.B) {
	reg, serverKeys, clientKeys := crypto.GenerateDeployment(77, 4, 2)
	reg.EnableVerifiedCache(0)
	start := func(b *testing.B, id types.ServerID, batch, depth int) (*runtime.Runtime, *handledNode) {
		h := &handledNode{done: make(chan struct{}), Node: core.New(core.Config{
			ID: id, N: 4, Keys: serverKeys[id], Registry: reg,
			BatchSize: batch, PipelineDepth: depth, PuzzleBitsPerRP: 2,
			// Nothing answers, so keep retransmissions and view changes out
			// of the measured window.
			InstanceTimeout: time.Hour, TimeoutMin: time.Hour, TimeoutMax: 2 * time.Hour,
		})}
		rt := runtime.New(runtime.Config{
			Replica:   h,
			Peers:     map[types.ServerID]string{},
			Transport: transport.NewServerTransport(id),
			Registry:  reg,
			Metrics:   metrics.NewRegistry(),
			Logf:      func(string, ...any) {},
		})
		go rt.Run()
		b.Cleanup(rt.Stop)
		awaitLoop(b, rt)
		return rt, h
	}
	props := func(n int) []*transport.Envelope {
		envs := make([]*transport.Envelope, n)
		for i := range envs {
			tx := types.Transaction{Timestamp: int64(i + 1), Client: 1, Data: []byte("0123456789abcdef0123456789abcdef")}
			p := &types.Prop{Tx: tx, D: tx.Digest()}
			p.Sig = clientKeys[1].Sign(p.SigningBytes())
			envs[i] = &transport.Envelope{FromClient: 1, Msg: p}
		}
		return envs
	}
	run := func(b *testing.B, rt *runtime.Runtime, h *handledNode, envs []*transport.Envelope) {
		b.ReportAllocs()
		b.ResetTimer()
		for _, env := range envs {
			rt.Deliver(env)
			<-h.done
		}
	}

	b.Run("Prop/leader", func(b *testing.B) {
		rt, h := start(b, 1, 100, 8)
		run(b, rt, h, props(b.N))
	})
	b.Run("Prop/follower", func(b *testing.B) {
		rt, h := start(b, 2, 100, 8)
		run(b, rt, h, props(b.N))
	})
	b.Run("OrdReply/leader", func(b *testing.B) {
		// One single-transaction instance per iteration, opened up front;
		// the measured envelope is server 2's vote for it.
		rt, h := start(b, 1, 1, b.N)
		votes := make([]*transport.Envelope, 0, b.N)
		for _, env := range props(b.N) {
			rt.Deliver(env)
			<-h.done
			for _, e := range h.effs {
				bc, _ := e.(consensus.Broadcast)
				ord, ok := bc.Msg.(*types.Ord)
				if !ok {
					continue
				}
				blk := types.TxBlock{
					Header: types.TxBlockHeader{V: ord.V, N: ord.N, PrevHash: ord.Prev, BatchLen: uint32(len(ord.Txs))},
					Txs:    ord.Txs,
				}
				m := &types.OrdReply{From: 2, V: ord.V, N: ord.N, D: blk.ContentDigest()}
				m.Sig = serverKeys[2].Sign(m.SigningBytes())
				votes = append(votes, &transport.Envelope{FromServer: 2, Msg: m})
			}
		}
		if len(votes) != b.N {
			b.Fatalf("opened %d instances, want %d", len(votes), b.N)
		}
		run(b, rt, h, votes)
	})
}
